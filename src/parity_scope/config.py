"""Scenario configuration: schema, unit handling, presets and derivation.

Configuration files are JSON trees quoting ordinary frequencies in MHz (the
/2pi convention) and times either in microseconds or in units of 1/kappa.
Internally everything becomes angular rad/us.  TCQ devices are specified by
their dressed qubit frequency, their transverse coupling and one effective
anharmonicity used for both the minus branch and the cross term -- the
parameter convention of the published coupling estimates, which cannot be
produced by a resonant bare pair (there the cross anharmonicity is twice the
branch one) but defines the effective model directly.
"""

from __future__ import annotations

import copy
import json
import math
import sys

from .dispersive import (
    CHARGE_CUTOFF_CEILING,
    QubitCavityCoupling,
    TcqSpec,
    TransmonSpec,
    dressed_sign_flip_couplings,
    parity_detunings,
    purcell_time,
    solve_couplings_for_chi,
    tcq_dispersive,
    tcq_mixing,
    transmon_dispersive,
    transmon_levels,
)
from .errors import ConfigError, ParityConditionUnsatisfiable
from .measurement import DEFAULT_STEP_FACTOR, RK4_STEP_BUDGET, DrivePulse, MeasurementSetup
from .records import Record, replace

# ordinary frequency in MHz -> angular rad/us: omega = 2 pi f
MHZ = 2.0 * math.pi

MATCHED_CHI_RTOL = 1e-6
# grids 1 and 2 sample only ng = 0 and ng = 1, one offset up to truncation,
# so they cannot measure a charge dispersion
DISPERSION_GRID_MIN = 3
# up to about 5.5e-3 the zero-switch check fails on the minimizer's rounding
COUPLING_RATIO_MIN = 1e-2
# a 101 x 101 offset grid is 5,151 points after the island swap, of which
# validate's flat and steep configurations solve 4 and 210 dense, ~40 s each
DISPERSION_GRID_MAX = 101
# 10,001 points on each of the two cuts are about 1.5 minutes of sweep at
# about 4.5 ms a point (2 x 1,001 points took 8.0-9.4 s on a 2-vCPU VM)
SWEEP_POINTS_MAX = 10_001
# each tau point holds one 6x6 propagator per Hamming weight in memory:
# simulate --hw all at 5,601 points peaks at 70 MB RSS, against 34 MB at 57
TAU_POINTS_MAX = 5601

# ---------------------------------------------------------------------------
# the schema: one table of leaves per section, key -> (kind, default, bounds,
# scale).  Kinds: "number" (finite; bounds a sign, or the literals also
# accepted), "rate" (a positive number whose square in rad/us is a finite
# nonzero float), "integer" (bounds (low, high)), "literal" (one of bounds),
# "string", "path" (a string), "any", "object" (bounds its table; null is
# absent where the default is None) and "list" (non-empty; bounds the table
# of each type).  A
# leaf scaled by "MHz" must stay finite in rad/us and is stored so, without
# its _mhz suffix; one scaled by "kappa" must stay finite times kappa and is
# stored in units of kappa, since (x * kappa) / kappa need not round-trip.
# ---------------------------------------------------------------------------

REQUIRED = object()
TIME_UNITS = ("1/kappa", "us")
NAME = ("string", None, None, None)     # absent: the caller's name, or q<i>

TCQ = {
    "type": ("literal", REQUIRED, ("tcq", "transmon"), None),
    "name": NAME,
    "qubit_frequency_mhz": ("number", REQUIRED, None, "MHz"),
    # the sign-flip couplings need the pi/4 mixing that J != 0 gives
    "transverse_coupling_mhz": ("number", REQUIRED, "nonzero", "MHz"),
    "anharmonicity_mhz": ("number", REQUIRED, "negative", "MHz"),
}
TRANSMON = {
    "type": TCQ["type"],
    "name": NAME,
    "josephson_energy_mhz": ("number", REQUIRED, "positive", "MHz"),
    "charging_energy_mhz": ("number", REQUIRED, "positive", "MHz"),
    "g1_mhz": ("number", REQUIRED, None, "MHz"),
    "g2_mhz": ("number", REQUIRED, None, "MHz"),
}
BUS = {
    "resonator1_mhz": ("number", REQUIRED, None, "MHz"),
    "resonator2_mhz": ("number", REQUIRED, ("auto-parity",), "MHz"),
    # a rate squared is the unit of the dispersive summary's switch excess
    "kappa1_mhz": ("rate", REQUIRED, "positive", "MHz"),
    "kappa2_mhz": ("rate", REQUIRED, "positive", "MHz"),
}
TARGETS = {
    "chi1_over_kappa": ("number", REQUIRED, None, "kappa"),
    "chi2_over_kappa": ("number", REQUIRED, None, "kappa"),
}
PULSE = {
    "amplitude": ("number", REQUIRED, None, None),
    "ramp": ("number", REQUIRED, None, None),
    "t_on": ("number", REQUIRED, None, None),
    "t_off": ("number", REQUIRED, None, None),
    "time_unit": ("literal", "1/kappa", TIME_UNITS, None),
}
SWEEP = {
    "minimum": ("number", 0.1, None, "kappa"),
    "maximum": ("number", 1.2, None, "kappa"),
    "points": ("integer", 61, (1, SWEEP_POINTS_MAX), None),
    "asymmetric_chi2": ("number", 0.3, None, "kappa"),
}
ANALYSIS = {
    "measurement_time": ("number", 28.0, "positive", None),
    "time_unit": ("literal", "1/kappa", TIME_UNITS, None),
    "tau_points": ("integer", 57, (3, TAU_POINTS_MAX), None),
    "phase": ("number", "optimal", ("optimal",), None),
    "sweep": ("object", {}, SWEEP, None),
}
VALIDATION = {
    "coupling_ratio": ("number", 0.05, None, None),
    # room for one cutoff + 4 convergence probe below the ceiling
    "charge_cutoff": ("integer", 12, (8, CHARGE_CUTOFF_CEILING - 4), None),
    "dispersion_grid": ("integer", 21, (DISPERSION_GRID_MIN, DISPERSION_GRID_MAX), None),
}
DEVICES = {"tcq": TCQ, "transmon": TRANSMON}
LEAVES = {
    "name": NAME,
    "description": ("any", None, None, None),
    "devices": ("list", REQUIRED, DEVICES, None),
    "bus": ("object", REQUIRED, BUS, None),
    "targets": ("object", None, TARGETS, None),
    "pulse": ("object", REQUIRED, PULSE, None),
    "analysis": ("object", {}, ANALYSIS, None),
    "validation": ("object", {}, VALIDATION, None),
    "output_dir": ("path", "out", None, None),
}


def _is_number(value):
    # a JSON integer beyond the float range would overflow in any arithmetic
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and not abs(value) > sys.float_info.max)


def _leaf(mapping, key, leaf, path, kappa=None):
    """The leaf ``key`` of ``mapping`` checked against its table entry, or
    its default when absent; a MHz leaf comes back in rad/us."""
    kind, default, bounds, scale = leaf
    where = f"{path}.{key}" if path else key
    if key not in mapping:
        if default is REQUIRED:
            raise ConfigError(f"{where}: missing required field")
        return default
    value = mapping[key]
    if (kind == "any" or kind == "object" and value is None and default is None
            or kind != "integer" and isinstance(bounds, tuple) and value in bounds):
        return value
    if kind == "integer":
        low, high = bounds
        if (_is_number(value) and math.isfinite(value) and value == int(value)
                and low <= value <= high):
            return int(value)
        raise ConfigError(f"{where}: expected an integer from {low} to {high}, got {value!r}")
    if kind in ("number", "rate"):
        factor = MHZ if scale == "MHz" else kappa if scale == "kappa" else 1.0
        if not (_is_number(value) and math.isfinite(value * factor)):
            expected = (f"a number or {bounds[0]!r}" if isinstance(bounds, tuple)
                        else "a finite number")
            raise ConfigError(f"{where}: expected {expected}, got {value!r}")
        number = float(value)
        if bounds == "nonzero" and number == 0:
            raise ConfigError(f"{where}: expected a nonzero number, got 0")
        if bounds == "positive" and number <= 0 or bounds == "negative" and number >= 0:
            raise ConfigError(f"{where}: expected a {bounds} number, got {number!r}")
        number *= MHZ if scale == "MHz" else 1.0
        if kind == "rate" and not 0.0 < number * number < math.inf:
            raise ConfigError(f"{where}: {value!r} squared in rad/us leaves the float range")
        return number
    if (kind in ("string", "path") and isinstance(value, str)
            or kind == "object" and isinstance(value, dict)
            or kind == "list" and isinstance(value, list) and value):
        return value
    expected = {"string": "a string", "path": "a path string", "object": "an object",
                "list": "a non-empty list"}.get(kind) or " or ".join(map(repr, bounds))
    raise ConfigError(f"{where}: expected {expected}, got {value!r}")


def _read(mapping, leaves, path, kappa=None):
    """Every leaf of the table ``leaves`` from the section ``mapping`` at
    ``path``, keyed without the _mhz suffix; a key outside the table is
    rejected, naming the nearest one, as a misspelled field would otherwise
    leave its default."""
    for key in mapping:
        if key not in leaves:
            import difflib      # only on the error path, so every command starts without it

            near = difflib.get_close_matches(key, leaves, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"{path or 'top level'}: unknown key {key!r}{hint}")
    return {key.removesuffix("_mhz"): _leaf(mapping, key, leaf, path, kappa)
            for key, leaf in leaves.items()}


class PulseConfig(Record):
    amplitude: float          # drive amplitude in units of sqrt(kappa)
    ramp: float
    t_on: float
    t_off: float
    time_unit: str

    def resolve(self, kappa):
        """Physical DrivePulse for a given kappa (rad/us).

        The field amplitude carries dimension sqrt(rate), so the quoted
        number scales with sqrt(kappa); the resulting signal-to-noise of the
        integrated record is then kappa-independent.
        """
        scale = self.time_scale(kappa)
        t_on, ramp, t_off = self.t_on * scale, self.ramp * scale, self.t_off * scale
        if self.t_on + self.ramp <= self.t_off:
            # the conversion may round t_on + ramp past t_off by one ulp
            t_off = max(t_off, t_on + ramp)
        return DrivePulse(amplitude=self.amplitude * math.sqrt(kappa), ramp=ramp,
                          t_on=t_on, t_off=t_off)

    def time_scale(self, kappa):
        """Microseconds per unit of the pulse times."""
        return 1.0 / kappa if self.time_unit == "1/kappa" else 1.0


class SweepConfig(Record):
    minimum: float
    maximum: float
    points: int
    asymmetric_chi2: float


class AnalysisConfig(Record):
    measurement_time: float
    time_unit: str
    tau_points: int
    phase: object
    sweep: SweepConfig

    def resolve_measurement_time(self, kappa):
        return (self.measurement_time / kappa
                if self.time_unit == "1/kappa" else self.measurement_time)


class ValidationConfig(Record):
    coupling_ratio: float
    charge_cutoff: int
    dispersion_grid: int


class ScenarioConfig(Record):
    name: str
    devices: tuple
    resonator1: float              # rad/us
    resonator2: object             # rad/us or "auto-parity"
    kappa1: float
    kappa2: float
    chi_targets: tuple | None      # in units of kappa, e.g. (-0.5, -0.5)
    pulse: PulseConfig
    analysis: AnalysisConfig
    validation: ValidationConfig
    output_dir: str


def _parse_device(raw, index):
    where = f"devices[{index}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = raw.get("type")
    # an absent or unknown type is reported after any key no device reads
    leaves = DEVICES[kind] if kind in ("tcq", "transmon") else {**TCQ, **TRANSMON}
    device = _read(raw, leaves, where)
    if device["name"] is None:
        device["name"] = f"q{index}"
    return device


def parse_config(tree, name="config"):
    """Validate a configuration tree into a ScenarioConfig (rad/us units)."""
    if not isinstance(tree, dict):
        raise ConfigError("top level: expected a JSON object")
    top = _read(tree, LEAVES, "")
    devices = tuple(_parse_device(d, i) for i, d in enumerate(top["devices"]))
    bus = _read(top["bus"], BUS, "bus")
    kappa = max(bus["kappa1"], bus["kappa2"])
    chi_targets = (None if top["targets"] is None
                   else tuple(_read(top["targets"], TARGETS, "targets", kappa).values()))

    pulse = PulseConfig(**_read(top["pulse"], PULSE, "pulse"))
    drive = pulse.amplitude * math.sqrt(kappa)
    if not math.isfinite(drive * drive):
        raise ConfigError(f"pulse.amplitude: {pulse.amplitude!r} sqrt(kappa) drives a photon "
                          f"flux beyond the float range")
    try:
        pulse.resolve(1.0)      # the pulse-shape checks are scale-free
    except ValueError as exc:
        raise ConfigError(f"pulse: {exc}") from exc
    if not pulse.ramp * pulse.time_scale(kappa) > 0:
        raise ConfigError(f"pulse.ramp: {pulse.ramp!r} {pulse.time_unit} underflows to 0 us")

    analysis = _read(top["analysis"], ANALYSIS, "analysis")
    sweep = SweepConfig(**_read(analysis["sweep"], SWEEP, "analysis.sweep", kappa))
    if sweep.minimum <= 0 or sweep.maximum < sweep.minimum:
        raise ConfigError("analysis.sweep: invalid range")
    analysis = AnalysisConfig(**dict(analysis, sweep=sweep))
    tau, time_unit = analysis.resolve_measurement_time(kappa), analysis.time_unit
    if not tau > 0:
        raise ConfigError(f"analysis.measurement_time: {analysis.measurement_time!r} "
                          f"{time_unit} underflows to 0 us")
    # RK4 steps of one trajectory at the default dt, rounded as evolve rounds them
    steps = tau / (DEFAULT_STEP_FACTOR / kappa)
    if steps > RK4_STEP_BUDGET + 0.5:
        raise ConfigError(
            f"analysis.measurement_time: {analysis.measurement_time!r} {time_unit} needs "
            f"{steps:.7g} RK4 steps at dt = {DEFAULT_STEP_FACTOR:g}/kappa, above the budget "
            f"of {RK4_STEP_BUDGET:.0e}")
    validation = ValidationConfig(**_read(top["validation"], VALIDATION, "validation"))
    if validation.coupling_ratio < COUPLING_RATIO_MIN:
        raise ConfigError(f"validation.coupling_ratio: expected at least "
                          f"{COUPLING_RATIO_MIN:g}, got {validation.coupling_ratio!r}")
    return ScenarioConfig(name=name if top["name"] is None else top["name"], devices=devices,
                          **bus, chi_targets=chi_targets, pulse=pulse, analysis=analysis,
                          validation=validation, output_dir=top["output_dir"])


def load_config(path):
    try:
        with open(path, encoding="utf-8") as handle:
            tree = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply to parse") from exc
    return parse_config(tree, name=str(path))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _tcq_preset(chi1, chi2, name, description):
    return {
        "name": name,
        "description": description,
        "devices": [
            {"type": "tcq", "name": "a", "qubit_frequency_mhz": 6000.0,
             "transverse_coupling_mhz": -400.0, "anharmonicity_mhz": -300.0},
            {"type": "tcq", "name": "b", "qubit_frequency_mhz": 5600.0,
             "transverse_coupling_mhz": -400.0, "anharmonicity_mhz": -300.0},
            {"type": "tcq", "name": "c", "qubit_frequency_mhz": 5200.0,
             "transverse_coupling_mhz": -400.0, "anharmonicity_mhz": -300.0},
        ],
        "bus": {"resonator1_mhz": 7500.0, "resonator2_mhz": "auto-parity",
                "kappa1_mhz": 5.0, "kappa2_mhz": 5.0},
        "targets": {"chi1_over_kappa": chi1, "chi2_over_kappa": chi2},
        "pulse": {"amplitude": 0.5, "ramp": 4.0, "t_on": 1.0, "t_off": 16.0},
        "analysis": {},
    }


PRESETS = {
    "paper-sec5-symmetric": _tcq_preset(
        -0.5, -0.5, "paper-sec5-symmetric",
        "three TCQs, chi1 = chi2 = -kappa/2, published coupling estimate"),
    "paper-sec5-asymmetric": _tcq_preset(
        -0.3, -0.5, "paper-sec5-asymmetric",
        "weaker shift on the qubit-decay resonator for longer Purcell time"),
    "transmon-obstruction": {
        "name": "transmon-obstruction",
        "description": "three identical transmons; the parity condition must fail",
        "devices": [
            {"type": "transmon", "name": f"q{i}", "josephson_energy_mhz": 20000.0,
             "charging_energy_mhz": 300.0, "g1_mhz": 100.0, "g2_mhz": 100.0}
            for i in (1, 2, 3)
        ],
        "bus": {"resonator1_mhz": 7500.0, "resonator2_mhz": 7491.3,
                "kappa1_mhz": 5.0, "kappa2_mhz": 5.0},
        "pulse": {"amplitude": 0.5, "ramp": 4.0, "t_on": 1.0, "t_off": 16.0},
        "analysis": {},
    },
    # the TCQs sit below the resonators, so the derivable shifts are negative;
    # the sweep reads no targets, and its gains are even in chi
    "fig4-cuts": _tcq_preset(
        -0.5, -0.5, "fig4-cuts",
        "diagonal and asymmetric information-gain cuts over chi/kappa"),
}


def preset(name):
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return parse_config(copy.deepcopy(PRESETS[name]), name=name)


def preset_names():
    return [(key, PRESETS[key]["description"]) for key in sorted(PRESETS)]


# ---------------------------------------------------------------------------
# scenario derivation
# ---------------------------------------------------------------------------

class QubitResult(Record):
    name: str
    model: object
    g1: float
    g2: float
    purcell: object


class ScenarioReport(Record):
    config: ScenarioConfig
    qubits: tuple
    resonator2: float
    detunings: object           # ParityDetunings or None
    parity_error: str | None

    @property
    def parity_satisfiable(self):
        return self.parity_error is None

    @property
    def kappa(self):
        return max(self.config.kappa1, self.config.kappa2)

    def measurement_setup(self):
        if not self.parity_satisfiable:
            raise ParityConditionUnsatisfiable(self.parity_error)
        pulse = self.config.pulse.resolve(self.kappa)
        det = self.detunings.plus_branch
        return MeasurementSetup(self.config.kappa1, self.config.kappa2,
                                det[0], det[1], self.qubits[0].model, pulse)


def _derive_tcq(device, config):
    kappa = max(config.kappa1, config.kappa2)
    chi1 = config.chi_targets[0] * kappa
    chi2 = config.chi_targets[1] * kappa
    omega1 = config.resonator1
    if config.resonator2 == "auto-parity":
        if chi1 * chi2 <= 0:
            raise ConfigError("auto-parity requires chi targets of equal sign")
        omega2 = omega1 + 2.0 * math.sqrt(3.0) * math.copysign(
            math.sqrt(chi1 * chi2), chi1)
    else:
        omega2 = config.resonator2

    bare = device["qubit_frequency"] - device["transverse_coupling"]
    spec = TcqSpec(bare, bare, device["anharmonicity"], device["anharmonicity"],
                   device["transverse_coupling"])
    # effective-parameter convention of the scenario: one anharmonicity for
    # both the minus branch and the cross term
    dressed = replace(tcq_mixing(spec), delta_plus=device["anharmonicity"],
                      delta_minus=device["anharmonicity"],
                      delta_cross=device["anharmonicity"])
    g1, g2 = solve_couplings_for_chi((chi1, chi2), dressed, (omega1, omega2))
    model = tcq_dispersive(dressed, (omega1, omega2), dressed_sign_flip_couplings(g1, g2))
    estimate = purcell_time(kappa, g1, dressed.omega_minus, omega1)
    return QubitResult(device["name"], model, g1, g2, estimate), omega2


def _derive_transmon(device, config):
    if config.resonator2 == "auto-parity":
        raise ConfigError("auto-parity is undefined for transmon scenarios")
    spec = TransmonSpec(device["josephson_energy"], device["charging_energy"])
    omega_t, _ = transmon_levels(spec)
    coupling = QubitCavityCoupling(device["g1"], device["g2"],
                                   omega_t - config.resonator1,
                                   omega_t - config.resonator2)
    model = transmon_dispersive(spec, coupling)
    return QubitResult(device["name"], model, device["g1"], device["g2"], None), \
        config.resonator2


def derive_scenario(config):
    """Resolve the device models, the bus and the parity verdict."""
    qubits = []
    omega2 = None
    for device in config.devices:
        if device["type"] == "tcq":
            if config.chi_targets is None:
                raise ConfigError("tcq scenarios need a targets block")
            result, omega2 = _derive_tcq(device, config)
        else:
            result, omega2 = _derive_transmon(device, config)
        qubits.append(result)

    # the parity scheme assumes matched shifts across the register
    for field in ("chi1", "chi2", "quantum_switch"):
        values = [getattr(q.model, field) for q in qubits]
        scale = max(max(abs(v) for v in values), 1e-30)
        if (max(values) - min(values)) / scale > MATCHED_CHI_RTOL:
            raise ConfigError(
                f"{field} differs across qubits by more than {MATCHED_CHI_RTOL:g} relative")

    detunings = None
    parity_error = None
    try:
        detunings = parity_detunings(qubits[0].model, config.kappa1, config.kappa2)
    except ParityConditionUnsatisfiable as exc:
        parity_error = str(exc)

    return ScenarioReport(config=config, qubits=tuple(qubits), resonator2=omega2,
                          detunings=detunings, parity_error=parity_error)
