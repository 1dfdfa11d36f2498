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
from dataclasses import dataclass, replace

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
# 10,001 points on each of the two cuts are about 5 minutes of sweep at ~15 ms a point
SWEEP_POINTS_MAX = 10_001
# each tau point costs one 6x6 propagator per Hamming weight: 5,601 points,
# one per record of the longest record grid, peak at about 70 MB
TAU_POINTS_MAX = 5601


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _is_number(value):
    # a JSON integer beyond the float range would overflow in any arithmetic
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and not abs(value) > sys.float_info.max)


def _number(mapping, key, where, default=None, scale=1.0):
    """Finite number at ``mapping[key]``; required unless a default is given.

    ``scale`` is the factor the caller multiplies the value by (a unit or a
    rate); the product must be finite too, or an overflow there would pass.
    """
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    if not (_is_number(value) and math.isfinite(value * scale)):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {value!r}")
    return float(value)


def _positive(mapping, key, where, default=None, scale=1.0):
    value = _number(mapping, key, where, default, scale)
    if value <= 0:
        raise ConfigError(f"{where}.{key}: expected a positive number, got {value!r}")
    return value


def _negative(mapping, key, where, scale=1.0):
    value = _number(mapping, key, where, scale=scale)
    if value >= 0:
        raise ConfigError(f"{where}.{key}: expected a negative number, got {value!r}")
    return value


def _mhz(mapping, key, where, check=_number):
    """A frequency field in MHz, as angular rad/us that stays finite."""
    return check(mapping, key, where, scale=MHZ) * MHZ


def _rate(mapping, key, where):
    """A decay rate in MHz, as angular rad/us whose square, the unit of the
    switch excess, is a finite nonzero float."""
    value = _mhz(mapping, key, where, _positive)
    if not 0.0 < value * value < math.inf:
        raise ConfigError(f"{where}.{key}: {mapping[key]!r} squared in rad/us leaves "
                          "the float range")
    return value


def _integer(mapping, key, where, default, minimum, maximum=math.inf):
    """Integer in [minimum, maximum] (integral floats accepted); optional."""
    value = mapping.get(key, default)
    if not (_is_number(value) and math.isfinite(value) and value == int(value)
            and minimum <= value <= maximum):
        bound = (f"of at least {minimum}" if maximum == math.inf
                 else f"from {minimum} to {maximum}")
        raise ConfigError(f"{where}.{key}: expected an integer {bound}, got {value!r}")
    return int(value)


def _known(mapping, keys, where):
    """Reject a key of ``mapping`` that its parser does not read, naming the
    nearest of ``keys``: a misspelled field would otherwise leave its default."""
    for key in mapping:
        if key not in keys:
            import difflib      # only on the error path, so every command starts without it

            near = difflib.get_close_matches(key, keys, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"{where}: unknown key {key!r}{hint}")


def _section(mapping, key, keys, prefix="", required=False):
    """Sub-object at ``mapping[key]``, holding only ``keys``; an optional one
    that is absent means all its defaults."""
    if required:
        _require(mapping, key, prefix[:-1] or "top level")
    value = mapping.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{prefix}{key}: expected an object, got {value!r}")
    _known(value, keys, prefix + key)
    return value


@dataclass(frozen=True)
class PulseConfig:
    amplitude: float          # drive amplitude in units of sqrt(kappa)
    ramp: float
    t_on: float
    t_off: float
    time_unit: str = "1/kappa"

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


@dataclass(frozen=True)
class SweepConfig:
    minimum: float = 0.1
    maximum: float = 1.2
    points: int = 61
    asymmetric_chi2: float = 0.3


@dataclass(frozen=True)
class AnalysisConfig:
    measurement_time: float = 28.0
    time_unit: str = "1/kappa"
    tau_points: int = 57
    phase: object = "optimal"
    sweep: SweepConfig = SweepConfig()

    def resolve_measurement_time(self, kappa):
        return (self.measurement_time / kappa
                if self.time_unit == "1/kappa" else self.measurement_time)


@dataclass(frozen=True)
class ValidationConfig:
    coupling_ratio: float = 0.05
    charge_cutoff: int = 12
    dispersion_grid: int = 21


@dataclass(frozen=True)
class ScenarioConfig:
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
    output_dir: str = "out"


def _parse_device(raw, index):
    where = f"devices[{index}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = _require(raw, "type", where)
    name = raw.get("name", f"q{index}")
    if not isinstance(name, str):
        raise ConfigError(f"{where}.name: expected a string, got {name!r}")
    if kind == "tcq":
        _known(raw, ("type", "name", "qubit_frequency_mhz", "transverse_coupling_mhz",
                     "anharmonicity_mhz"), where)
        device = {
            "type": "tcq",
            "name": name,
            "qubit_frequency": _mhz(raw, "qubit_frequency_mhz", where),
            "transverse_coupling": _mhz(raw, "transverse_coupling_mhz", where),
            "anharmonicity": _mhz(raw, "anharmonicity_mhz", where, _negative),
        }
        if device["transverse_coupling"] == 0.0:
            # the sign-flip couplings need the pi/4 mixing that J != 0 gives
            raise ConfigError(f"{where}.transverse_coupling_mhz: expected a nonzero number, got 0")
        return device
    if kind == "transmon":
        _known(raw, ("type", "name", "josephson_energy_mhz", "charging_energy_mhz", "g1_mhz",
                     "g2_mhz"), where)
        return {
            "type": "transmon",
            "name": name,
            "josephson_energy": _mhz(raw, "josephson_energy_mhz", where, _positive),
            "charging_energy": _mhz(raw, "charging_energy_mhz", where, _positive),
            "g1": _mhz(raw, "g1_mhz", where),
            "g2": _mhz(raw, "g2_mhz", where),
        }
    raise ConfigError(f"{where}.type: unknown device type {kind!r}")


def parse_config(tree, name="config"):
    """Validate a configuration tree into a ScenarioConfig (rad/us units)."""
    if not isinstance(tree, dict):
        raise ConfigError("top level: expected a JSON object")
    _known(tree, ("name", "description", "devices", "bus", "targets", "pulse", "analysis",
                  "validation", "output_dir"), "top level")
    name = tree.get("name", name)
    if not isinstance(name, str):
        raise ConfigError(f"name: expected a string, got {name!r}")

    raw_devices = _require(tree, "devices", "top level")
    if not isinstance(raw_devices, list) or not raw_devices:
        raise ConfigError("devices: expected a non-empty list")
    devices = tuple(_parse_device(d, i) for i, d in enumerate(raw_devices))

    bus = _section(tree, "bus", ("resonator1_mhz", "resonator2_mhz", "kappa1_mhz",
                                 "kappa2_mhz"), required=True)
    resonator1 = _mhz(bus, "resonator1_mhz", "bus")
    raw_r2 = _require(bus, "resonator2_mhz", "bus")
    if raw_r2 == "auto-parity":
        resonator2 = "auto-parity"
    elif _is_number(raw_r2) and math.isfinite(raw_r2 * MHZ):
        resonator2 = float(raw_r2) * MHZ
    else:
        raise ConfigError(f"bus.resonator2_mhz: expected a number or 'auto-parity', got {raw_r2!r}")
    kappa1 = _rate(bus, "kappa1_mhz", "bus")
    kappa2 = _rate(bus, "kappa2_mhz", "bus")
    kappa = max(kappa1, kappa2)

    chi_targets = None
    if tree.get("targets") is not None:    # null means absent
        targets = _section(tree, "targets", ("chi1_over_kappa", "chi2_over_kappa"))
        # stored in units of kappa: (x * kappa) / kappa need not round-trip to x
        chi_targets = (_number(targets, "chi1_over_kappa", "targets", scale=kappa),
                       _number(targets, "chi2_over_kappa", "targets", scale=kappa))

    raw_pulse = _section(tree, "pulse", ("amplitude", "ramp", "t_on", "t_off", "time_unit"),
                         required=True)
    amplitude = _number(raw_pulse, "amplitude", "pulse")
    drive = amplitude * math.sqrt(kappa)
    if not math.isfinite(drive * drive):
        raise ConfigError(f"pulse.amplitude: {amplitude!r} sqrt(kappa) drives a photon "
                          f"flux beyond the float range")
    pulse = PulseConfig(
        amplitude=amplitude,
        ramp=_number(raw_pulse, "ramp", "pulse"),
        t_on=_number(raw_pulse, "t_on", "pulse"),
        t_off=_number(raw_pulse, "t_off", "pulse"),
        time_unit=raw_pulse.get("time_unit", "1/kappa"),
    )
    if pulse.time_unit not in ("1/kappa", "us"):
        raise ConfigError(f"pulse.time_unit: unknown unit {pulse.time_unit!r}")
    try:
        pulse.resolve(1.0)      # the pulse-shape checks are scale-free
    except ValueError as exc:
        raise ConfigError(f"pulse: {exc}") from exc
    if not pulse.ramp * pulse.time_scale(kappa) > 0:
        raise ConfigError(f"pulse.ramp: {pulse.ramp!r} {pulse.time_unit} underflows to 0 us")

    raw_analysis = _section(tree, "analysis", ("measurement_time", "time_unit", "tau_points",
                                               "phase", "sweep"))
    raw_sweep = _section(raw_analysis, "sweep", ("minimum", "maximum", "points",
                                                 "asymmetric_chi2"), "analysis.")
    # in units of kappa, like the targets
    sweep = SweepConfig(
        minimum=_number(raw_sweep, "minimum", "analysis.sweep", 0.1, scale=kappa),
        maximum=_number(raw_sweep, "maximum", "analysis.sweep", 1.2, scale=kappa),
        points=_integer(raw_sweep, "points", "analysis.sweep", 61, 1, SWEEP_POINTS_MAX),
        asymmetric_chi2=_number(raw_sweep, "asymmetric_chi2", "analysis.sweep", 0.3,
                                scale=kappa),
    )
    if sweep.minimum <= 0 or sweep.maximum < sweep.minimum:
        raise ConfigError("analysis.sweep: invalid range")
    phase = raw_analysis.get("phase", "optimal")
    if phase != "optimal" and not (_is_number(phase) and math.isfinite(phase)):
        raise ConfigError(
            f"analysis.phase: expected a number or 'optimal', got {phase!r}")
    time_unit = raw_analysis.get("time_unit", "1/kappa")
    if time_unit not in ("1/kappa", "us"):
        raise ConfigError(f"analysis.time_unit: unknown unit {time_unit!r}")
    analysis = AnalysisConfig(
        measurement_time=_positive(raw_analysis, "measurement_time", "analysis", 28.0),
        time_unit=time_unit,
        tau_points=_integer(raw_analysis, "tau_points", "analysis", 57, 3, TAU_POINTS_MAX),
        phase=phase,
        sweep=sweep,
    )
    if not analysis.resolve_measurement_time(kappa) > 0:
        raise ConfigError(f"analysis.measurement_time: {analysis.measurement_time!r} "
                          f"{time_unit} underflows to 0 us")
    # RK4 steps of one trajectory at the default dt, rounded as evolve rounds them
    steps = analysis.resolve_measurement_time(kappa) / (DEFAULT_STEP_FACTOR / kappa)
    if steps > RK4_STEP_BUDGET + 0.5:
        raise ConfigError(
            f"analysis.measurement_time: {analysis.measurement_time!r} {time_unit} needs "
            f"{steps:.7g} RK4 steps at dt = {DEFAULT_STEP_FACTOR:g}/kappa, above the budget "
            f"of {RK4_STEP_BUDGET:.0e}")
    raw_validation = _section(tree, "validation", ("coupling_ratio", "charge_cutoff",
                                                   "dispersion_grid"))
    validation = ValidationConfig(
        coupling_ratio=_number(raw_validation, "coupling_ratio", "validation", 0.05),
        # room for one cutoff + 4 convergence probe below the ceiling
        charge_cutoff=_integer(raw_validation, "charge_cutoff", "validation", 12, 8,
                               CHARGE_CUTOFF_CEILING - 4),
        dispersion_grid=_integer(raw_validation, "dispersion_grid", "validation", 21,
                                 DISPERSION_GRID_MIN, DISPERSION_GRID_MAX),
    )
    if validation.coupling_ratio < COUPLING_RATIO_MIN:
        raise ConfigError(f"validation.coupling_ratio: expected at least "
                          f"{COUPLING_RATIO_MIN:g}, got {validation.coupling_ratio!r}")
    output_dir = tree.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a path string, got {output_dir!r}")

    return ScenarioConfig(
        name=name,
        devices=devices,
        resonator1=resonator1,
        resonator2=resonator2,
        kappa1=kappa1,
        kappa2=kappa2,
        chi_targets=chi_targets,
        pulse=pulse,
        analysis=analysis,
        validation=validation,
        output_dir=output_dir,
    )


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
        "pulse": {"amplitude": 0.5, "ramp": 4.0, "t_on": 1.0, "t_off": 16.0,
                  "time_unit": "1/kappa"},
        "analysis": {"measurement_time": 28.0, "time_unit": "1/kappa",
                     "tau_points": 57, "phase": "optimal",
                     "sweep": {"minimum": 0.1, "maximum": 1.2, "points": 61,
                               "asymmetric_chi2": 0.3}},
        "output_dir": "out",
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
        "pulse": {"amplitude": 0.5, "ramp": 4.0, "t_on": 1.0, "t_off": 16.0,
                  "time_unit": "1/kappa"},
        "analysis": {"measurement_time": 28.0},
        "output_dir": "out",
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

@dataclass(frozen=True)
class QubitResult:
    name: str
    model: object
    g1: float
    g2: float
    purcell: object


@dataclass(frozen=True)
class ScenarioReport:
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
