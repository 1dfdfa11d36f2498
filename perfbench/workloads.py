"""Seeded scenario generators for the three benchmark workloads.

Each workload is an endless, seed-determined sequence of *scenarios*.  A
scenario is one or more CLI invocations ("operations") that share one
configuration file, plus the number of work items the scenario completes.
The program only ever sees the JSON files written here, through --config.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep-fig4", "validate-oracles", "design-loop")

# the 61-point chi/kappa grid of the fig4-cuts preset, as numpy.linspace
# builds it, so a two-point linspace between grid nodes hits them exactly
GRID_MIN, GRID_MAX, GRID_POINTS = 0.1, 1.2, 61
_GRID_STEP = (GRID_MAX - GRID_MIN) / (GRID_POINTS - 1)
GRID = [GRID_MIN + j * _GRID_STEP for j in range(GRID_POINTS - 1)] + [GRID_MAX]

SWEEP_POINTS_PER_CUT = 2        # two jobs per cut, so the process pool starts
SWEEP_MAX_STRIDE = 5            # node spacing <= 5 * 0.0183 < 0.1 chi/kappa
VALIDATION_CUTOFF = 12
VALIDATION_GRID = 5             # 25 offset points per charge_dispersion call
DESIGN_PERIOD = 4               # every 4th design scenario is a transmon register
# share of each scenario kind in its workload's stream
KIND_SHARE = {"sweep": 1.0, "validate": 1.0,
              "tcq": 1.0 - 1.0 / DESIGN_PERIOD, "transmon": 1.0 / DESIGN_PERIOD}

_TCQ_DEVICES = [
    {"type": "tcq", "name": name, "qubit_frequency_mhz": freq,
     "transverse_coupling_mhz": -400.0, "anharmonicity_mhz": -300.0}
    for name, freq in (("a", 6000.0), ("b", 5600.0), ("c", 5200.0))
]
_PULSE = {"amplitude": 0.5, "ramp": 4.0, "t_on": 1.0, "t_off": 16.0,
          "time_unit": "1/kappa"}
_ANALYSIS = {"measurement_time": 28.0, "time_unit": "1/kappa",
             "tau_points": 57, "phase": "optimal"}


def _tcq_scenario(name, chi1, chi2, kappa_mhz=5.0, amplitude=0.5):
    """A three-TCQ scenario in the layout of the shipped paper-sec5 presets."""
    pulse = dict(_PULSE, amplitude=amplitude)
    return {
        "name": name,
        "devices": copy.deepcopy(_TCQ_DEVICES),
        "bus": {"resonator1_mhz": 7500.0, "resonator2_mhz": "auto-parity",
                "kappa1_mhz": kappa_mhz, "kappa2_mhz": kappa_mhz},
        "targets": {"chi1_over_kappa": chi1, "chi2_over_kappa": chi2},
        "pulse": pulse,
        "analysis": copy.deepcopy(_ANALYSIS),
    }


@dataclass
class Operation:
    """One CLI invocation and the exit code a correct program returns."""

    command: str
    expected_exit: int
    extra_args: list = field(default_factory=list)


@dataclass
class Scenario:
    """One generated configuration and the operations run on it."""

    index: int
    kind: str
    config: dict
    operations: list
    items: int

    @property
    def key(self):
        return f"{self.kind}{self.index}"

    def write(self, directory):
        path = Path(directory) / f"{self.key}.json"
        path.write_text(json.dumps(self.config, indent=1) + "\n")
        return path


def _sweep_scenario(rng, index, points_per_cut):
    stride = rng.randint(1, SWEEP_MAX_STRIDE)
    span = stride * (points_per_cut - 1)
    start = rng.randrange(0, GRID_POINTS - span)
    config = _tcq_scenario(f"sweep-{index}", 0.5, 0.5)
    config["analysis"]["sweep"] = {
        "minimum": GRID[start], "maximum": GRID[start + span],
        "points": points_per_cut, "asymmetric_chi2": 0.3}
    return Scenario(index, "sweep", config, [Operation("sweep", 0)],
                    items=2 * points_per_cut)


def _validate_scenario(rng, index, grid):
    config = _tcq_scenario(f"validate-{index}", -0.5, -0.5)
    config["validation"] = {
        "coupling_ratio": round(rng.uniform(0.02, 0.1), 6),
        "charge_cutoff": VALIDATION_CUTOFF,
        "dispersion_grid": grid}
    return Scenario(index, "validate", config, [Operation("validate", 0)], items=1)


def _design_scenario(rng, index):
    if index % DESIGN_PERIOD == DESIGN_PERIOD - 1:
        ej = round(rng.uniform(15000.0, 25000.0), 3)
        ec = round(rng.uniform(250.0, 350.0), 3)
        g1 = round(rng.uniform(60.0, 120.0), 3)
        g2 = round(rng.uniform(60.0, 120.0), 3)
        config = {
            "name": f"design-{index}",
            "devices": [{"type": "transmon", "name": f"q{i}",
                         "josephson_energy_mhz": ej, "charging_energy_mhz": ec,
                         "g1_mhz": g1, "g2_mhz": g2} for i in (1, 2, 3)],
            "bus": {"resonator1_mhz": 7500.0,
                    "resonator2_mhz": round(7500.0 - rng.uniform(5.0, 15.0), 3),
                    "kappa1_mhz": 5.0, "kappa2_mhz": 5.0},
            "pulse": dict(_PULSE),
            "analysis": {"measurement_time": 28.0},
        }
        # a transmon register cannot meet the parity condition: exit 3
        return Scenario(index, "transmon", config, [Operation("dispersive", 3)],
                        items=1)
    chi1 = round(rng.uniform(-0.8, -0.2), 6)
    chi2 = round(rng.uniform(-0.8, -0.2), 6)
    kappa = round(rng.uniform(3.0, 8.0), 6)
    amplitude = round(rng.uniform(0.3, 0.7), 6)
    config = _tcq_scenario(f"design-{index}", chi1, chi2, kappa, amplitude)
    return Scenario(index, "tcq", config,
                    [Operation("dispersive", 0), Operation("simulate", 0, ["--hw", "all"])],
                    items=1)


def scenarios(workload, seed, smoke=False):
    """Endless scenario stream of one workload; the same seed gives the same stream.

    ``smoke`` shrinks every operation (one point per sweep cut, a 3x3
    offset grid) for the harness self-check; it is never used for timing.
    """
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        if workload == "sweep-fig4":
            yield _sweep_scenario(rng, index, 1 if smoke else SWEEP_POINTS_PER_CUT)
        elif workload == "validate-oracles":
            yield _validate_scenario(rng, index, 3 if smoke else VALIDATION_GRID)
        elif workload == "design-loop":
            yield _design_scenario(rng, index)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        index += 1
