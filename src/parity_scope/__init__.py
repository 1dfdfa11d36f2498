"""Simulation and analysis toolkit for direct three-qubit dispersive parity readout.

The public names below are loaded on first access (PEP 562), so importing
the package, or one submodule, loads only what that code path needs:
``scenario-list`` and ``dispersive`` run on the stdlib alone, ``simulate``
and ``sweep`` add numpy, and ``validate`` numpy and scipy's LAPACK alone.
"""

import importlib

from . import errors

__version__ = "0.1.0"

_EXPORTS = {
    "dispersive": (
        "CapacitanceInverse", "DispersiveModel", "DressedTcq", "LinePlacement",
        "ParityDetunings", "PurcellEstimate", "QubitCavityCoupling",
        "StateResolvedShifts", "TcqSpec", "TransmonSpec", "capacitance_inverse",
        "capacitance_matrix", "coupling_at_position", "dressed_sign_flip_couplings",
        "effective_couplings", "parity_detunings", "purcell_time", "sign_flip_couplings",
        "solve_couplings_for_chi", "tcq_dispersive", "tcq_mixing", "tcq_state_shifts",
        "transmon_dispersive", "transmon_levels",
    ),
    "measurement": ("DrivePulse", "MeasurementSetup"),
    "dynamics": (
        "Trajectory", "drive_envelope", "evolve", "output_field",
        "reflection", "steady_state",
    ),
    "inference": (
        "InfoGainReport", "SignalModel", "analyze_trajectories", "chi_sweep",
        "conditional_density", "info_gains", "integrated_signal", "measurement_rates",
        "optimal_phase", "posteriors",
    ),
    "spectral": (
        "ChargeBasisConfig", "ChiOracleReport", "DressedCheckReport", "LadderConfig",
        "charge_dispersion", "chi_oracle", "dressed_tcq_check", "switch_splitting",
        "tcq_charge_spectrum", "transmon_charge_spectrum",
    ),
    "config": ("ScenarioConfig", "derive_scenario", "load_config", "preset"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
