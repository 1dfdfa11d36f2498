"""Records of one measurement: the drive pulse, the resonator bus with its
dispersive model, and the integrator's step defaults.

Plain stdlib, so that ``config`` can build and check them at parse time
without loading numpy; ``dynamics`` integrates them.
"""

from __future__ import annotations

from .records import Record

# integrator defaults: classical fixed-step RK4, dt = 1e-3 / kappa, half-step
# convergence probe on by default
DEFAULT_STEP_FACTOR = 1e-3
# most default-dt steps one trajectory may take: 1000/kappa, 36x the paper's
# 28/kappa horizon; configurations asking for more are refused at parse time
RK4_STEP_BUDGET = 10 ** 6


class DrivePulse(Record):
    """Piecewise cosine-ramped measurement pulse.

    Zero before ``t_on``, cosine ramp of duration ``ramp`` up to ``amplitude``,
    flat until ``t_off``, cosine ramp back to zero.  The envelope is C^1 at
    all four joints.
    """

    amplitude: float
    ramp: float
    t_on: float
    t_off: float

    def __post_init__(self):
        if self.ramp <= 0:
            raise ValueError("ramp duration must be positive")
        if self.t_on < 0:
            raise ValueError("t_on must be >= 0")
        if self.t_on + self.ramp > self.t_off:
            raise ValueError("ramp must finish before t_off")


class MeasurementSetup(Record):
    """Resonator bus, drive-frame detunings, dispersive model and pulse."""

    kappa1: float
    kappa2: float
    detuning1: float
    detuning2: float
    model: "DispersiveModel"
    pulse: DrivePulse

    def __post_init__(self):
        if self.kappa1 < 0 or self.kappa2 < 0 or self.kappa1 + self.kappa2 == 0:
            raise ValueError("decay rates must be >= 0 and not both zero")

    @property
    def kappa_scale(self):
        return max(self.kappa1, self.kappa2)
