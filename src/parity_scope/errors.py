"""Exception types shared across the package.

Each error class declares the command-line exit code it ends in:
2 for a bad configuration, 3 for a physics condition, 4 for a numerical
convergence failure, 5 for an output the system could not write.
"""


class ParityScopeError(Exception):
    """Base class for all package-specific errors; subclasses set ``exit_code``."""


class ConfigError(ParityScopeError):
    """Scenario configuration is missing fields or holds invalid values."""

    exit_code = 2


class DegenerateDenominator(ParityScopeError):
    """A dispersive denominator sits on (or too close to) a resonance."""

    exit_code = 3


class ParityConditionUnsatisfiable(ParityScopeError):
    """chi1*chi2 - chi12^2 <= 0: the parity detunings would be complex."""

    exit_code = 3


class NegativeDiscriminant(ParityScopeError):
    """Target shift sign is incompatible with the branch's denominator sign."""

    exit_code = 3


class ShiftOverflow(ParityScopeError):
    """A derived dispersive frequency or shift, or a product of two shifts,
    is beyond the float range: the shift diverges, as at a resonance."""

    exit_code = 3


class SingularCapacitanceMatrix(ParityScopeError):
    """The capacitance-matrix Schur complement is non-positive."""

    exit_code = 3


class ConvergenceFailure(ParityScopeError):
    """A truncation/cutoff convergence probe failed at the configured ceiling."""

    exit_code = 4


class LevelIdentificationFailure(ParityScopeError):
    """Eigenstate overlap with the expected product-state label fell below 0.5."""

    exit_code = 4


class StepTooLarge(ParityScopeError):
    """Integrator step violates the stability margin or the half-step probe."""

    exit_code = 4


class SingularResponseMatrix(ParityScopeError):
    """The 2x2 steady-state response matrix is singular (kappa = 0 edge case)."""

    exit_code = 3


class DegenerateResponse(ParityScopeError):
    """Reflection-coefficient denominator is numerically zero."""

    exit_code = 3


class GridTooCoarse(ParityScopeError):
    """A quadrature/finite-difference grid failed its refinement check."""

    exit_code = 4


class QuadratureNonconvergent(ParityScopeError):
    """Doubling the quadrature resolution moved the result beyond tolerance."""

    exit_code = 4


class NonFiniteSignal(ParityScopeError):
    """A signal mean or an information gain overflowed to inf or NaN."""

    exit_code = 4


class OutputError(ParityScopeError):
    """Writing an output failed for a reason outside the configured path, such
    as a full disk or an I/O error."""

    exit_code = 5
