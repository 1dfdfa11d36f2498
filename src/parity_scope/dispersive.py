"""Effective dispersive models for transmons and tunable-coupling qubits (TCQs).

All frequencies in this module are angular (rad per time unit); any consistent
time unit works.  Detunings follow the qubit-minus-resonator convention,
``Delta_i = Omega - omega_i``, for both the transmon and the dressed TCQ.

The key outputs are ``DispersiveModel`` records holding the two dispersive
shifts ``chi1, chi2`` and the qubit-state-dependent resonator-resonator
coupling ``chi12`` ("quantum switch"), plus its state-independent companion.
For a transmon ``chi12^2 >= chi1*chi2`` always, which makes the two-resonator
parity condition unsatisfiable; a TCQ with selectively sign-flipped bare
couplings cancels ``chi12`` exactly while keeping ``chi1, chi2`` finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .errors import (
    DegenerateDenominator,
    NegativeDiscriminant,
    ParityConditionUnsatisfiable,
    ShiftOverflow,
    SingularCapacitanceMatrix,
)

# SI elementary charge (C) and reduced Planck constant (J s), from the exact SI e and h
_ELEMENTARY_CHARGE = 1.602176634e-19
_HBAR = 1.0545718176461565e-34

# |g/Delta| (and |sqrt(2) g/(Delta+delta)|) above this only warns, never raises:
# users may deliberately probe the breakdown of the dispersive approximation.
DISPERSIVE_RATIO_LIMIT = 0.3
# E_J/E_C at and above which a transmon counts as charge-insensitive.
CHARGE_INSENSITIVE_RATIO = 20.0
# Largest per-island charge cutoff (basis -n..n) of the charge-basis oracles
# in ``spectral``; here so that ``config`` can check it without scipy.
CHARGE_CUTOFF_CEILING = 44
# Resonance guard: denominators smaller than this fraction of the
# anharmonicity scale raise DegenerateDenominator.
DENOMINATOR_RTOL = 1e-9


def _guard_denominator(value, scale, what):
    if abs(value) < DENOMINATOR_RTOL * scale:
        raise DegenerateDenominator(
            f"{what} = {value:.3e} is within {DENOMINATOR_RTOL:.0e} * {scale:.3e} of resonance"
        )


def _require_finite(record):
    """Raise ShiftOverflow at the first float field of a model or shift
    record that is not finite."""
    for field in fields(record):
        value = getattr(record, field.name)
        if field.type == "float" and not math.isfinite(value):
            raise ShiftOverflow(f"{field.name} = {value}: the dispersive model leaves "
                                "the float range")


def _duffing_factor(detuning, anharmonicity):
    """``1/Delta - 1/(Delta + delta)``, the k of a Duffing branch's ``chi = g^2 k``."""
    return 1.0 / detuning - 1.0 / (detuning + anharmonicity)


def _branch_shifts(g, k):
    """``(g1^2 k1, g2^2 k2, g1 g2 (k1 + k2)/2)``: the second-order shifts one
    qubit branch with couplings ``g`` and per-resonator factors ``k`` gives two
    resonators, so one branch alone has ``chi12^2 >= chi1 chi2``.  The pair term
    is a product: a coupling ratio overflows near the float floor."""
    return g[0] * g[0] * k[0], g[1] * g[1] * k[1], 0.5 * g[0] * g[1] * (k[0] + k[1])


# ---------------------------------------------------------------------------
# transmon
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransmonSpec:
    """Bare transmon energies (angular frequency units, hbar = 1)."""

    josephson_energy: float
    charging_energy: float

    def __post_init__(self):
        if self.josephson_energy <= 0:
            raise ValueError("josephson_energy must be positive")
        if self.charging_energy <= 0:
            raise ValueError("charging_energy must be positive")

    @property
    def energy_ratio(self):
        return self.josephson_energy / self.charging_energy

    @property
    def charge_insensitive(self):
        return self.energy_ratio >= CHARGE_INSENSITIVE_RATIO

    @property
    def warnings(self):
        if self.charge_insensitive:
            return ()
        return (
            f"E_J/E_C = {self.energy_ratio:.2f} < {CHARGE_INSENSITIVE_RATIO:.0f}: "
            "outside the charge-insensitive regime",
        )


def transmon_levels(spec):
    """Duffing frequency and anharmonicity of a transmon.

    Returns ``(omega_t, delta)`` with ``omega_t = sqrt(8 E_C E_J) - E_C`` and
    ``delta = -E_C``.
    """
    omega_t = math.sqrt(8.0 * spec.charging_energy * spec.josephson_energy) - spec.charging_energy
    return omega_t, -spec.charging_energy


@dataclass(frozen=True)
class QubitCavityCoupling:
    """Linear couplings and qubit-resonator detunings for one transmon.

    ``detuning_i = Omega_e - omega_i`` where ``Omega_e`` is the qubit's g-e
    transition frequency and ``omega_i`` the bare frequency of resonator i.
    """

    g1: float
    g2: float
    detuning1: float
    detuning2: float

    def dispersive_ratios(self, anharmonicity):
        """The four small parameters of the dispersive expansion."""
        return (
            abs(self.g1 / self.detuning1),
            abs(self.g2 / self.detuning2),
            abs(math.sqrt(2.0) * self.g1 / (self.detuning1 + anharmonicity)),
            abs(math.sqrt(2.0) * self.g2 / (self.detuning2 + anharmonicity)),
        )


@dataclass(frozen=True)
class DispersiveModel:
    """Effective two-level + two-resonator model parameters.

    ``quantum_switch`` multiplies ``sigma_z (a1 a2^dag + h.c.)`` and
    ``static_switch`` the qubit-state-independent resonator coupling.
    """

    qubit_frequency: float
    resonator1_frequency: float
    resonator2_frequency: float
    chi1: float
    chi2: float
    static_switch: float
    quantum_switch: float
    source: str = "manual"
    warnings: tuple = ()

    def __post_init__(self):
        _require_finite(self)
        if self.source not in ("transmon", "tcq", "manual"):
            raise ValueError(f"unknown source tag {self.source!r}")


def transmon_dispersive(spec, coupling):
    """Second-order effective model of one transmon coupled to two resonators.

    The three lowest transmon levels enter the elimination; the result is the
    qubit-subspace model with ``k_i = 1/Delta_i - 1/(Delta_i + delta)`` and

        chi_i   = g_i^2 k_i,
        chi12   = g1 g2 (k1 + k2) / 2,
        chibar12 = -(g1 g2/2)(1/(Delta_1+delta) + 1/(Delta_2+delta)),

    dressed qubit frequency ``Omega_e + sum_i g_i^2/Delta_i`` and effective
    resonator frequencies ``omega_i - g_i^2/(Delta_i+delta)``.

    Raises DegenerateDenominator if any of Delta_i, Delta_i+delta sits within
    ``1e-9 * |delta|`` of zero.
    """
    omega_t, delta = transmon_levels(spec)
    g = (coupling.g1, coupling.g2)
    det = (coupling.detuning1, coupling.detuning2)
    scale = abs(delta)
    for i in range(2):
        _guard_denominator(det[i], scale, f"Delta_{i + 1}")
        _guard_denominator(det[i] + delta, scale, f"Delta_{i + 1} + delta")

    chi1, chi2, chi12 = _branch_shifts(g, [_duffing_factor(d, delta) for d in det])
    pull1, pull2, static12 = _branch_shifts(g, [-1.0 / (d + delta) for d in det])

    warnings = list(spec.warnings)
    for ratio, label in zip(
        coupling.dispersive_ratios(delta),
        ("|g1/Delta1|", "|g2/Delta2|", "|sqrt2 g1/(Delta1+delta)|", "|sqrt2 g2/(Delta2+delta)|"),
    ):
        if ratio >= DISPERSIVE_RATIO_LIMIT:
            warnings.append(f"dispersive ratio {label} = {ratio:.3f} >= {DISPERSIVE_RATIO_LIMIT}")

    return DispersiveModel(
        qubit_frequency=omega_t + g[0] * g[0] / det[0] + g[1] * g[1] / det[1],
        resonator1_frequency=(omega_t - det[0]) + pull1,
        resonator2_frequency=(omega_t - det[1]) + pull2,
        chi1=chi1,
        chi2=chi2,
        static_switch=static12,
        quantum_switch=chi12,
        source="transmon",
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# TCQ
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TcqSpec:
    """Two capacitively coupled Duffing modes (bare frame).

    ``transverse_coupling`` is the photon-hopping amplitude J between the two
    modes.  Anharmonicities must be non-positive.
    """

    omega_plus: float
    omega_minus: float
    delta_plus: float
    delta_minus: float
    transverse_coupling: float

    def __post_init__(self):
        if self.delta_plus > 0 or self.delta_minus > 0:
            raise ValueError("anharmonicities must be <= 0")


@dataclass(frozen=True)
class DressedTcq:
    """Normal-form parameters of the diagonalized TCQ.

    The resonators are not part of it: the shift functions below take their
    bare frequencies ``resonators = (omega1, omega2)``, which define the
    detunings ``Delta_{i,pm} = omega_pm - omega_i``, and the dressed couplings
    ``couplings = (g1_plus, g1_minus, g2_plus, g2_minus)``.
    """

    mixing_angle: float
    mode_detuning: float  # zeta = omega_+ - omega_- - 2(delta_+ - delta_-)
    omega_plus: float
    omega_minus: float
    delta_plus: float
    delta_minus: float
    delta_cross: float
    warnings: tuple = ()


def tcq_mixing(spec):
    """Diagonalize the linear TCQ coupling and build the normal form.

    The mixing angle is ``lambda = arctan(-2J / zeta) / 2`` with
    ``zeta = omega_+ - omega_- - 2(delta_+ - delta_-)``; at ``zeta = 0`` the
    limit ``lambda = -sign(J) pi/4`` applies.  Dressed quantities:

        omega_pm = (omega_+ + omega_-)/2 +/- (omega_+ - omega_-) cos(2l)/2
                   -/+ J sin(2l)
        delta_pm = (delta_+ + delta_-)(1 + cos^2 2l)/4
                   +/- (delta_+ - delta_-) cos(2l)/2
        delta_cross = (delta_+ + delta_-) sin^2(2l)/2

    The anharmonicity transformation follows from rotating the quartic terms
    into the normal modes (delta_pm are the c^4/s^4 combinations); it has the
    exact limits delta_pm -> delta_pm at J = 0 and (delta_+ + delta_-)/4 at
    resonance, both confirmed against exact diagonalization.
    """
    zeta = spec.omega_plus - spec.omega_minus - 2.0 * (spec.delta_plus - spec.delta_minus)
    J = spec.transverse_coupling
    if zeta == 0.0:
        angle = 0.0 if J == 0.0 else -math.copysign(math.pi / 4.0, J)
    else:
        angle = 0.5 * math.atan(-2.0 * J / zeta)
    c2, s2 = math.cos(2.0 * angle), math.sin(2.0 * angle)

    half_sum = 0.5 * (spec.omega_plus + spec.omega_minus)
    half_diff = 0.5 * (spec.omega_plus - spec.omega_minus)
    omega_plus = half_sum + half_diff * c2 - J * s2
    omega_minus = half_sum - half_diff * c2 + J * s2

    anh_sum = spec.delta_plus + spec.delta_minus
    anh_diff = spec.delta_plus - spec.delta_minus
    delta_plus = anh_sum * (1.0 + c2 * c2) / 4.0 + anh_diff * c2 / 2.0
    delta_minus = anh_sum * (1.0 + c2 * c2) / 4.0 - anh_diff * c2 / 2.0
    delta_cross = anh_sum * s2 * s2 / 2.0

    warnings = []
    split = omega_plus - omega_minus
    if split != 0.0:
        worst = max(abs(spec.delta_plus / split), abs(spec.delta_minus / split))
        if worst >= DISPERSIVE_RATIO_LIMIT:
            warnings.append(
                f"|delta/(omega_+ - omega_-)| = {worst:.3f} >= {DISPERSIVE_RATIO_LIMIT}: "
                "normal-form accuracy degrades"
            )
    elif spec.delta_plus != 0.0 or spec.delta_minus != 0.0:
        warnings.append("dressed modes are degenerate; normal form invalid")

    return DressedTcq(
        mixing_angle=angle,
        mode_detuning=zeta,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        delta_plus=delta_plus,
        delta_minus=delta_minus,
        delta_cross=delta_cross,
        warnings=tuple(warnings),
    )


def effective_couplings(dressed, bare):
    """Rotate the bare resonator couplings into the dressed TCQ basis.

    ``bare = (g1_+, g1_-, g2_+, g2_-)`` turns into the dressed
    ``(g1_plus, g1_minus, g2_plus, g2_minus)`` by the same unitary rotation as
    the mode operators,

        g_plus  = g_+ cos(l) - g_- sin(l)
        g_minus = g_+ sin(l) + g_- cos(l),

    which preserves g_+^2 + g_-^2.
    """
    c, s = math.cos(dressed.mixing_angle), math.sin(dressed.mixing_angle)
    g1p, g1m, g2p, g2m = bare
    return (g1p * c - g1m * s, g1p * s + g1m * c, g2p * c - g2m * s, g2p * s + g2m * c)


@dataclass(frozen=True)
class StateResolvedShifts:
    """Resonator shifts and switch couplings resolved by TCQ qubit state.

    ``*_excited`` refers to the qubit state |0+1->, ``*_ground`` to |0+0->.
    The ground-state entries are defined positive-sum (they enter the
    Hamiltonian with a minus sign on the ground projector).
    """

    chi1_excited: float
    chi1_ground: float
    chi2_excited: float
    chi2_ground: float
    chi12_excited: float
    chi12_ground: float

    def __post_init__(self):
        _require_finite(self)


def tcq_state_shifts(dressed, resonators, couplings):
    """Second-order shifts of both resonators for the two TCQ qubit states.

    ``resonators = (omega1, omega2)`` are the bare resonator frequencies and
    ``couplings = (g1_plus, g1_minus, g2_plus, g2_minus)`` the dressed
    couplings.  Each state is the sum of the minus- and plus-branch
    ``_branch_shifts``, with factors for resonator i at detunings
    D_pm = omega_pm_dressed - omega_i

        excited:  k_- = 1/D_- - 2/(D_- + delta_-),   k_+ = -1/(D_+ + delta_c)
        ground:   k_- = 1/D_-,                       k_+ = 1/D_+
    """
    g1p, g1m, g2p, g2m = couplings
    gp, gm = (g1p, g2p), (g1m, g2m)
    dp = [dressed.omega_plus - omega for omega in resonators]
    dm = [dressed.omega_minus - omega for omega in resonators]
    anh_scale = max(abs(dressed.delta_plus), abs(dressed.delta_minus),
                    abs(dressed.delta_cross))
    if anh_scale == 0.0:
        anh_scale = max(abs(dp[0]), abs(dm[0]))
    for i in range(2):
        _guard_denominator(dp[i], anh_scale, f"Delta_{i + 1}+")
        _guard_denominator(dm[i], anh_scale, f"Delta_{i + 1}-")
        _guard_denominator(dm[i] + dressed.delta_minus, anh_scale, f"Delta_{i + 1}- + delta_-")
        _guard_denominator(dp[i] + dressed.delta_plus, anh_scale, f"Delta_{i + 1}+ + delta_+")
        _guard_denominator(dp[i] + dressed.delta_cross, anh_scale, f"Delta_{i + 1}+ + delta_c")

    # excited |0+1->: the minus branch holds the excitation and the plus
    # branch sees it through delta_c; ground |0+0->: both branches empty
    excited = [m + p for m, p in zip(
        _branch_shifts(gm, [1.0 / d - 2.0 / (d + dressed.delta_minus) for d in dm]),
        _branch_shifts(gp, [-1.0 / (d + dressed.delta_cross) for d in dp]))]
    ground = [m + p for m, p in zip(_branch_shifts(gm, [1.0 / d for d in dm]),
                                    _branch_shifts(gp, [1.0 / d for d in dp]))]
    return StateResolvedShifts(
        chi1_excited=excited[0], chi1_ground=ground[0],
        chi2_excited=excited[1], chi2_ground=ground[1],
        chi12_excited=excited[2], chi12_ground=ground[2],
    )


def tcq_dispersive(dressed, resonators, couplings):
    """Qubit-subspace model of a TCQ on two resonators.

    Takes the ``tcq_state_shifts`` arguments and folds the state-resolved
    shifts: chi_i = (chi_i(excited) + chi_i(ground))/2, and the same half-sum
    / half-difference combinations for the switch couplings and effective
    resonator frequencies.  The dressed qubit frequency picks up the minus
    -branch Lamb shifts, ``omega_minus + sum_i g_{i-}^2 / D_{i-}``.
    """
    shifts = tcq_state_shifts(dressed, resonators, couplings)
    chi1 = 0.5 * (shifts.chi1_excited + shifts.chi1_ground)
    chi2 = 0.5 * (shifts.chi2_excited + shifts.chi2_ground)
    quantum_switch = 0.5 * (shifts.chi12_excited + shifts.chi12_ground)
    static_switch = 0.5 * (shifts.chi12_excited - shifts.chi12_ground)

    lamb = sum(g * g / (dressed.omega_minus - omega)
               for g, omega in zip(couplings[1::2], resonators))
    return DispersiveModel(
        qubit_frequency=dressed.omega_minus + lamb,
        resonator1_frequency=resonators[0] + 0.5 * (shifts.chi1_excited - shifts.chi1_ground),
        resonator2_frequency=resonators[1] + 0.5 * (shifts.chi2_excited - shifts.chi2_ground),
        chi1=chi1,
        chi2=chi2,
        static_switch=static_switch,
        quantum_switch=quantum_switch,
        source="tcq",
        warnings=dressed.warnings,
    )


def sign_flip_couplings(g1, g2):
    """Bare couplings implementing the switch-cancelling sign flip.

    Resonator 1 couples to the dressed minus branch and resonator 2 to the
    plus branch (at l = pi/4 this leaves ``g1_plus = g2_minus = 0``).
    Returns ``(g1_plus, g1_minus, g2_plus, g2_minus)``.
    """
    return (g1, g1, g2, -g2)


def dressed_sign_flip_couplings(g1, g2):
    """Dressed couplings of the sign-flip configuration at mixing angle pi/4.

    Returns ``(g1_plus, g1_minus, g2_plus, g2_minus)`` in the dressed basis
    with the cancelled branches exactly zero (rotating the bare couplings
    numerically would leave ~1 ulp residues from cos(pi/4) - sin(pi/4)).
    """
    root2 = math.sqrt(2.0)
    return (0.0, root2 * g1, root2 * g2, 0.0)


def solve_couplings_for_chi(targets, dressed, resonators):
    """Invert the zero-switch shift formulas for the bare couplings.

    ``targets = (chi1, chi2)`` are the desired dispersive shifts in the
    sign-flip configuration at mixing angle pi/4, where each resonator talks
    to exactly one dressed branch, and ``resonators = (omega1, omega2)``.
    Resonator 1 drives minus-branch transitions and resonator 2 plus-branch
    ones:

        chi1 = 2 g1^2 k(D_1-, delta_-)
        chi2 =   g2^2 k(D_2+, delta_c)

    with the Duffing factor ``k(D, delta) = 1/D - 1/(D + delta)`` (the
    dressed couplings are sqrt(2) g at pi/4).  Raises DegenerateDenominator
    when D or D + delta sits within ``1e-9 * |delta|`` of zero, and
    NegativeDiscriminant when a target sign cannot be produced by the
    branch's factor, or the factor rounds to 0.
    """
    if abs(abs(dressed.mixing_angle) - math.pi / 4.0) > 1e-6:
        raise ValueError("sign-flip inversion assumes mixing angle pi/4 "
                         f"(got {dressed.mixing_angle:.6f})")

    (chi1, chi2), (omega1, omega2) = targets, resonators
    couplings = []
    for i, chi, d, delta, weight, branch in (
            (1, chi1, dressed.omega_minus - omega1, dressed.delta_minus, 1.0, "minus"),
            (2, chi2, dressed.omega_plus - omega2, dressed.delta_cross, 0.5, "plus")):
        _guard_denominator(d, abs(delta), f"Delta_{i} ({branch} branch)")
        _guard_denominator(d + delta, abs(delta), f"Delta_{i} + delta ({branch} branch)")
        factor = weight * _duffing_factor(d, delta)
        if factor == 0.0 or chi / factor < 0.0:
            raise NegativeDiscriminant(
                f"chi{i} = {chi:.3e} incompatible with {branch}-branch factor {factor:.3e}")
        couplings.append(math.sqrt(chi / factor / 2.0))  # bare g = g_dressed / sqrt(2)
    return tuple(couplings)


# ---------------------------------------------------------------------------
# parity condition and Purcell estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityDetunings:
    """Both sign branches of the parity-condition drive detunings.

    Detunings are quoted as drive-minus-resonator, ``omega_drive - omega_i``;
    ``degenerate`` marks the boundary chi1*chi2 = chi12^2 where even and odd
    reflection coincide.
    """

    plus_branch: tuple
    minus_branch: tuple
    degenerate: bool = False


def parity_detunings(model, kappa1, kappa2):
    """Drive detunings that collapse the reflection onto parity only.

        Delta_d1 = +/- sqrt(3) sqrt(kappa1/kappa2) s,
        Delta_d2 = -/+ sqrt(3) sqrt(kappa2/kappa1) s,
        s = sqrt(chi1 chi2 - chi12^2).

    Raises ParityConditionUnsatisfiable when chi1*chi2 - chi12^2 < 0 (the
    detunings would be complex); at the exact boundary returns (0, 0) flagged
    degenerate.  Raises ShiftOverflow when chi1*chi2 or chi12^2 overflows, as
    ``inf - inf`` would otherwise read as that boundary.
    """
    if kappa1 <= 0 or kappa2 <= 0:
        raise ValueError("kappa1, kappa2 must be positive")
    chi1, chi2, chi12 = model.chi1, model.chi2, model.quantum_switch
    product, square = chi1 * chi2, chi12 * chi12
    if not (math.isfinite(product) and math.isfinite(square)):
        raise ShiftOverflow(f"chi1*chi2 = {product:.3e} and chi12^2 = {square:.3e}: "
                            "the parity condition leaves the float range")
    disc = product - square
    tol = 64.0 * sys.float_info.epsilon * max(abs(product), square)
    if disc < -tol:
        raise ParityConditionUnsatisfiable(
            f"chi12^2 - chi1*chi2 = {-disc:.3e} > 0: parity detunings would be complex")
    if disc <= tol:
        return ParityDetunings((0.0, 0.0), (0.0, 0.0), degenerate=True)
    s = math.sqrt(disc)
    d1 = math.sqrt(3.0) * math.sqrt(kappa1 / kappa2) * s
    d2 = math.sqrt(3.0) * math.sqrt(kappa2 / kappa1) * s
    return ParityDetunings((d1, -d2), (-d1, d2))


@dataclass(frozen=True)
class PurcellEstimate:
    """Qubit lifetime through the readout resonator's decay channel.

    ``time`` is in the inverse units of kappa; ``dimensionless`` is T_p*kappa.
    Both are ``inf`` when the coupling vanishes.
    """

    time: float
    dimensionless: float


def purcell_time(kappa, g1, omega_minus, omega1):
    """Purcell estimate T_p = [kappa (sqrt(2) g1 / (omega_minus - omega1))^2]^-1."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    gap = omega_minus - omega1
    if g1 == 0.0:
        return PurcellEstimate(math.inf, math.inf)
    _guard_denominator(gap, abs(g1), "omega_minus - omega1")
    # a ratio too large to square reads inf, as a vanishing coupling does
    ratio = gap / (math.sqrt(2.0) * g1)
    dimensionless = ratio * ratio
    return PurcellEstimate(dimensionless / kappa, dimensionless)


# ---------------------------------------------------------------------------
# transmission-line placement and capacitance matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinePlacement:
    """A transmon capacitively tapped onto a transmission-line resonator.

    SI units throughout (meters, farads, m/s); ``wave_velocity`` sets the
    mode frequencies ``omega_n = pi n v / L`` used in the rms voltage.
    """

    length: float
    position: float
    coupling_capacitance: float
    total_capacitance: float
    capacitance_per_length: float
    mode_index: int
    cutoff_index: int
    wave_velocity: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.position <= self.length:
            raise ValueError("position must lie in [0, length]")
        if not 1 <= self.mode_index <= self.cutoff_index:
            raise ValueError("mode_index must lie in [1, cutoff_index]")
        if self.coupling_capacitance >= self.capacitance_per_length * self.length:
            raise ValueError("weak-coupling assumption C_c < c*L violated")

    @property
    def line_capacitance(self):
        return self.capacitance_per_length * self.length

    def mode_frequency(self, n=None):
        n = self.mode_index if n is None else n
        return math.pi * n * self.wave_velocity / self.length


def coupling_at_position(placement):
    """Signed qubit-mode coupling g_n(x_J), sign flipping across mode nodes.

        g_n = (2e/hbar) (C_c/C_Sigma) sqrt(hbar omega_n / (2 L c))
              * sqrt(2) cos(pi n x_J / L)
    """
    p = placement
    v_rms = math.sqrt(_HBAR * p.mode_frequency() / (2.0 * p.line_capacitance))
    profile = math.sqrt(2.0) * math.cos(math.pi * p.mode_index * p.position / p.length)
    return (2.0 * _ELEMENTARY_CHARGE / _HBAR
            * (p.coupling_capacitance / p.total_capacitance) * v_rms * profile)


def capacitance_matrix(mode_capacitances, line_capacitance, total_capacitance):
    """Bordered capacitance matrix: diag(Lc) block plus the -C_n border."""
    import numpy as np      # the package's commands never call it, so they skip numpy

    c_modes = np.asarray(mode_capacitances, dtype=float)
    n = c_modes.size
    mat = np.zeros((n + 1, n + 1))
    np.fill_diagonal(mat[:n, :n], line_capacitance)
    mat[:n, n] = -c_modes
    mat[n, :n] = -c_modes
    mat[n, n] = total_capacitance
    return mat


@dataclass(frozen=True)
class CapacitanceInverse:
    exact: np.ndarray
    approximate: np.ndarray
    deviation: float  # max-norm of (exact - approximate)
    schur_complement: float


def capacitance_inverse(mode_capacitances, line_capacitance, total_capacitance):
    """Exact block inverse of the bordered capacitance matrix vs its
    weak-coupling approximation.

    The exact inverse follows from block inversion with Schur complement
    ``Sigma = Lc*C_Sigma - sum C_n^2``; the approximation replaces Sigma by
    Lc*C_Sigma and drops the C_k C_l / (Lc C_Sigma) cross terms.  Raises
    SingularCapacitanceMatrix when Sigma <= 0.
    """
    import numpy as np

    c_modes = np.asarray(mode_capacitances, dtype=float)
    n = c_modes.size
    sigma = line_capacitance * total_capacitance - float(np.sum(c_modes ** 2))
    if sigma <= 0.0:
        raise SingularCapacitanceMatrix(f"Schur complement {sigma:.3e} <= 0")

    exact = np.zeros((n + 1, n + 1))
    exact[:n, :n] = (np.eye(n) + np.outer(c_modes, c_modes) / sigma) / line_capacitance
    exact[:n, n] = c_modes / sigma
    exact[n, :n] = c_modes / sigma
    exact[n, n] = line_capacitance / sigma

    approx = np.zeros((n + 1, n + 1))
    np.fill_diagonal(approx[:n, :n], 1.0 / line_capacitance)
    border = c_modes / (line_capacitance * total_capacitance)
    approx[:n, n] = border
    approx[n, :n] = border
    approx[n, n] = 1.0 / total_capacitance

    deviation = float(np.max(np.abs(exact - approx)))
    return CapacitanceInverse(exact, approx, deviation, sigma)
