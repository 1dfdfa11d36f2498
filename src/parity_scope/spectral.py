"""Exact-diagonalization references validating the perturbative models.

Three layers of brute force:

* the two-island charge-basis Hamiltonian (cosine potential as symmetric
  nearest-neighbor hopping, interaction diagonal in charge), for charge
  dispersion and level structure;
* the coupled-Duffing pair in a truncated Fock space, for the mixing-angle
  normal form (dressed frequencies/anharmonicities);
* full qubit-plus-two-cavity ladders, for extracting dispersive shifts and
  the resonator-resonator switch from raw spectra.

Every published level comes from a plain dense eigh of a real-symmetric
matrix (scipy's LAPACK, not ``scipy.linalg``); sizes stay at desk scale
(<~ 4000), where that is both adequate and easy to audit.  In the charge
basis, solves that only decide a yes/no question are replaced by Sylvester
inertia counts of H - s I from a block LDL^T (Parlett, *The Symmetric
Eigenvalue Problem*, SIAM 1998): a cutoff probe passes when the counts
certify that no level moved by more than the tolerance, and a grid point of
the charge dispersion is skipped when they certify that none of its levels
can set a max or a min.  A probe or a grid point the counts cannot certify
is solved dense, so every charge-basis level comes from the same eigh.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from functools import reduce

import numpy as np

from .dispersive import (
    CHARGE_CUTOFF_CEILING,
    DressedTcq,
    _branch_shifts,
    _duffing_factor,
    tcq_dispersive,
    tcq_mixing,
)
from .errors import ConvergenceFailure, LevelIdentificationFailure
from .matfuncs import _expm
from .records import Record, replace

CONVERGENCE_RTOL = 1e-8
OVERLAP_FLOOR = 0.5
TWIST_BLOCKS = 2                 # on each side of the middle one; see _count_below
DISPERSION_MARGIN = 100          # eps times the Gershgorin bound; see charge_dispersion
MINIMIZER_MAXFUN = 500           # evaluations; scipy's default for the bounded search


# scipy's compiled LAPACK extension: scipy.linalg's module when it is loaded,
# else its file loaded alone and taken back out of sys.modules, so that a
# later ``import scipy.linalg`` binds its own copy of the same routines
lapack = sys.modules.get("scipy.linalg._flapack")
if lapack is None:
    _spec = importlib.machinery.FileFinder(
        importlib.util.find_spec("scipy").submodule_search_locations[0] + "/linalg",
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    ).find_spec("scipy.linalg._flapack")
    _spec.loader.exec_module(lapack := importlib.util.module_from_spec(_spec))
    sys.modules.pop(_spec.name, None)


def __getattr__(name):
    # ``sla``, scipy.linalg imported on access, serves only perfbench's tracer (ROADMAP item 1)
    if name == "sla":
        return importlib.import_module("scipy.linalg")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def eigh(a, eigvals_only=False, subset_by_index=None, overwrite_a=False):
    """``scipy.linalg.eigh`` of a real-symmetric matrix by the same dsyevr
    call, so the same bits.  ValueError when ``a`` is not finite."""
    a = np.asarray_chkfinite(a)
    lwork, liwork, _ = lapack.dsyevr_lwork(n=len(a), lower=True)
    subset = {} if subset_by_index is None else dict(
        range="I", il=subset_by_index[0] + 1, iu=subset_by_index[1] + 1)
    values, vectors, m, _, info = lapack.dsyevr(
        a=a, overwrite_a=overwrite_a, **subset, lower=True,
        compute_v=0 if eigvals_only else 1, lwork=int(lwork), liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info}")
    return values[:m] if eigvals_only else (values[:m], vectors[:, :m])


# ---------------------------------------------------------------------------
# charge basis
# ---------------------------------------------------------------------------

class ChargeBasisConfig(Record):
    """Two charge islands with Josephson hopping and a charge-charge term.

    Energies are angular frequencies; ``charge_cutoff`` is the initial
    per-island cutoff (basis -n..n), raised in steps of 4 until the lowest
    levels converge or ``cutoff_ceiling`` is hit.
    """

    charging_plus: float
    charging_minus: float
    josephson_plus: float
    josephson_minus: float
    interaction: float
    offset_plus: float = 0.0
    offset_minus: float = 0.0
    charge_cutoff: int = 20
    cutoff_ceiling: int = CHARGE_CUTOFF_CEILING

    def __post_init__(self):
        if self.charge_cutoff < 8:
            raise ValueError("charge_cutoff must be at least 8")
        if self.cutoff_ceiling < self.charge_cutoff:
            raise ValueError("cutoff_ceiling below charge_cutoff")

    @property
    def charging_scale(self):
        return max(self.charging_plus, self.charging_minus)


def transmon_charge_hamiltonian(josephson, charging, offset, cutoff):
    """Single-island Hamiltonian 4 E_C (n - n_g)^2 - E_J cos(phi)."""
    n = np.arange(-cutoff, cutoff + 1, dtype=float)
    h = np.diag(4.0 * charging * (n - offset) ** 2)
    hop = -josephson / 2.0 * np.ones(2 * cutoff)
    return h + np.diag(hop, 1) + np.diag(hop, -1)


def transmon_charge_spectrum(josephson, charging, offset=0.0, cutoff=20, levels=6):
    h = transmon_charge_hamiltonian(josephson, charging, offset, cutoff)
    return eigh(h, eigvals_only=True, subset_by_index=(0, levels - 1))


def _charge_onsite(cfg, cutoff):
    """Diagonal of the two-island Hamiltonian: 4 E_C+ N+^2 + 4 E_C- N-^2 +
    4 E_I N+ N- at each basis state (n+, n-), in basis order."""
    n = np.arange(-cutoff, cutoff + 1, dtype=float)
    charge_plus, charge_minus = n - cfg.offset_plus, n - cfg.offset_minus
    onsite = (4.0 * cfg.charging_plus * charge_plus[:, None] ** 2
              + 4.0 * cfg.charging_minus * charge_minus ** 2)
    onsite += 4.0 * cfg.interaction * np.outer(charge_plus, charge_minus)
    return onsite.ravel()


def tcq_charge_hamiltonian(cfg, cutoff):
    """Two-island Hamiltonian with the 4 E_I (n+ - ng+)(n- - ng-) cross term.

    Built entry by entry; it equals H+ (x) 1 + 1 (x) H- + 4 E_I N+ (x) N-
    with each island's Hamiltonian and charge operator N = n - ng.  Basis
    state (n+, n-) sits at index (n+ + cutoff) * dim + (n- + cutoff).
    """
    dim = 2 * cutoff + 1
    h = np.diag(_charge_onsite(cfg, cutoff))
    # plus-island hopping n+ -> n+ + 1 moves by dim; minus-island hopping
    # n- -> n- + 1 moves by 1 except across the end of a row of n-
    plus = np.arange(dim * dim - dim)
    minus = np.flatnonzero(np.arange(dim * dim - 1) % dim != dim - 1)
    h[plus, plus + dim] = h[plus + dim, plus] = -cfg.josephson_plus / 2.0
    h[minus, minus + 1] = h[minus + 1, minus] = -cfg.josephson_minus / 2.0
    return h


def _lowest_levels(cfg, cutoff, levels):
    # the matrix is exactly symmetric, so its transpose holds the same bits in
    # Fortran order, which LAPACK overwrites in place instead of copying
    return eigh(tcq_charge_hamiltonian(cfg, cutoff).T, overwrite_a=True,
                eigvals_only=True, subset_by_index=(0, levels - 1))


def _charge_scale(cfg, cutoff):
    """Gershgorin bound on the spectrum of tcq_charge_hamiltonian(cfg, cutoff)."""
    onsite = np.max(np.abs(_charge_onsite(cfg, cutoff)))
    return onsite + abs(cfg.josephson_plus) + abs(cfg.josephson_minus)


def _count_below(cfg, cutoff, shifts, bounds=None):
    """Number of eigenvalues of tcq_charge_hamiltonian(cfg, cutoff) below
    each shift, or None when a count is in doubt.  With ``bounds = (low,
    high)``, the counts each shift allows, counting stops at the first shift
    whose count falls outside them: the counts so far come back, that one
    last.

    H - s I is block tridiagonal over n+: diagonal blocks A_i - s I, each the
    minus island's tridiagonal Hamiltonian at one n+, coupled by -E_J+/2
    times the identity.  A block LDL^T eliminates the blocks one at a time
    from both ends of the n+ range, with pivot blocks
    ``D_i = A_i - s I - (E_J+/2)^2 D_{i-1}^{-1}``, up to the twist: the
    2 TWIST_BLOCKS + 1 blocks around the one nearest ng+, where the low
    levels have their weight, taken with both Schur updates as one matrix.
    A pivot block turns singular where s meets an eigenvalue of the part of
    H eliminated so far, and keeping the low levels' weight in the twist
    keeps that part's spectrum away from them.  The negative eigenvalues of
    the pivot blocks and the twist add up to those of H - s I (Haynsworth's
    inertia additivity and Sylvester's law of inertia).  A pivot block is
    factored by Cholesky (dpotrf, inverted by dpotri) when it is positive
    definite and otherwise by Bunch-Kaufman (dsytrf, inverted by dsytri),
    whose 1x1 and 2x2 pivots give its inertia; the twist by Bunch-Kaufman.

    Doubt rule: the count is None when a shift is not finite, when a pivot
    block or the twist is exactly singular, or when a Schur update would
    outgrow the matrix, that is, when (E_J+/2)^2 ||D_i^{-1}||_F exceeds the
    Gershgorin bound of H.
    Every block then stays within a small multiple of that bound, so each
    count is exact for a symmetric matrix within O(dim eps bound) of H.
    """
    if not np.all(np.isfinite(shifts)):
        return None
    dim = 2 * cutoff + 1
    onsite = _charge_onsite(cfg, cutoff).reshape(dim, dim)
    scale = _charge_scale(cfg, cutoff)
    coupling = (cfg.josephson_plus / 2.0) ** 2
    middle = min(max(cutoff + round(cfg.offset_plus), TWIST_BLOCKS), dim - 1 - TWIST_BLOCKS)
    first, last = middle - TWIST_BLOCKS, middle + TWIST_BLOCKS
    # every block is Fortran-ordered, so LAPACK works on it in place, and
    # holds its upper triangle over zeros: the storage LAPACK reads and
    # writes with lower=0
    size = (last - first + 1) * dim
    twist = np.zeros((size, size), order="F")
    hops = np.arange(size - 1)
    twist[hops, hops + 1] = -cfg.josephson_minus / 2.0
    twist[hops[dim - 1::dim], hops[dim - 1::dim] + 1] = 0.0
    twist[hops[:size - dim], hops[:size - dim] + dim] = -cfg.josephson_plus / 2.0
    hop = np.asfortranarray(twist[:dim, :dim])
    # with its default workspace dsytrf runs unblocked, 1.6x slower on the twist
    lwork = int(lapack.dsytrf_lwork(size)[0])

    def block(base, update, diagonal):
        matrix = base - update
        # a view of the entries in memory order, which puts the diagonal at
        # stride len + 1 in either layout
        matrix.ravel(order="K")[::len(matrix) + 1] += diagonal
        return matrix

    counts = []
    for j, shift in enumerate(shifts):
        diagonals = onsite - shift
        below, updates = 0, []
        for chain in (range(first), range(dim - 1, last, -1)):
            update = 0.0
            for i in chain:
                factor, info = lapack.dpotrf(block(hop, update, diagonals[i]), overwrite_a=1)
                if info == 0:
                    update = lapack.dpotri(factor, overwrite_c=1)[0]
                else:
                    # dpotrf stopped part way through, so the block is built again
                    factor, pivots, info = lapack.dsytrf(
                        block(hop, update, diagonals[i]), overwrite_a=1)
                    if info != 0:
                        return None
                    below += _negative_pivots(factor, pivots)
                    update = lapack.dsytri(factor, pivots, overwrite_a=1)[0]
                # the squared Frobenius norm of the symmetric inverse
                entries, diagonal = update.ravel(order="K"), update.diagonal()
                norm2 = 2.0 * np.dot(entries, entries) - np.dot(diagonal, diagonal)
                if not coupling * coupling * norm2 <= scale * scale:
                    return None
                update *= coupling
            updates.append(update)
        inflow = np.zeros((size, size), order="F")
        inflow[:dim, :dim] = updates[0]
        inflow[-dim:, -dim:] += updates[1]
        # the twist is indefinite above the lowest level, so no Cholesky try
        factor, pivots, info = lapack.dsytrf(
            block(twist, inflow, diagonals[first:last + 1].ravel()),
            lwork=lwork, overwrite_a=1)
        if info != 0:
            return None
        counts.append(below + _negative_pivots(factor, pivots))
        if bounds is not None and not bounds[0][j] <= counts[-1] <= bounds[1][j]:
            break
    return np.array(counts)


def _certified(cfg, cutoff, lows, highs):
    """Whether inertia counts certify each level k of
    tcq_charge_hamiltonian(cfg, cutoff) in [lows[k], highs[k]).  Level k's
    two shifts sit side by side, so a level out of bounds stops the count
    early.  Only infinite bounds are skipped (a NaN one counts into doubt);
    an empty or inverted interval, a doubt, or no shift left fails."""
    shifts = np.column_stack([lows, highs]).ravel()
    kept = ~np.isinf(shifts)
    if np.any(lows >= highs) or not np.any(kept):
        return False
    level = np.arange(len(lows))
    low = np.column_stack([np.zeros(len(lows)), level + 1]).ravel()[kept]
    high = np.column_stack([level, np.full(len(lows), np.inf)]).ravel()[kept]
    counts = _count_below(cfg, cutoff, shifts[kept], (low, high))
    return (counts is not None and len(counts) == len(low)
            and bool(np.all((low <= counts) & (counts <= high))))


def _negative_pivots(factor, pivots):
    """Negative eigenvalues of D in dsytrf's upper U D U^T factor."""
    d = factor.diagonal()
    # a 2x2 block's two negative entries of ``pivots`` sit side by side
    first = np.flatnonzero(pivots < 0)[::2]
    a, c, b = d[first], d[first + 1], factor[first, first + 1]
    det = a * c - b * b
    return (int(np.count_nonzero(d[pivots > 0] < 0)) + int(np.count_nonzero(det < 0))
            + 2 * int(np.count_nonzero((det > 0) & (a + c < 0))))


def _converge_cutoff(cfg, levels):
    """The cutoff loop of tcq_charge_spectrum and charge_dispersion: the
    converged cutoff and its lowest levels.

    ``H(cutoff)`` is a principal submatrix of ``H(cutoff + 4)``, so by
    Cauchy interlacing no level falls below its baseline value by more than
    rounding; a probe at cutoff + 4 passes when an inertia count
    (_count_below) certifies that level k lies above its baseline minus the
    tolerance for every k.  Only when that certificate fails or is in doubt
    is the probe solved dense and compared level by level; a probe whose
    levels moved is the baseline of the next one.  Every level comes from
    _lowest_levels, each cutoff is solved at most once, and the levels
    returned are the dense solve at the returned cutoff.
    """
    cutoff = cfg.charge_cutoff
    values = _lowest_levels(cfg, cutoff, levels)
    tol = CONVERGENCE_RTOL * cfg.charging_scale
    # no basis above the ceiling is ever built, the probe's included
    while cutoff + 4 <= cfg.cutoff_ceiling:
        if _certified(cfg, cutoff + 4, values - tol, np.full(levels, np.inf)):
            return cutoff, values
        probe = _lowest_levels(cfg, cutoff + 4, levels)
        if np.max(np.abs(probe - values)) <= tol:
            return cutoff, values
        cutoff += 4
        values = probe
    raise ConvergenceFailure(
        f"charge-basis spectrum not converged at cutoff {cfg.cutoff_ceiling}")


def tcq_charge_spectrum(cfg, levels=6):
    """Lowest eigenvalues of the two-island Hamiltonian, cutoff-converged.

    The cutoff is raised by 4 until the requested levels move by less than
    1e-8 of the charging scale; failure at the ceiling raises
    ConvergenceFailure.
    """
    return _converge_cutoff(cfg, levels)[1]


def charge_dispersion(cfg, levels=6, grid_points=21):
    """Max-min excursion of each level over the offset-charge unit square.

    One cutoff loop (at the corner and the center of the square) fixes the
    cutoff for the whole sweep; a loop that returned that cutoff stands in
    for its grid point with its dense levels.  With identical islands,
    swapping the two offsets gives the index-swapped matrix bit for bit, so
    of each swapped pair only the point with ng+ <= ng- is visited.

    Every other point is visited after the loop's, ring by ring outward
    from the centre of the square, and skipped when inertia counts
    (_certified) put each of its levels inside the envelope of dense levels
    so far, shrunk by ``DISPERSION_MARGIN * eps`` times the Gershgorin bound
    of its matrix, a margin far above the dense solver's rounding; otherwise
    it is solved dense and widens the envelope.  A skipped point's levels
    could not have set a max or a min, so the result equals the all-dense
    loop's bit for bit in any order, and every published level is dense.
    """
    probes = {ng: _converge_cutoff(replace(cfg, offset_plus=ng, offset_minus=ng), levels)
              for ng in (0.0, 0.5)}
    cutoff = max(converged for converged, _ in probes.values())
    solved = {(ng, ng): values for ng, (converged, values) in probes.items()
              if converged == cutoff}
    swap = (cfg.charging_plus == cfg.charging_minus
            and cfg.josephson_plus == cfg.josephson_minus)
    grid = np.linspace(0.0, 1.0, grid_points).tolist()
    points = [(ng_plus, ng_minus) for i, ng_plus in enumerate(grid)
              for ng_minus in grid[i if swap else 0:]]
    points.sort(key=lambda point: (point not in solved,
                                   max(abs(point[0] - 0.5), abs(point[1] - 0.5))))
    lows = np.full(levels, np.inf)
    highs = np.full(levels, -np.inf)
    for point in points:
        vals = solved.get(point)
        if vals is None:
            probe = replace(cfg, offset_plus=point[0], offset_minus=point[1])
            margin = DISPERSION_MARGIN * np.finfo(float).eps * _charge_scale(probe, cutoff)
            if _certified(probe, cutoff, lows + margin, highs - margin):
                continue
            vals = _lowest_levels(probe, cutoff, levels)
        lows = np.minimum(lows, vals)
        highs = np.maximum(highs, vals)
    return highs - lows


# ---------------------------------------------------------------------------
# Fock-space Hamiltonians: one builder for the Duffing pair and the ladders
# ---------------------------------------------------------------------------

def _lowering(levels):
    return np.diag(np.sqrt(np.arange(1.0, levels)), 1)


def _number(levels):
    return np.diag(np.arange(float(levels)))


def _duffing(omega, delta, levels):
    """Single Duffing mode omega n + (delta / 2) n (n - 1)."""
    n = _number(levels)
    return omega * n + delta / 2.0 * (n @ n - n)


def _product(dims, factors):
    """Kronecker product over the modes of ``dims``: ``factors[mode]`` where
    given, the identity on every other mode."""
    return reduce(np.kron, [factors.get(mode, np.eye(dim)) for mode, dim in enumerate(dims)])


def _fock_hamiltonian(dims, terms, hops):
    """Sum of the ``c * product`` terms in list order, then
    ``g (b_j^dagger b_k + h.c.)`` for each nonzero exchange ``(g, j, k)``.

    The order is part of the result: floating-point sums are not
    associative, and the oracles' outputs are pinned bitwise.
    """
    h = reduce(np.add, (c * _product(dims, factors) for c, factors in terms))
    for g, j, k in hops:
        if g != 0.0:
            h += g * _exchange(dims, j, k)
    return h


def _exchange(dims, j, k):
    """b_j^dagger b_k + h.c. on the modes of ``dims``."""
    hop = _product(dims, {j: _lowering(dims[j]).T, k: _lowering(dims[k])})
    return hop + hop.T


# ---------------------------------------------------------------------------
# coupled-Duffing normal form check
# ---------------------------------------------------------------------------

def duffing_pair_hamiltonian(spec, levels):
    """Bare coupled-Duffing TCQ in a (levels x levels) Fock space."""
    return _fock_hamiltonian(
        (levels, levels),
        [(1.0, {0: _duffing(spec.omega_plus, spec.delta_plus, levels)}),
         (1.0, {1: _duffing(spec.omega_minus, spec.delta_minus, levels)})],
        [(spec.transverse_coupling, 1, 0)])


def _beam_splitter_frame(angle, levels):
    """Rotated product-state dictionary: columns of U^dagger label the
    dressed states |n+ n->.  The generator keeps n+ + n- fixed, so U is one
    stacked exponential of its excitation-manifold blocks, each zero-padded
    to levels x levels: products that small stay below OpenBLAS's threading
    threshold, where one levels^2 x levels^2 exponential set numpy's and
    scipy's BLAS threads spinning against each other."""
    size = levels * levels
    hop = _product((levels, levels), {0: _lowering(levels), 1: _lowering(levels).T})
    generator = np.zeros((size + 1, size + 1))      # the last row and column pad
    generator[:size, :size] = angle * (hop - hop.T)
    manifold = np.add.outer(np.arange(levels), np.arange(levels)).ravel()
    blocks = np.full((2 * levels - 1, levels), size)
    for n in range(2 * levels - 1):
        members = np.flatnonzero(manifold == n)
        blocks[n, :len(members)] = members
    rows, cols = blocks[:, :, None], blocks[:, None, :]
    frame = np.zeros_like(generator)
    frame[rows, cols] = _expm(generator[rows, cols])
    return frame[:size, :size].T  # real orthogonal: U^dagger = U^T


def _identify(eigvecs, target):
    overlaps = np.abs(eigvecs.T @ target)
    k = int(np.argmax(overlaps))
    if overlaps[k] < OVERLAP_FLOOR:
        raise LevelIdentificationFailure(
            f"best overlap {overlaps[k]:.3f} below {OVERLAP_FLOOR}")
    return k, float(overlaps[k])


class DressedCheckReport(Record):
    """Exact vs normal-form dressed parameters of the coupled-Duffing pair."""

    exact: dict
    perturbative: dict
    relative_errors: dict
    min_overlap: float

    @property
    def worst_error(self):
        return max(self.relative_errors.values())


def dressed_tcq_check(spec, levels=8):
    """Extract dressed frequencies/anharmonicities from exact eigenvalues.

    Labels come from maximal overlap with the beam-splitter-rotated product
    states; the extracted combinations are

        omega_pm    = E(1 0) - E(0 0), E(0 1) - E(0 0)
        delta_pm    = E(2 0) - 2 E(1 0) + E(0 0)   (and the minus analogue)
        delta_cross = E(1 1) - E(1 0) - E(0 1) + E(0 0)
    """
    if levels < 6:
        raise ValueError("need at least 6 levels per mode")
    dressed = tcq_mixing(spec)
    h = duffing_pair_hamiltonian(spec, levels)
    values, vectors = eigh(h)
    frame = _beam_splitter_frame(dressed.mixing_angle, levels)

    energies = {}
    min_overlap = 1.0
    for label in ((0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1)):
        k, overlap = _identify(vectors, frame[:, np.ravel_multi_index(label, (levels, levels))])
        energies[label] = values[k]
        min_overlap = min(min_overlap, overlap)

    e = energies
    exact = {
        "omega_plus": e[(1, 0)] - e[(0, 0)],
        "omega_minus": e[(0, 1)] - e[(0, 0)],
        "delta_plus": e[(2, 0)] - 2.0 * e[(1, 0)] + e[(0, 0)],
        "delta_minus": e[(0, 2)] - 2.0 * e[(0, 1)] + e[(0, 0)],
        "delta_cross": e[(1, 1)] - e[(1, 0)] - e[(0, 1)] + e[(0, 0)],
    }
    perturbative = {name: getattr(dressed, name) for name in exact}
    freq_scale = max(abs(exact["omega_plus"]), abs(exact["omega_minus"]))
    errors = {}
    for name in exact:
        # floor keeps identically-zero quantities from reporting 0/0 as 1
        scale = max(abs(exact[name]), abs(perturbative[name]), 1e-9 * freq_scale)
        errors[name] = abs(exact[name] - perturbative[name]) / scale
    return DressedCheckReport(exact, perturbative, errors, min_overlap)


# ---------------------------------------------------------------------------
# qubit + two-cavity ladders
# ---------------------------------------------------------------------------

class LadderConfig(Record):
    """Exact-diagonalization setup for one qubit model plus two cavities.

    ``kind="transmon"`` uses a Duffing qubit with couplings ``(g1, g2)``;
    ``kind="tcq"`` the dressed TCQ normal form with per-branch couplings
    ``(g1_plus, g1_minus, g2_plus, g2_minus)``.  Cutoffs count levels per
    mode (so photon cutoff 3 keeps up to two photons).
    """

    kind: str
    qubit_frequency: float = 0.0
    anharmonicity: float = 0.0
    dressed: DressedTcq | None = None
    resonator1_frequency: float = 0.0
    resonator2_frequency: float = 0.0
    couplings: tuple = ()
    qubit_levels: int = 3
    photon_levels: int = 3

    def __post_init__(self):
        if self.kind not in ("transmon", "tcq"):
            raise ValueError("kind must be 'transmon' or 'tcq'")
        if self.qubit_levels < 3:
            raise ValueError("qubit modes need at least 3 levels")
        if self.photon_levels < 3:
            raise ValueError("cavities need at least 2 photons (3 levels)")
        n_g = 2 if self.kind == "transmon" else 4
        if len(self.couplings) != n_g:
            raise ValueError(f"{self.kind} ladder expects {n_g} couplings")
        if self.kind == "tcq" and self.dressed is None:
            raise ValueError("tcq ladder needs the dressed parameters")


def _ladder(cfg, resonator2_frequency=None, photon_levels=None):
    """The per-kind table of a ladder: mode sizes, Hamiltonian terms,
    exchanges and the (ground, excited) qubit labels.

    Modes are the qubit mode(s) -- the transmon, or the TCQ's plus and minus
    branches -- then cavities 1 and 2.  Terms run Duffing, cross-Kerr,
    cavity 1, cavity 2; exchanges 1+, 1-, 2+, 2- (1, 2 for the transmon).
    """
    w2 = cfg.resonator2_frequency if resonator2_frequency is None else resonator2_frequency
    nq, nc = cfg.qubit_levels, cfg.photon_levels if photon_levels is None else photon_levels
    if cfg.kind == "transmon":
        dims = (nq, nc, nc)
        terms = [(1.0, {0: _duffing(cfg.qubit_frequency, cfg.anharmonicity, nq)})]
        g1, g2 = cfg.couplings
        hops = [(g1, 0, 1), (g2, 0, 2)]
        labels = ((0,), (1,))
    else:
        d = cfg.dressed
        dims = (nq, nq, nc, nc)
        terms = [(1.0, {0: _duffing(d.omega_plus, d.delta_plus, nq)}),
                 (1.0, {1: _duffing(d.omega_minus, d.delta_minus, nq)}),
                 (d.delta_cross, {0: _number(nq), 1: _number(nq)})]
        g1p, g1m, g2p, g2m = cfg.couplings
        hops = [(g1p, 0, 2), (g1m, 1, 2), (g2p, 0, 3), (g2m, 1, 3)]
        labels = ((0, 0), (0, 1))
    cavity = len(dims) - 2
    terms += [(cfg.resonator1_frequency, {cavity: _number(nc)}),
              (w2, {cavity + 1: _number(nc)})]
    return dims, terms, hops, labels


def _ladder_hamiltonian(cfg, resonator2_frequency=None, photon_levels=None):
    return _fock_hamiltonian(*_ladder(cfg, resonator2_frequency, photon_levels)[:3])


def _extract_chis(cfg, photon_levels=None):
    dims, terms, hops, labels = _ladder(cfg, photon_levels=photon_levels)
    values, vectors = eigh(_fock_hamiltonian(dims, terms, hops))

    def photon_energies(label):
        # resonator-1 and resonator-2 photon addition energies in qubit state ``label``
        energy = []
        for photons in ((0, 0), (1, 0), (0, 1)):
            target = np.zeros(vectors.shape[0])
            target[np.ravel_multi_index(label + photons, dims)] = 1.0
            energy.append(values[_identify(vectors, target)[0]])
        return energy[1] - energy[0], energy[2] - energy[0]

    (ground1, ground2), (excited1, excited2) = map(photon_energies, labels)
    return 0.5 * (excited1 - ground1), 0.5 * (excited2 - ground2)


class ChiOracleReport(Record):
    chi1: float
    chi2: float
    chi1_perturbative: float
    chi2_perturbative: float

    @property
    def relative_errors(self):
        # an exact chi of 0 (underflowed couplings) gives NaN, which fails every check
        return tuple(abs(exact - perturbative) / abs(exact) if exact else math.nan
                     for exact, perturbative in ((self.chi1, self.chi1_perturbative),
                                                 (self.chi2, self.chi2_perturbative)))


def _perturbative_chis(cfg):
    resonators = (cfg.resonator1_frequency, cfg.resonator2_frequency)
    if cfg.kind == "transmon":
        # transmon_dispersive's shifts, from the ladder's qubit frequency
        k = [_duffing_factor(cfg.qubit_frequency - omega, cfg.anharmonicity)
             for omega in resonators]
        return _branch_shifts(cfg.couplings, k)[:2]
    model = tcq_dispersive(cfg.dressed, resonators, cfg.couplings)
    return model.chi1, model.chi2


def chi_oracle(cfg, check_convergence=True):
    """Dispersive shifts extracted from the exact ladder spectrum.

    chi_i is half the difference of the resonator-i photon addition energy
    between the excited and ground qubit states.  With
    ``check_convergence=True`` the extraction is repeated with the photon
    cutoff doubled and must agree within 1e-8 of the qubit frequency scale.
    """
    chi1, chi2 = _extract_chis(cfg)
    if check_convergence:
        probe1, probe2 = _extract_chis(cfg, photon_levels=2 * cfg.photon_levels)
        scale = max(abs(cfg.qubit_frequency),
                    abs(cfg.dressed.omega_minus) if cfg.dressed else 0.0, 1e-30)
        if max(abs(probe1 - chi1), abs(probe2 - chi2)) > CONVERGENCE_RTOL * scale:
            raise ConvergenceFailure("chi extraction not converged in photon cutoff")
    pert1, pert2 = _perturbative_chis(cfg)
    return ChiOracleReport(chi1, chi2, pert1, pert2)


def _switch_ladder(cfg):
    """The ladder as a function of the second resonator frequency w2:
    ``(dims, labels, hamiltonian)`` with ``hamiltonian(w2)`` bitwise
    ``_ladder_hamiltonian(cfg, w2)``.

    The w2-independent terms (Duffing, cross-Kerr, cavity 1) are summed
    once in _fock_hamiltonian's order; each call adds ``w2 n2`` and then
    the exchanges, also in that order.
    """
    dims, terms, hops, labels = _ladder(cfg)
    *fixed, (_, cavity2) = terms
    base = reduce(np.add, (c * _product(dims, factors) for c, factors in fixed))
    photons2 = _product(dims, cavity2)
    exchanges = [g * _exchange(dims, j, k) for g, j, k in hops if g != 0.0]

    def hamiltonian(resonator2_frequency):
        h = base + resonator2_frequency * photons2
        for exchange in exchanges:
            h += exchange
        return h

    return dims, labels, hamiltonian


def _photon_pair_gap(ladder, qubit_label, resonator2_frequency):
    """Gap of the two photon-like eigenstates; ``ladder`` is
    ``_switch_ladder(cfg)``."""
    dims, _, hamiltonian = ladder
    values, vectors = eigh(hamiltonian(resonator2_frequency))
    i10, i01 = (np.ravel_multi_index(qubit_label + photons, dims)
                for photons in ((1, 0), (0, 1)))
    k10 = int(np.argmax(np.abs(vectors[i10, :])))
    k01 = int(np.argmax(np.abs(vectors[i01, :])))
    if k10 == k01:
        # fully hybridized pair: take the two dominant eigenstates on the
        # two-dimensional photon subspace
        weight = vectors[i10, :] ** 2 + vectors[i01, :] ** 2
        k10, k01 = np.argsort(weight)[-2:]
    return abs(values[k10] - values[k01])


def _minimize_bounded(func, lower, upper, xatol):
    """Brent's bounded minimizer of ``func`` on ``[lower, upper]``.

    A literal port of ``scipy.optimize``'s ``_minimize_scalar_bounded``: the
    same operations in the same order, so the evaluation points and the
    minimum agree with ``minimize_scalar(method="bounded")`` bitwise.
    Returns ``(x, fun, evaluations)``.  Where scipy reports failure, when
    MINIMIZER_MAXFUN evaluations pass or a value is NaN, this raises
    ConvergenceFailure.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lower, upper
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # parabolic fit through the three best points
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1

        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= MINIMIZER_MAXFUN:
            raise ConvergenceFailure(
                f"bounded minimization not converged in {MINIMIZER_MAXFUN} evaluations")

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        raise ConvergenceFailure("bounded minimization reached a NaN")
    return xf, fx, num


def switch_splitting(cfg):
    """Minimal single-photon avoided-crossing gap per qubit state.

    Sweeps the second resonator through the first one's frequency (within
    2 % of it) and minimizes the splitting of the two photon-like eigenstates; at the
    crossing the minimal gap equals twice the magnitude of the effective
    resonator-resonator coupling for that qubit state.  Returns
    ``{"ground": gap, "excited": gap}``.
    """
    omega1 = cfg.resonator1_frequency
    halfwidth = 0.02 * abs(omega1)
    ladder = _switch_ladder(cfg)
    gaps = {}
    for name, label in zip(("ground", "excited"), ladder[1]):
        _, gap, _ = _minimize_bounded(
            lambda w2: _photon_pair_gap(ladder, label, w2),
            omega1 - halfwidth, omega1 + halfwidth, xatol=1e-12 * max(abs(omega1), 1.0))
        gaps[name] = float(gap)
    return gaps
