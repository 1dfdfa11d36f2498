"""Bayesian information-gain analysis of the integrated homodyne signal.

The homodyne record integrated up to time tau is Gaussian with mean

    I_hw(tau) = int_0^tau [beta_out(t) exp(-i phi) + c.c.] dt

conditioned on the Hamming weight, and variance equal to tau (linear-in-time
shot noise; the quadratic exponent sometimes quoted alongside that variance
normalization is inconsistent with it and is not used here).  Starting
from uniform priors over the four Hamming weights, the average information
gains about the weight (max 2 bits) and about the parity (max 1 bit) follow
from the posterior Shannon entropies averaged over the signal distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dispersive import DispersiveModel, parity_detunings
from .dynamics import _envelope_pieces, mode_matrix
from .errors import GridTooCoarse, NonFiniteSignal, QuadratureNonconvergent
from .measurement import MeasurementSetup

DEFAULT_QUADRATURE_POINTS = 4001  # most nodes of a gain grid
QUADRATURE_DENSITY = 16          # gain-grid nodes per sigma
QUADRATURE_PADDING = 8.0         # integration range: means +/- padding * sqrt(tau)
QUADRATURE_RTOL = 1e-6           # gain doubling check, in bits
NORMALIZATION_TOL = 1e-8         # |integral of the mixture density - 1| on a gain grid
PHASE_COARSE_POINTS = 256
PHASE_SCAN_DENSITY = 4           # nodes per sigma of the coarse phase scan, which only ranks phases
PHASE_SCAN_FLOOR = 1e-12         # bits; rounding-level ties are re-scored too
GAIN_CHUNK = 4096                # grid samples (models x points) per stacked kernel pass
PHASE_TOLERANCE = 1e-4
RATE_CONSISTENCY_BITS = 1e-3
EXPM_CHUNK = 64                  # matrices per Pade pass; bounds its scratch
SWEEP_CHUNK = 8                  # sweep points scored in lockstep; bounds the phase-search stack


@dataclass(frozen=True)
class SignalModel:
    """Conditional Gaussian model of the integrated signal at one (tau, phi)."""

    measurement_time: float
    phase: float
    means: tuple

    def __post_init__(self):
        if self.measurement_time <= 0:
            raise ValueError("measurement_time must be positive")
        if len(self.means) != 4:
            raise ValueError("means must be four numbers")
        if not all(math.isfinite(m) for m in self.means):
            raise NonFiniteSignal(f"signal means {self.means} are not all finite")

    @property
    def variance(self):
        """Shot-noise variance of the integrated signal: the measurement time."""
        return self.measurement_time


def _simpson(y, x):
    """Composite Simpson integral of y over x along the last axis, for an odd
    sample count; x is (p,) or shaped like y.

    The arithmetic of ``scipy.integrate.simpson`` on an odd count (two-interval
    panels for any spacing, then one ``np.sum``), so values agree bitwise.
    """
    if y.shape[-1] % 2 == 0:
        raise ValueError(f"simpson needs an odd number of samples, got {y.shape[-1]}")
    h = np.diff(x, axis=-1)
    h0, h1 = h[..., :-1:2], h[..., 1::2]
    hsum, ratio = h0 + h1, h0 / h1
    return np.sum(hsum / 6.0 * (y[..., :-2:2] * (2.0 - 1.0 / ratio)
                                + y[..., 1:-1:2] * (hsum * (hsum / (h0 * h1)))
                                + y[..., 2::2] * (2.0 - ratio)), axis=-1)


# Pade-13 coefficients, and the 1-norm up to which that approximant needs no
# scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005)
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
PADE13_THETA = 5.371920351148152


def _expm(a):
    """exp(a) of each matrix of a stack (..., n, n), EXPM_CHUNK matrices at a
    time: Pade-13 scaling and squaring (Higham 2005), each matrix scaled by
    its own power of 2, so a matrix gets the bits it gets alone.  A zero row
    or column of a is the identity's in exp(a), and is set so: those unit
    entries (the drive's constant mode, the integral's own) then stay exact
    through the squarings, which would otherwise compound their rounding 2^s
    times.  A non-finite matrix gives a non-finite result."""
    b = PADE13
    eye = np.eye(a.shape[-1])
    flat = a.reshape(-1, *a.shape[-2:])
    e = np.empty_like(flat)
    for start in range(0, len(flat), EXPM_CHUNK):
        x = flat[start:start + EXPM_CHUNK]
        norm = np.abs(x).sum(axis=-2).max(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            squarings = np.ceil(np.log2(norm / PADE13_THETA))
        squarings = np.nan_to_num(np.fmax(squarings, 0.0), posinf=0.0).astype(int)
        x = x * (0.5 ** squarings)[:, None, None]
        x2 = x @ x
        x4 = x2 @ x2
        x6 = x4 @ x2
        u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
                 + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
        v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
             + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
        unit = np.all(x == 0.0, axis=-1)[:, :, None] | np.all(x == 0.0, axis=-2)[:, None, :]
        y = np.where(unit, eye, np.linalg.solve(v - u, v + u))
        for k in range(squarings.max(initial=0)):
            more = squarings > k
            y[more] = y[more] @ y[more]
        e[start:start + EXPM_CHUNK] = y
    return e.reshape(a.shape)


def output_integral(setups, taus):
    """Complex integrals B_hw(tau) = int_0^tau beta_out dt of the output field
    of each setup at Hamming weights 0..3, exactly: (len(setups), 4, len(taus)).

    The setups share one pulse.  On each pulse piece the state x = [a1, a2,
    z0, z+, z-, B] obeys one constant generator (Van Loan, IEEE TAC 23, 395,
    1978): da/dt = M a - i sqrt(k) (z0 + z+ + z-), dz/dt = diag(0, s, -s) z
    and dB/dt = z0 + z+ + z- - i sqrt(k) . a, where z0 + z+ + z- is the
    piece's envelope c0 + 2 c1 cos(pi (t - t_ref) / ramp), s = i pi / ramp on
    the two ramps and 0 elsewhere, so pi / ramp scales no other piece, and z
    starts each piece at (c0, c1, c1).  So x(tau) = exp(G (tau - t_p)) x(t_p)
    from the start t_p of the piece p holding tau, and x(t_p) is the product
    of the whole pieces before it: one stacked ``_expm`` covers them and the
    taus, and no tau's bits depend on another tau or on another setup.
    NonFiniteSignal where a propagator or a result is not finite, as where
    pi / ramp overflows.
    """
    setups = list(setups)
    pulse = setups[0].pulse
    if any(setup.pulse != pulse for setup in setups):
        raise ValueError("the setups must share one pulse")
    taus = np.asarray(taus, dtype=float)
    joints, c0, c1, _ = _envelope_pieces(pulse)
    starts = np.concatenate([[0.0], joints])
    piece = np.searchsorted(joints, taus, side="right")     # as drive_envelope classifies
    whole = piece.max()                                     # the pieces before the last tau's
    root = np.sqrt([[setup.kappa1, setup.kappa2] for setup in setups])[:, None, None, :]
    g = np.zeros((len(setups), 4, c0.size, 6, 6), dtype=complex)
    g[..., :2, :2] = np.array([[mode_matrix(setup, hw) for hw in range(4)]
                               for setup in setups])[:, :, None]
    g[..., :2, 2:5] = -1j * root[..., None]
    g[..., 5, :2] = -1j * root
    g[..., 5, 2:5] = 1.0
    ramps = c1 != 0.0
    g[:, :, ramps, 3, 3] = 1j * math.pi / pulse.ramp
    g[:, :, ramps, 4, 4] = -1j * math.pi / pulse.ramp
    spans = np.concatenate([np.diff(starts)[:whole], taus - starts[piece]])
    with np.errstate(invalid="ignore", over="ignore"):
        e = _expm(g[:, :, np.concatenate([np.arange(whole), piece])] * spans[:, None, None])
        x = np.zeros((len(setups), 4, whole + 1, 6), dtype=complex)
        for p in range(whole + 1):
            if p:
                x[:, :, p] = (e[:, :, p - 1] @ x[:, :, p - 1, :, None])[..., 0]
            x[:, :, p, 2:5] = c0[p], c1[p], c1[p]
        b = np.sum(e[:, :, whole:, 5] * x[:, :, piece], axis=-1)
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(b))):
        raise NonFiniteSignal(f"a pulse-piece propagator or output integral is not finite "
                              f"(pi / ramp = {math.pi / pulse.ramp:.3g} rad/us)")
    return b


def integrated_signal(integrals, phase):
    """Mean integrated homodyne signal 2 Re(exp(-i phi) B) of complex output
    integrals B (a number or an array) at the local-oscillator phase; the
    means are linear in exp(+-i phi)."""
    return 2.0 * np.real(np.exp(-1j * phase) * integrals)


def means_from_integrals(integrals, phase):
    """Conditional means for any local-oscillator phase, from cached complex
    output integrals (the means are linear in exp(+-i phi))."""
    return tuple(float(m) for m in integrated_signal(np.asarray(integrals), phase))


def conditional_density(value, model, hamming_weight):
    """Gaussian density p(I | h_w) at the model's measurement time."""
    var = model.variance
    mu = model.means[hamming_weight]
    value = np.asarray(value, dtype=float)
    out = np.exp(-(value - mu) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return float(out) if out.ndim == 0 else out


def _log_likelihoods(values, means, variance):
    """log p(I | h_w) at ``values`` (..., p) for ``means`` (..., 4) and
    ``variance`` (...): shape (..., 4, p)."""
    var = np.asarray(variance, dtype=float)[..., None, None]
    return (-(values[..., None, :] - means[..., :, None]) ** 2 / (2.0 * var)
            - 0.5 * np.log(2.0 * math.pi * var))


def _posterior(logp):
    """Hamming-weight posterior (uniform priors) and log evidence from log
    likelihoods (..., 4, p); the largest term is factored out (log-sum-exp)
    so far-tail values stay finite."""
    top = logp.max(axis=-2, keepdims=True)
    weights = np.exp(logp - top)
    total = weights.sum(axis=-2, keepdims=True)
    return weights / total, (top + np.log(total))[..., 0, :]


def posteriors(value, model):
    """Posterior probabilities given a signal realization (uniform priors).

    Returns ``(p_hw, p_even, p_odd)``; the Hamming-weight posterior sums to
    one by construction (log-sum-exp normalization keeps far-tail values
    finite).
    """
    scalar = np.isscalar(value)
    values = np.atleast_1d(np.asarray(value, dtype=float))
    post, _ = _posterior(_log_likelihoods(values, np.asarray(model.means), model.variance))
    p_even = post[0] + post[2]
    p_odd = post[1] + post[3]
    if scalar:
        return post[:, 0], float(p_even[0]), float(p_odd[0])
    return post, p_even, p_odd


def _xlog2x(p):
    return np.where(p > 0.0, p * np.log2(np.maximum(p, 1e-320)), 0.0)


class _ModelStack(NamedTuple):
    means: np.ndarray       # (n, 4)
    variance: np.ndarray    # (n,)


def _gain_integrands(model, points, hamming=True):
    """Quadrature grid and integrands of the average gains, for one signal
    model or a stack of them, in one array pass.

    ``model.means`` is (4,) or (n, 4) and ``model.variance`` a number or
    (n,).  Returns the grid on means +/- 8 sigma, the mixture density and the
    pointwise Hamming-weight and parity information, each (n, points); with
    ``hamming=False`` (the phase scan ranks by parity alone) the
    Hamming-weight information is None.
    """
    means = np.reshape(np.asarray(model.means, dtype=float), (-1, 4))
    variance = np.broadcast_to(np.asarray(model.variance, dtype=float), means.shape[:1])
    sigma = np.sqrt(variance)
    grid = np.ascontiguousarray(np.linspace(
        means.min(axis=1) - QUADRATURE_PADDING * sigma,
        means.max(axis=1) + QUADRATURE_PADDING * sigma, points, axis=-1))
    post, log_evidence = _posterior(_log_likelihoods(grid, means, variance))
    density = np.exp(log_evidence) / 4.0
    info_hw = 2.0 + _xlog2x(post).sum(axis=1) if hamming else None
    p_even = post[:, 0] + post[:, 2]
    info_parity = 1.0 + _xlog2x(p_even) + _xlog2x(1.0 - p_even)
    return grid, density, info_hw, info_parity


def _quadrature_points(means, variance, density, modulus=2):
    """Node count of each model's gain grid, (n,), from its own means (n, 4)
    and variance (n,) alone: ``density`` nodes per sigma over means +/-
    QUADRATURE_PADDING sigma, rounded up to 1 mod ``modulus`` (odd, for
    Simpson) and capped at DEFAULT_QUADRATURE_POINTS.

    The integrand decays smoothly at both ends of the span, so a fixed
    density per sigma converges like the trapezoid rule on a smooth rapidly
    decaying function (Trefethen and Weideman, SIAM Rev. 56, 385, 2014).
    Means about 234 sigma apart reach the cap; past it the grid stays at
    4001 nodes, where the normalization guard catches means it cannot resolve.
    """
    spread = np.ptp(means, axis=-1) / np.sqrt(variance)
    nodes = np.ceil(density * (spread + 2.0 * QUADRATURE_PADDING))
    nodes = np.ceil((nodes - 1.0) / modulus) * modulus + 1.0
    # fmin: a NaN spread (from non-finite means) reads as the cap, so the
    # kernel runs and the guards see the NaN
    return np.fmin(nodes, DEFAULT_QUADRATURE_POINTS).astype(int)


def _node_counts(means, variance, points):
    """``points`` for each of the n models: a number for all, (n,), or None
    for each model's own ``_quadrature_points``."""
    if points is None:
        return _quadrature_points(means, variance, QUADRATURE_DENSITY)
    return np.broadcast_to(points, len(means))


def _integrand_chunks(means, variance, points, hamming=True):
    """Yield ``(rows, grid, density, hamming integrand, parity integrand)``
    over a stack of models, ``points`` (n,) nodes per model: the models of
    one node count share passes of at most GAIN_CHUNK grid samples, so the
    (rows, 4, points) scratch arrays stay small.  ``rows`` indexes the stack;
    ``hamming=False`` leaves the Hamming-weight integrand None."""
    # a set, not np.unique, which loads numpy.ma (20 ms) on first use
    for count in sorted(set(points.tolist())):
        group = np.flatnonzero(points == count)
        step = max(1, GAIN_CHUNK // count)
        for start in range(0, group.size, step):
            rows = group[start:start + step]
            grid, density, info_hw, info_parity = _gain_integrands(
                _ModelStack(means[rows], variance[rows]), count, hamming)
            yield (rows, grid, density, None if info_hw is None else density * info_hw,
                   density * info_parity)


def _gains_and_masses(means, variance, points=None):
    """Average (Hamming-weight, parity) gains in bits of n models, (n, 2),
    by composite Simpson on ``points`` samples (a number, one per model, or
    None for each model's own ``_quadrature_points``), and each model's
    mixture density integrated on the same grid, (n,)."""
    gains, masses = np.empty((len(means), 2)), np.empty(len(means))
    points = _node_counts(means, variance, points)
    for rows, grid, density, hamming, parity in _integrand_chunks(means, variance, points):
        # one pass for the three integrands, which share the grid's weights
        masses[rows], gains[rows, 0], gains[rows, 1] = _simpson(
            np.stack([density, hamming, parity]), grid)
    return gains, masses


def info_gains(model, points=None, check=True):
    """Average information gains (bits) about Hamming weight and parity.

    Composite Simpson over the signal mixture on means +/- 8 sigma, at 16
    nodes per sigma up to 4001 nodes (``_quadrature_points``) unless
    ``points`` fixes the count.  Each model's mixture density must integrate
    to 1 within NORMALIZATION_TOL, else QuadratureNonconvergent names the
    first that fails: past a few thousand sigma the means fall between the
    capped grid's nodes, and the density and gains read about 0 at any
    resolution.  With ``check=True`` the quadrature is repeated at doubled
    resolution and must agree within QUADRATURE_RTOL bits (the same error).

    ``model.means`` is four numbers, or a stack (n, 4) with ``model.variance``
    a number or (n,): then the two gains are (n,) arrays, each row what a
    call on that model alone returns, bit for bit.
    """
    single = np.ndim(model.means) == 1
    means = np.reshape(np.asarray(model.means, dtype=float), (-1, 4))
    variance = np.broadcast_to(np.asarray(model.variance, dtype=float), means.shape[:1])
    points = _node_counts(means, variance, points)
    gains, masses = _gains_and_masses(means, variance, points)
    failing = np.flatnonzero(~(np.abs(masses - 1.0) <= NORMALIZATION_TOL))  # a NaN fails too
    if failing.size:
        first = failing[0]
        spread = np.ptp(means[first]) / math.sqrt(variance[first])
        raise QuadratureNonconvergent(
            f"the signal density integrates to {masses[first]:.12g}, not 1, on the "
            f"{points[first]}-point gain grid: means {spread:.3g} sigma apart are not resolved")
    if check:
        moved = np.abs(_gains_and_masses(means, variance, 2 * (points - 1) + 1)[0] - gains)
        failing = np.flatnonzero(~np.all(moved <= QUADRATURE_RTOL, axis=1))  # a NaN fails too
        if failing.size:
            hamming, parity = moved[failing[0]]
            raise QuadratureNonconvergent(
                f"doubling the grid moved the gains by ({hamming:.2e}, {parity:.2e}) bits")
    if single:
        return float(gains[0, 0]), float(gains[0, 1])
    return gains[:, 0], gains[:, 1]


def _phase_bracket(integrals, phis, tau):
    """Index of the coarse phase around which the parity gain peaks.

    ``integrals`` holds four complex output integrals, or a stack (n, 4) of
    them, and then an (n,) array of indices comes back.  Every phase of
    every stacked model is scored in one pass at PHASE_SCAN_DENSITY nodes
    per sigma (a count that is 1 mod 4), and the scan measures its own error
    against its every-other-point sub-grid.  The cheap quadrature only has
    to rank the phases: all phases within that error (plus a rounding floor)
    of the best are re-scored at their own gain quadrature before one is
    chosen.
    """
    stack = np.reshape(np.asarray(integrals), (-1, 1, 4))
    means = integrated_signal(stack, phis[:, None]).reshape(-1, 4)
    variance = np.full(len(means), float(tau))
    points = _quadrature_points(means, variance, PHASE_SCAN_DENSITY, 4)
    values, errors = np.empty(len(means)), np.empty(len(means))
    for rows, grid, _, _, parity in _integrand_chunks(means, variance, points, hamming=False):
        values[rows] = _simpson(parity, grid)
        errors[rows] = np.abs(values[rows] - _simpson(parity[:, ::2], grid[:, ::2]))
    values, errors = values.reshape(-1, phis.size), errors.reshape(-1, phis.size)
    best = np.argmax(values, axis=1)
    top = np.arange(len(best)), best
    near = values[top][:, None] - values <= errors[top][:, None] + errors + PHASE_SCAN_FLOOR
    near[np.sum(near, axis=1) == 1] = False     # a lone best needs no re-scoring
    rivals = np.flatnonzero(near)
    if rivals.size:
        rescored = np.full(values.shape, -np.inf)
        rescored.flat[rivals] = _gains_and_masses(means[rivals], variance[rivals])[0][:, 1]
        contested = np.any(near, axis=1)
        best[contested] = np.argmax(rescored[contested], axis=1)
    return int(best[0]) if np.ndim(integrals) == 1 else best


def optimal_phase(integrals, tau):
    """Local-oscillator phase maximizing the parity information gain.

    Coarse scan over [0, pi) on a cheap quadrature (it only picks the
    bracket) followed by golden-section refinement at the gain quadrature
    to PHASE_TOLERANCE; the objective is pi-periodic.  Returns
    ``(phase, info_parity)``.

    ``integrals`` holds the four complex output integrals, or a stack (n, 4)
    of them: then each point's search runs in lockstep with the others, the
    two results are (n,) arrays, and each row is what a search on that point
    alone returns, bit for bit.  Every bracket is 2 pi / PHASE_COARSE_POINTS
    wide, so every point takes the same steps and each step is one stacked
    ``info_gains`` call.
    """
    stack = np.reshape(np.asarray(integrals), (-1, 4))

    def objective(phi, rows):
        model = _ModelStack(integrated_signal(stack[rows], phi[:, None]),
                            np.full(rows.size, float(tau)))
        return info_gains(model, check=False)[1]

    phis = np.linspace(0.0, math.pi, PHASE_COARSE_POINTS, endpoint=False)
    best = _phase_bracket(stack, phis, tau)
    span = math.pi / PHASE_COARSE_POINTS
    lo, hi = phis[best] - span, phis[best] + span

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    everyone = np.arange(len(stack))
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = objective(c, everyone), objective(d, everyone)
    live = np.flatnonzero(hi - lo > PHASE_TOLERANCE)
    while live.size:
        left = fc[live] > fd[live]          # the peak lies left of d
        shrink, grow = live[left], live[~left]
        hi[shrink], d[shrink], fd[shrink] = d[shrink], c[shrink], fc[shrink]
        c[shrink] = hi[shrink] - ratio * (hi[shrink] - lo[shrink])
        lo[grow], c[grow], fc[grow] = c[grow], d[grow], fd[grow]
        d[grow] = lo[grow] + ratio * (hi[grow] - lo[grow])
        value = objective(np.where(left, c[live], d[live]), live)
        fc[shrink], fd[grow] = value[left], value[~left]
        live = live[hi[live] - lo[live] > PHASE_TOLERANCE]
    phi_star = ((lo + hi) / 2.0) % math.pi
    gain = objective(phi_star, everyone)
    if np.ndim(integrals) == 1:
        return float(phi_star[0]), float(gain[0])
    return phi_star, gain


def measurement_rates(taus, gains):
    """Finite-difference information rate dI/dtau on a uniform tau grid.

    Central differences inside, one-sided at the ends; trapezoid-integrating
    the rate must recover the endpoint gain within 1e-3 bits, else
    GridTooCoarse.
    """
    taus = np.asarray(taus, dtype=float)
    gains = np.asarray(gains, dtype=float)
    if taus.size < 3:
        raise ValueError("need at least 3 grid points")
    spacing = np.diff(taus)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0):
        raise ValueError("tau grid must be uniform")
    rates = np.gradient(gains, taus[1] - taus[0], edge_order=2)
    recovered = float(np.trapezoid(rates, taus))
    if not abs(recovered - (gains[-1] - gains[0])) <= RATE_CONSISTENCY_BITS:  # a NaN fails too
        raise GridTooCoarse(
            f"rate integral {recovered:.4f} vs gain {gains[-1] - gains[0]:.4f} bits; "
            f"raise analysis.tau_points to resolve the gain's rise")
    return rates


@dataclass(frozen=True)
class InfoGainReport:
    """Information-gain summary of one measurement configuration."""

    measurement_time: float
    optimal_phase: float
    info_hamming: float
    info_parity: float
    tau_grid: np.ndarray | None = None
    info_hamming_series: np.ndarray | None = None
    info_parity_series: np.ndarray | None = None
    rate_hamming: np.ndarray | None = None
    rate_parity: np.ndarray | None = None

    def __post_init__(self):
        if math.isnan(self.info_parity) or math.isnan(self.info_hamming):
            raise NonFiniteSignal(f"information gains {self.info_parity} (parity), "
                                  f"{self.info_hamming} (Hamming weight) are not numbers")
        tol = 1e-6
        if not (-tol <= self.info_parity <= 1.0 + tol):
            raise ValueError(f"info_parity {self.info_parity} outside [0, 1]")
        if not (-tol <= self.info_hamming <= 2.0 + tol):
            raise ValueError(f"info_hamming {self.info_hamming} outside [0, 2]")
        if self.info_parity > self.info_hamming + tol:
            raise ValueError("parity gain cannot exceed Hamming-weight gain")

    @property
    def missing_parity(self):
        return 1.0 - self.info_parity

    @property
    def delta_info(self):
        return self.info_hamming - self.info_parity


def analyze_trajectories(setup, tau, phase="optimal", tau_points=57):
    """Information-gain report of the four Hamming-weight trajectories of
    ``setup``, the one path from a setup to published gains (``simulate``;
    ``chi_sweep`` scores its points by the same ``_analyze``).

    ``phase`` is a number, or "optimal" to pick it from the complex output
    integrals at ``tau``.  ``output_integral`` gives them at ``tau`` and,
    unless ``tau_points`` is None, on a uniform ``tau_points`` grid over [0,
    tau], whose last point is ``tau`` with the same bits.  The means at
    ``tau`` give the gains, which carry the doubling check; one stacked
    ``info_gains`` call without it scores the series, differentiated into rates.
    """
    if tau_points is not None and tau_points < 3:
        raise ValueError("need at least 3 grid points")
    tau_grid = None if tau_points is None else np.linspace(0.0, tau, tau_points)
    # the gains vanish at tau = 0
    taus = [tau] if tau_grid is None else tau_grid[1:]
    return _analyze(output_integral([setup], taus), tau, phase, tau_grid)[0]


def _analyze(integrals, tau, phase, tau_grid):
    """Reports of several points from their complex output integrals (n, 4,
    k), Hamming weights in order, at the taus of ``tau_grid`` after 0 (at
    ``tau`` alone when it is None): one stacked ``optimal_phase`` search picks
    every point's phase, then each point is scored on its own, so a report is
    what the point alone gives, bit for bit, and the first failing point in
    input order raises."""
    if phase == "optimal":
        phases = optimal_phase(integrals[:, :, -1], tau)[0].tolist()
    else:
        phases = [float(phase)] * len(integrals)
    reports = []
    for point, phi in zip(integrals, phases):
        means = integrated_signal(point.T, phi)         # (k, 4)
        gain_hw, gain_parity = info_gains(SignalModel(tau, phi, tuple(means[-1])))
        series = rates = (None, None)     # (Hamming weight, parity)
        if tau_grid is not None:
            gains = info_gains(_ModelStack(means, tau_grid[1:]), check=False)
            series = [np.concatenate(([0.0], gain)) for gain in gains]
            rates = [measurement_rates(tau_grid, gain) for gain in series]
        reports.append(InfoGainReport(
            measurement_time=tau, optimal_phase=phi, info_hamming=gain_hw,
            info_parity=gain_parity, tau_grid=tau_grid,
            info_hamming_series=series[0], info_parity_series=series[1],
            rate_hamming=rates[0], rate_parity=rates[1]))
    return reports


# ---------------------------------------------------------------------------
# chi sweep
# ---------------------------------------------------------------------------

def chi_sweep(chi_pairs, kappa, pulse, tau, workers=None):
    """Rate-less ``InfoGainReport`` of each (chi1/kappa, chi2/kappa) pair, in order.

    Each point applies its own parity detunings (plus branch).  Up to
    SWEEP_CHUNK points at a time are scored in lockstep: one
    ``output_integral`` call gives their integrals at ``tau``, and
    ``_analyze`` runs one phase search for all of them, so a report is what
    ``analyze_trajectories`` gives the point alone at ``tau_points=None``,
    bit for bit.  ``workers`` has no effect.
    """
    pairs = [(float(chi1), float(chi2)) for chi1, chi2 in chi_pairs]
    reports = []
    for start in range(0, len(pairs), SWEEP_CHUNK):
        setups = []
        for chi1, chi2 in pairs[start:start + SWEEP_CHUNK]:
            model = DispersiveModel(0.0, 0.0, 0.0, chi1 * kappa, chi2 * kappa, 0.0, 0.0)
            det = parity_detunings(model, kappa, kappa).plus_branch
            setups.append(MeasurementSetup(kappa, kappa, det[0], det[1], model, pulse))
        reports += _analyze(output_integral(setups, [tau]), tau, "optimal", None)
    return reports
