"""Bayesian information-gain analysis of the integrated homodyne signal.

The homodyne record integrated up to time tau is Gaussian with mean

    I_hw(tau) = int_0^tau [beta_out(t) exp(-i phi) + c.c.] dt

conditioned on the Hamming weight, and variance equal to tau (linear-in-time
shot noise; the quadratic exponent sometimes quoted alongside that variance
normalization is inconsistent with it and is not used here -- a
``variance_convention`` switch exposes the alternative for sensitivity
studies).  Starting from uniform priors over the four Hamming weights, the
average information gains about the weight (max 2 bits) and about the parity
(max 1 bit) follow from the posterior Shannon entropies averaged over the
signal distribution.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.special import logsumexp

from .dispersive import DispersiveModel, parity_detunings
from .dynamics import MeasurementSetup, evolve
from .errors import GridTooCoarse, QuadratureNonconvergent

LOG2 = math.log(2.0)
DEFAULT_QUADRATURE_POINTS = 4001
QUADRATURE_PADDING = 8.0         # integration range: means +/- padding * sqrt(tau)
QUADRATURE_RTOL = 1e-6           # doubling check, in bits
PHASE_COARSE_POINTS = 256
PHASE_TOLERANCE = 1e-4
RATE_CONSISTENCY_BITS = 1e-3

WORKERS_ENV = "PARITY_SCOPE_WORKERS"


def _variance(tau, convention):
    if convention == "tau":
        return tau
    if convention == "tau-squared":
        return tau * tau
    raise ValueError(f"unknown variance convention {convention!r}")


@dataclass(frozen=True)
class SignalModel:
    """Conditional Gaussian model of the integrated signal at one (tau, phi)."""

    measurement_time: float
    phase: float
    means: tuple
    variance_convention: str = "tau"

    def __post_init__(self):
        if self.measurement_time <= 0:
            raise ValueError("measurement_time must be positive")
        if len(self.means) != 4 or not all(math.isfinite(m) for m in self.means):
            raise ValueError("means must be four finite numbers")

    @property
    def variance(self):
        return _variance(self.measurement_time, self.variance_convention)


def output_integral(trajectory, tau):
    """Complex integral of beta_out over [0, tau] on the trajectory grid."""
    idx = _tau_index(trajectory, tau)
    t = trajectory.times[: idx + 1]
    return complex(simpson(trajectory.output[: idx + 1].real, x=t),
                   simpson(trajectory.output[: idx + 1].imag, x=t))


def _tau_index(trajectory, tau):
    times = trajectory.times
    if tau > times[-1] * (1 + 1e-12):
        raise ValueError(f"tau = {tau} beyond trajectory horizon {times[-1]}")
    idx = int(np.argmin(np.abs(times - tau)))
    spacing = times[1] - times[0] if times.size > 1 else 1.0
    if abs(times[idx] - tau) > 1e-6 * spacing + 1e-12 * max(tau, 1.0):
        raise ValueError("tau does not land on the trajectory grid")
    return idx


def integrated_signal(trajectory, phase, tau):
    """Mean integrated homodyne signal, composite Simpson on the stored grid.

    A Richardson check against the half-resolution grid guards the quadrature
    (GridTooCoarse beyond 1e-6 relative).
    """
    idx = _tau_index(trajectory, tau)
    t = trajectory.times[: idx + 1]
    integrand = 2.0 * np.real(np.exp(-1j * phase) * trajectory.output[: idx + 1])
    fine = float(simpson(integrand, x=t))
    if idx >= 4:
        half = idx if idx % 2 == 0 else idx - 1
        coarse = float(simpson(integrand[:half + 1:2], x=t[:half + 1:2]))
        if half != idx:
            coarse += float(np.trapezoid(integrand[half:idx + 1], t[half:idx + 1]))
        if abs(fine - coarse) > QUADRATURE_RTOL * max(abs(fine), 1.0):
            raise GridTooCoarse(
                f"Simpson refinement moved the signal by {abs(fine - coarse):.3e}")
    return fine


def signal_model(trajectories, phase, tau, variance_convention="tau"):
    """Conditional-mean model from the four Hamming-weight trajectories."""
    if len(trajectories) != 4:
        raise ValueError("need one trajectory per Hamming weight")
    ordered = sorted(trajectories, key=lambda tr: tr.hamming_weight)
    if [tr.hamming_weight for tr in ordered] != [0, 1, 2, 3]:
        raise ValueError("trajectories must cover Hamming weights 0..3")
    means = tuple(integrated_signal(tr, phase, tau) for tr in ordered)
    return SignalModel(tau, phase, means, variance_convention)


def means_from_integrals(integrals, phase):
    """Conditional means for any local-oscillator phase, from cached complex
    output integrals (the means are linear in exp(+-i phi))."""
    z = np.exp(-1j * phase)
    return tuple(2.0 * float(np.real(z * b)) for b in integrals)


def conditional_density(value, model, hamming_weight):
    """Gaussian density p(I | h_w) at the model's measurement time."""
    var = model.variance
    mu = model.means[hamming_weight]
    value = np.asarray(value, dtype=float)
    out = np.exp(-(value - mu) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return float(out) if out.ndim == 0 else out


def _log_likelihoods(values, model):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    var = model.variance
    mus = np.asarray(model.means)
    return (-(values[None, :] - mus[:, None]) ** 2 / (2.0 * var)
            - 0.5 * math.log(2.0 * math.pi * var))


def posteriors(value, model):
    """Posterior probabilities given a signal realization (uniform priors).

    Returns ``(p_hw, p_even, p_odd)``; the Hamming-weight posterior sums to
    one by construction (log-sum-exp normalization keeps far-tail values
    finite).
    """
    scalar = np.isscalar(value)
    logp = _log_likelihoods(value, model)
    post = np.exp(logp - logsumexp(logp, axis=0))
    p_even = post[0] + post[2]
    p_odd = post[1] + post[3]
    if scalar:
        return post[:, 0], float(p_even[0]), float(p_odd[0])
    return post, p_even, p_odd


def _xlog2x(p):
    return np.where(p > 0.0, p * np.log2(np.maximum(p, 1e-320)), 0.0)


def _gain_integrands(model, points):
    sigma = math.sqrt(model.variance)
    means = np.asarray(model.means)
    grid = np.linspace(means.min() - QUADRATURE_PADDING * sigma,
                       means.max() + QUADRATURE_PADDING * sigma, points)
    logp = _log_likelihoods(grid, model)
    logz = logsumexp(logp, axis=0)
    post = np.exp(logp - logz)
    density = np.exp(logz) / 4.0
    info_hw = 2.0 + _xlog2x(post).sum(axis=0)
    p_even = post[0] + post[2]
    info_parity = 1.0 + _xlog2x(p_even) + _xlog2x(1.0 - p_even)
    return grid, density, info_hw, info_parity


def info_gains(model, points=DEFAULT_QUADRATURE_POINTS, check=True):
    """Average information gains (bits) about Hamming weight and parity.

    Composite Simpson over the signal mixture on means +/- 8 sigma; with
    ``check=True`` the quadrature is repeated at doubled resolution and must
    agree within 1e-6 bits (QuadratureNonconvergent otherwise).
    """
    grid, density, info_hw, info_parity = _gain_integrands(model, points)
    gain_hw = float(simpson(density * info_hw, x=grid))
    gain_parity = float(simpson(density * info_parity, x=grid))
    if check:
        grid2, density2, info_hw2, info_parity2 = _gain_integrands(model, 2 * (points - 1) + 1)
        ref_hw = float(simpson(density2 * info_hw2, x=grid2))
        ref_parity = float(simpson(density2 * info_parity2, x=grid2))
        if abs(ref_hw - gain_hw) > QUADRATURE_RTOL or abs(ref_parity - gain_parity) > QUADRATURE_RTOL:
            raise QuadratureNonconvergent(
                f"doubling the grid moved the gains by "
                f"({abs(ref_hw - gain_hw):.2e}, {abs(ref_parity - gain_parity):.2e}) bits")
    return gain_hw, gain_parity


def optimal_phase(integrals, tau, variance_convention="tau",
                  coarse_points=PHASE_COARSE_POINTS, tolerance=PHASE_TOLERANCE):
    """Local-oscillator phase maximizing the parity information gain.

    Coarse scan over [0, pi) followed by golden-section refinement to the
    requested tolerance; the objective is pi-periodic.  Returns
    ``(phase, info_parity)``.
    """
    def objective(phi):
        model = SignalModel(tau, phi, means_from_integrals(integrals, phi),
                            variance_convention)
        return info_gains(model, check=False)[1]

    phis = np.linspace(0.0, math.pi, coarse_points, endpoint=False)
    values = [objective(p) for p in phis]
    best = int(np.argmax(values))
    span = math.pi / coarse_points
    lo, hi = phis[best] - span, phis[best] + span

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > tolerance:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = objective(d)
    phi_star = ((lo + hi) / 2.0) % math.pi
    return phi_star, objective(phi_star)


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
    if abs(recovered - (gains[-1] - gains[0])) > RATE_CONSISTENCY_BITS:
        raise GridTooCoarse(
            f"rate integral {recovered:.4f} vs gain {gains[-1] - gains[0]:.4f} bits")
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


def analyze_trajectories(trajectories, tau, phase="optimal", tau_points=57,
                         variance_convention="tau", with_rates=True):
    """Full information-gain report for a set of four evolved trajectories.

    ``phase`` may be a number or "optimal"; with ``with_rates`` the gains are
    also computed on a uniform ``tau_points`` grid over [0, tau] (requires
    the grid to be commensurate with the trajectory sampling) and
    differentiated into measurement rates.
    """
    ordered = sorted(trajectories, key=lambda tr: tr.hamming_weight)
    integrals = [output_integral(tr, tau) for tr in ordered]
    if phase == "optimal":
        phi, _ = optimal_phase(integrals, tau, variance_convention)
    else:
        phi = float(phase)
    model = signal_model(ordered, phi, tau, variance_convention)
    gain_hw, gain_parity = info_gains(model)

    tau_grid = rate_hw = rate_parity = series_hw = series_parity = None
    if with_rates:
        tau_grid = np.linspace(0.0, tau, tau_points)[1:]  # gains vanish at tau=0
        series_hw = np.empty(tau_grid.size + 1)
        series_parity = np.empty(tau_grid.size + 1)
        series_hw[0] = series_parity[0] = 0.0
        for j, t in enumerate(tau_grid):
            m = signal_model(ordered, phi, t, variance_convention)
            series_hw[j + 1], series_parity[j + 1] = info_gains(m, check=False)
        tau_grid = np.concatenate(([0.0], tau_grid))
        rate_hw = measurement_rates(tau_grid, series_hw)
        rate_parity = measurement_rates(tau_grid, series_parity)

    return InfoGainReport(
        measurement_time=tau,
        optimal_phase=phi,
        info_hamming=gain_hw,
        info_parity=gain_parity,
        tau_grid=tau_grid,
        info_hamming_series=series_hw,
        info_parity_series=series_parity,
        rate_hamming=rate_hw,
        rate_parity=rate_parity,
    )


# ---------------------------------------------------------------------------
# chi sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One row of the information-gain sweep table."""

    chi1_over_kappa: float
    chi2_over_kappa: float
    info_parity: float
    info_hamming: float
    phase: float

    @property
    def missing_parity(self):
        return 1.0 - self.info_parity

    @property
    def delta_info(self):
        return self.info_hamming - self.info_parity


def _sweep_single(args):
    (chi1, chi2, kappa, pulse, tau, chi12, variance_convention) = args
    model = DispersiveModel(0.0, 0.0, 0.0, chi1 * kappa, chi2 * kappa, 0.0, chi12 * kappa)
    det = parity_detunings(model, kappa, kappa).plus_branch
    setup = MeasurementSetup(kappa, kappa, det[0], det[1], model, pulse)
    trajectories = [evolve(setup, hw, tau) for hw in range(4)]
    integrals = [output_integral(tr, tau) for tr in trajectories]
    phi, _ = optimal_phase(integrals, tau, variance_convention)
    for tr in trajectories:
        integrated_signal(tr, phi, tau)  # Richardson guard only: raises GridTooCoarse
    gain_hw, gain_parity = info_gains(
        SignalModel(tau, phi, means_from_integrals(integrals, phi), variance_convention))
    return SweepPoint(chi1, chi2, gain_parity, gain_hw, phi)


def worker_count(workers=None):
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def chi_sweep(chi_pairs, kappa, pulse, tau, chi12=0.0,
              variance_convention="tau", workers=None):
    """Information gains over a set of (chi1/kappa, chi2/kappa) pairs.

    Each point applies its own parity detunings (plus branch), evolves the
    four Hamming-weight trajectories, optimizes the measured quadrature and
    integrates the gains.  Points are independent; with ``workers > 1`` they
    fan out over processes and are joined in input order, so the table is
    identical for any worker count.
    """
    jobs = [(float(c1), float(c2), kappa, pulse, tau, chi12, variance_convention)
            for c1, c2 in chi_pairs]
    n_workers = worker_count(workers)
    if n_workers == 1 or len(jobs) <= 1:
        return [_sweep_single(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(_sweep_single, jobs, chunksize=max(1, len(jobs) // (4 * n_workers))))
