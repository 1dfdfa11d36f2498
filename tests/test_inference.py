"""Tests for the homodyne-signal model and information-gain machinery."""

import math

import numpy as np
import pytest

from parity_scope.dispersive import DispersiveModel, parity_detunings
from parity_scope.dynamics import DrivePulse, MeasurementSetup, evolve
from parity_scope.inference import (
    InfoGainReport,
    SignalModel,
    analyze_trajectories,
    conditional_density,
    info_gains,
    integrated_signal,
    means_from_integrals,
    measurement_rates,
    optimal_phase,
    output_integral,
    posteriors,
    signal_model,
)
from parity_scope.errors import GridTooCoarse, NonFiniteSignal, QuadratureNonconvergent


def reference_pulse(kappa=1.0):
    return DrivePulse(amplitude=0.5 / math.sqrt(kappa), ramp=4.0 / kappa,
                      t_on=1.0 / kappa, t_off=16.0 / kappa)


def reference_setup(chi1=0.5, chi2=0.5, kappa=1.0):
    model = DispersiveModel(0.0, 0.0, 0.0, chi1 * kappa, chi2 * kappa, 0.0, 0.0)
    det = parity_detunings(model, kappa, kappa).plus_branch
    return MeasurementSetup(kappa, kappa, det[0], det[1], model, reference_pulse(kappa))


@pytest.fixture(scope="module")
def reference_trajectories():
    setup = reference_setup()
    return [evolve(setup, hw, 28.0) for hw in range(4)]


# ---------------------------------------------------------------------------
# integrated signal
# ---------------------------------------------------------------------------

def test_integrated_signal_zero_output():
    setup = reference_setup()
    setup = MeasurementSetup(1.0, 1.0, setup.detuning1, setup.detuning2,
                             setup.model, DrivePulse(0.0, 4.0, 1.0, 16.0))
    traj = evolve(setup, 0, 28.0, probe=False)
    assert integrated_signal(traj, 0.3, 28.0) == 0.0


def test_integrated_signal_phase_flip(reference_trajectories):
    traj = reference_trajectories[0]
    plus = integrated_signal(traj, 0.4, 28.0)
    minus = integrated_signal(traj, 0.4 + math.pi, 28.0)
    assert minus == pytest.approx(-plus, rel=1e-12)


def test_integrated_signal_constant_output():
    # constant real output c with phi = 0 integrates to 2 c tau
    from parity_scope.dynamics import Trajectory
    t = np.linspace(0.0, 5.0, 501)
    c = 0.37
    traj = Trajectory(times=t, alpha1=np.zeros_like(t, dtype=complex),
                      alpha2=np.zeros_like(t, dtype=complex),
                      drive=np.full_like(t, c),
                      output=np.full_like(t, c, dtype=complex),
                      hamming_weight=0, step=t[1] - t[0])
    assert integrated_signal(traj, 0.0, 5.0) == pytest.approx(2 * c * 5.0, rel=1e-12)


def test_integrated_signal_off_grid_tau(reference_trajectories):
    with pytest.raises(ValueError):
        integrated_signal(reference_trajectories[0], 0.0, 28.0 / 3.0)


def test_integrated_signal_rejects_jagged_grid():
    # white-noise samples have no converged Simpson value
    from parity_scope.dynamics import Trajectory
    rng = np.random.default_rng(1)
    t = np.linspace(0.0, 5.0, 201)
    noise = rng.normal(0, 1, t.size) + 0j
    traj = Trajectory(times=t, alpha1=np.zeros_like(noise), alpha2=np.zeros_like(noise),
                      drive=np.zeros_like(t), output=noise, hamming_weight=0,
                      step=t[1] - t[0])
    with pytest.raises(GridTooCoarse):
        integrated_signal(traj, 0.0, 5.0)


def test_integrated_signal_fails_closed_on_nan():
    # a NaN sample makes the Richardson difference NaN, which no tolerance admits
    from parity_scope.dynamics import Trajectory
    t = np.linspace(0.0, 1.0, 11)
    output = np.ones(t.size, dtype=complex)
    output[5] = math.nan
    traj = Trajectory(times=t, alpha1=np.zeros_like(output), alpha2=np.zeros_like(output),
                      drive=np.zeros_like(t), output=output, hamming_weight=0,
                      step=t[1] - t[0])
    with pytest.raises(GridTooCoarse):
        integrated_signal(traj, 0.0, 1.0)


def test_variance_convention_switch():
    model = SignalModel(4.0, 0.0, (0.0, 1.0, 2.0, 3.0))
    assert model.variance == model.measurement_time


# ---------------------------------------------------------------------------
# densities and posteriors
# ---------------------------------------------------------------------------

def test_density_peak_value():
    model = SignalModel(4.0, 0.0, (1.0, 2.0, 3.0, 4.0))
    assert conditional_density(2.0, model, 1) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi * 4.0), rel=1e-14)


def test_density_normalization():
    model = SignalModel(4.0, 0.0, (1.0, -2.0, 3.0, 0.0))
    grid = np.linspace(-40, 40, 20001)
    for hw in range(4):
        total = np.trapezoid(conditional_density(grid, model, hw), grid)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_density_identical_when_means_equal():
    model = SignalModel(2.0, 0.0, (0.5, 0.5, 0.5, 0.5))
    grid = np.linspace(-10, 10, 101)
    base = conditional_density(grid, model, 0)
    for hw in (1, 2, 3):
        assert np.array_equal(conditional_density(grid, model, hw), base)


def test_posteriors_equal_means():
    model = SignalModel(2.0, 0.0, (0.5, 0.5, 0.5, 0.5))
    p_hw, p_even, p_odd = posteriors(1.7, model)
    assert np.allclose(p_hw, 0.25, atol=1e-15)
    assert p_even == pytest.approx(0.5) and p_odd == pytest.approx(0.5)


def test_posteriors_dominant_hypothesis():
    model = SignalModel(1.0, 0.0, (0.0, 50.0, 100.0, 150.0))
    p_hw, _, _ = posteriors(0.5, model)
    assert p_hw[0] > 1 - 1e-12


def test_posteriors_sum_to_one_far_tail():
    model = SignalModel(1.0, 0.0, (-1.0, 0.0, 1.0, 2.0))
    p_hw, p_even, p_odd = posteriors(1e4, model)
    assert p_hw.sum() == pytest.approx(1.0, abs=1e-12)
    assert p_even + p_odd == pytest.approx(1.0, abs=1e-12)


def test_posteriors_two_gaussian_closed_form():
    # means (+m, -m, +m, -m): parity discrimination is a plain logistic
    m, tau = 1.3, 2.0
    model = SignalModel(tau, 0.0, (m, -m, m, -m))
    for value in (-3.0, -0.4, 0.0, 0.7, 2.5):
        _, p_even, _ = posteriors(value, model)
        assert p_even == pytest.approx(1.0 / (1.0 + math.exp(-2 * m * value / tau)),
                                       rel=1e-12)


def test_posterior_martingale():
    # E over p(I) of the posterior returns the uniform prior
    model = SignalModel(3.0, 0.0, (0.3, -1.2, 2.0, 0.9))
    grid = np.linspace(-8 * math.sqrt(3.0) - 1.2, 8 * math.sqrt(3.0) + 2.0, 4001)
    p_hw, _, _ = posteriors(grid, model)
    density = sum(conditional_density(grid, model, hw) for hw in range(4)) / 4.0
    for hw in range(4):
        avg = np.trapezoid(p_hw[hw] * density, grid)
        assert avg == pytest.approx(0.25, abs=1e-6)


# ---------------------------------------------------------------------------
# information gains
# ---------------------------------------------------------------------------

def test_info_gains_zero_for_equal_means():
    model = SignalModel(2.0, 0.0, (1.0, 1.0, 1.0, 1.0))
    gain_hw, gain_parity = info_gains(model)
    assert abs(gain_hw) < 1e-12
    assert abs(gain_parity) < 1e-12


def test_info_gains_fail_closed_on_nan():
    # means 1e160 apart overflow the integrands: NaN gains at both resolutions
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(QuadratureNonconvergent):
        info_gains(SignalModel(1.0, 0.0, (0.0, 1e160, 2e160, 3e160)))


@pytest.mark.parametrize("check", [True, False])
def test_info_gains_fail_closed_on_an_unresolved_mixture(check):
    # means 1e5 sigma apart fall between the nodes of both grids: the density,
    # and with it every gain, integrates to about 0 at either resolution
    model = SignalModel(1.0, 0.0, (0.0, 1e5, 2e5, 3e5))
    with pytest.raises(QuadratureNonconvergent, match="density integrates"):
        info_gains(model, check=check)


def test_stacked_gains_fail_closed_on_an_unresolved_row():
    # the tau-series kernel behind the rates: one unresolved row among
    # resolved ones fails the whole stack
    from parity_scope.inference import _guarded_gains
    means = np.array([[0.0, 1.0, 2.0, 3.0]] * 3 + [[0.0, 1e5, 2e5, 3e5]])
    with pytest.raises(QuadratureNonconvergent, match="density integrates"):
        _guarded_gains(means, np.ones(4), 4001)


def test_info_gains_perfect_discrimination():
    tau = 1.0
    sep = 25.0 * math.sqrt(tau)
    model = SignalModel(tau, 0.0, (0.0, sep, 2 * sep, 3 * sep))
    gain_hw, gain_parity = info_gains(model)
    assert gain_hw == pytest.approx(2.0, abs=1e-4)
    assert gain_parity == pytest.approx(1.0, abs=1e-4)


def test_info_gains_ranges_and_order_randomized():
    rng = np.random.default_rng(5)
    for _ in range(100):
        means = tuple(rng.uniform(-6, 6, size=4))
        model = SignalModel(float(rng.uniform(0.5, 6.0)), 0.0, means)
        gain_hw, gain_parity = info_gains(model, check=False)
        assert -1e-6 <= gain_parity <= 1.0 + 1e-6
        assert -1e-6 <= gain_hw <= 2.0 + 1e-6
        assert gain_parity <= gain_hw + 1e-6


def test_info_pointwise_entropy_chain():
    # realization-wise: parity information never exceeds weight information
    from parity_scope.inference import _gain_integrands
    model = SignalModel(2.0, 0.0, (0.4, -1.0, 2.2, 0.1))
    _, _, info_hw, info_parity = _gain_integrands(model, 2001)
    assert np.all(info_parity <= info_hw + 1e-12)


def test_info_monotone_in_separation():
    rng = np.random.default_rng(17)
    for _ in range(100):
        means = np.array(rng.uniform(-3, 3, size=4))
        tau = float(rng.uniform(0.5, 4.0))
        base = info_gains(SignalModel(tau, 0.0, tuple(means)), check=False)[1]
        scaled = info_gains(SignalModel(tau, 0.0, tuple(2.0 * means)), check=False)[1]
        assert scaled >= base - 1e-9


def test_info_mixture_normalized():
    from parity_scope.inference import _gain_integrands
    from scipy.integrate import simpson
    model = SignalModel(3.0, 0.0, (0.3, -1.2, 2.0, 0.9))
    grid, density, _, _ = _gain_integrands(model, 4001)
    assert simpson(density, x=grid) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# phase optimization
# ---------------------------------------------------------------------------

def test_optimal_phase_real_signal():
    integrals = [complex(b, 0.0) for b in (3.0, 1.0, -1.0, -3.0)]
    phi, _ = optimal_phase(integrals, 1.0)
    assert min(phi, math.pi - phi) < 1e-3


def test_optimal_phase_quadrature_selection():
    # identical real parts, information only in the imaginary quadrature
    integrals = [complex(1.0, b) for b in (3.0, 1.0, -1.0, -3.0)]
    phi, _ = optimal_phase(integrals, 1.0)
    assert phi == pytest.approx(math.pi / 2, abs=1e-3)


def test_optimal_phase_covariance():
    rng = np.random.default_rng(23)
    integrals = [complex(*rng.normal(0, 2, 2)) for _ in range(4)]
    phi0, gain0 = optimal_phase(integrals, 2.0)
    theta = 0.7
    rotated = [b * np.exp(1j * theta) for b in integrals]
    phi1, gain1 = optimal_phase(rotated, 2.0)
    assert (phi1 - phi0 - theta) % math.pi == pytest.approx(0.0, abs=3e-3) \
        or (phi1 - phi0 - theta) % math.pi == pytest.approx(math.pi, abs=3e-3)
    assert gain1 == pytest.approx(gain0, abs=1e-9)


def test_phase_periodicity():
    integrals = [complex(1.0, -0.3), complex(0.2, 0.8), complex(-0.5, 0.1), complex(0.9, 0.4)]
    tau = 2.0
    for phi in (0.3, 1.1, 2.4):
        a = info_gains(SignalModel(tau, phi, means_from_integrals(integrals, phi)), check=False)
        b = info_gains(SignalModel(tau, phi + math.pi,
                                   means_from_integrals(integrals, phi + math.pi)), check=False)
        assert a[1] == pytest.approx(b[1], abs=1e-9)
        assert a[0] == pytest.approx(b[0], abs=1e-9)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_sweep_point_without_shifts_learns_nothing():
    from parity_scope.inference import chi_sweep
    points = chi_sweep([(0.0, 0.0)], 1.0, reference_pulse(), 28.0, workers=1)
    assert abs(points[0].info_parity) < 1e-9
    assert abs(points[0].info_hamming) < 1e-9


def test_sweep_bit_identical_across_worker_counts():
    from parity_scope.inference import chi_sweep
    pairs = [(0.4, 0.4), (0.5, 0.5), (0.6, 0.3)]
    serial = chi_sweep(pairs, 1.0, reference_pulse(), 28.0, workers=1)
    parallel = chi_sweep(pairs, 1.0, reference_pulse(), 28.0, workers=2)
    assert serial == parallel


def test_sweep_reversed_pairs_give_reversed_rows():
    # each point is scored on its own: input order is output order, bitwise
    from parity_scope.inference import chi_sweep
    pairs = [(0.3, 0.3), (0.5, 0.5), (0.7, 0.3), (1.0, 0.6)]
    forward = chi_sweep(pairs, 1.0, reference_pulse(), 28.0)
    assert chi_sweep(pairs[::-1], 1.0, reference_pulse(), 28.0) == forward[::-1]


def test_sweep_rows_are_the_rate_less_report():
    # one scoring path: a sweep row is analyze_trajectories' report on the
    # same stacked trajectories, and the rate series leaves the phase and the
    # gains at tau as they are, bitwise
    from parity_scope.dynamics import evolve_weights
    from parity_scope.inference import chi_sweep
    [point] = chi_sweep([(0.6, 0.3)], 1.0, reference_pulse(), 28.0)
    trajectories = evolve_weights(reference_setup(0.6, 0.3), range(4), 28.0)
    bare = analyze_trajectories(trajectories, 28.0, with_rates=False)
    assert (point.phase, point.info_hamming, point.info_parity) == (
        bare.optimal_phase, bare.info_hamming, bare.info_parity)
    full = analyze_trajectories(trajectories, 28.0)
    assert (full.optimal_phase, full.info_hamming, full.info_parity) == (
        bare.optimal_phase, bare.info_hamming, bare.info_parity)
    assert full.rate_parity is not None and bare.rate_parity is None


def test_sweep_runs_richardson_guard(monkeypatch):
    from parity_scope import dynamics
    from parity_scope.inference import chi_sweep
    monkeypatch.setattr(dynamics, "RECORD_TARGET", 50)
    with pytest.raises(GridTooCoarse):
        chi_sweep([(0.5, 0.5)], 1.0, reference_pulse(), 28.0, workers=1)


def test_rates_zero_for_constant_gain():
    taus = np.linspace(0, 10, 57)
    rates = measurement_rates(taus, np.full(57, 0.25))
    assert np.allclose(rates, 0.0, atol=1e-12)


def test_rates_integrate_back():
    taus = np.linspace(0, 10, 201)
    gains = 1 - np.exp(-taus / 3.0)
    rates = measurement_rates(taus, gains)
    assert abs(np.trapezoid(rates, taus) - gains[-1]) < 1e-3


def test_rates_reject_coarse_grid():
    taus = np.linspace(0, 10, 5)
    gains = np.sin(taus) ** 2
    with pytest.raises(GridTooCoarse):
        measurement_rates(taus, gains)


def test_rates_fail_closed_on_nan():
    # a NaN gain makes the rate integral NaN, which no tolerance admits
    with pytest.raises(GridTooCoarse):
        measurement_rates([0.0, 1.0, 2.0, 3.0], [0.0, math.nan, 1.0, 1.5])


# ---------------------------------------------------------------------------
# end-to-end report on the published pulse
# ---------------------------------------------------------------------------

def test_report_reference_point(reference_trajectories):
    report = analyze_trajectories(reference_trajectories, 28.0)
    # symmetric chi = kappa/2: nearly all parity information is collected,
    # and the weight-parity difference stays small
    assert report.info_parity > 0.98
    assert report.missing_parity > 0.0
    assert report.delta_info < 5e-3
    assert 0.0 <= report.optimal_phase < math.pi
    # rate series integrates back to the endpoint gain
    assert abs(np.trapezoid(report.rate_parity, report.tau_grid)
               - report.info_parity_series[-1]) < 1e-3


def test_report_rate_zero_before_switch_on(reference_trajectories):
    report = analyze_trajectories(reference_trajectories, 28.0)
    before = report.tau_grid < 1.0
    assert np.all(np.abs(np.asarray(report.rate_parity)[before]) < 1e-6)


def test_report_validation():
    with pytest.raises(ValueError):
        InfoGainReport(1.0, 0.0, info_hamming=0.2, info_parity=0.8)
    with pytest.raises(ValueError):
        InfoGainReport(1.0, 0.0, info_hamming=2.3, info_parity=0.5)


def test_overflowed_signal_is_a_named_error():
    # exit 4 on the command line instead of a traceback
    with pytest.raises(NonFiniteSignal):
        SignalModel(1.0, 0.0, (0.0, 1.0, math.inf, 2.0))
    with pytest.raises(NonFiniteSignal):
        SignalModel(1.0, 0.0, (0.0, math.nan, 1.0, 2.0))
    with pytest.raises(NonFiniteSignal):
        InfoGainReport(1.0, 0.0, info_hamming=math.nan, info_parity=math.nan)
    with pytest.raises(NonFiniteSignal):
        InfoGainReport(1.0, 0.0, info_hamming=1.0, info_parity=math.nan)


def test_signal_model_requires_all_weights(reference_trajectories):
    with pytest.raises(ValueError):
        signal_model(reference_trajectories[:3], 0.0, 28.0)


def test_output_integral_matches_means(reference_trajectories):
    # means computed via cached complex integrals equal the direct quadrature
    tau, phi = 28.0, 0.8
    integrals = [output_integral(tr, tau) for tr in reference_trajectories]
    means = means_from_integrals(integrals, phi)
    for tr, mean in zip(reference_trajectories, means):
        assert integrated_signal(tr, phi, tau) == pytest.approx(mean, rel=1e-12)


# ---------------------------------------------------------------------------
# stacked gain kernel, coarse phase scan and cumulative signal layer
# ---------------------------------------------------------------------------

def reference_optimal_phase(integrals, tau):
    """Per-call phase search: every coarse phase scored by its own
    ``info_gains`` call at the full quadrature, then the golden-section
    refinement.  Returns ``(bracket index, phase, info_parity)``."""
    from parity_scope.inference import PHASE_COARSE_POINTS, PHASE_TOLERANCE

    def objective(phi):
        model = SignalModel(tau, phi, means_from_integrals(integrals, phi))
        return info_gains(model, check=False)[1]

    phis = np.linspace(0.0, math.pi, PHASE_COARSE_POINTS, endpoint=False)
    best = int(np.argmax([objective(p) for p in phis]))
    span = math.pi / PHASE_COARSE_POINTS
    lo, hi = phis[best] - span, phis[best] + span
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > PHASE_TOLERANCE:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = objective(d)
    phi_star = ((lo + hi) / 2.0) % math.pi
    return best, phi_star, objective(phi_star)


@pytest.mark.parametrize("convention", ["tau", "tau-squared"])
@pytest.mark.parametrize("points", [201, 4001])
def test_stacked_gains_match_single_calls(convention, points):
    from parity_scope.inference import _gains_and_masses
    rng = np.random.default_rng(41)
    means = rng.uniform(-5.0, 5.0, size=(45, 4))
    taus = rng.uniform(0.5, 6.0, size=45)
    variances = taus if convention == "tau" else taus ** 2
    stacked = _gains_and_masses(means, variances, points)[0]
    for row, mu, variance in zip(stacked, means, variances):
        # a signal model's variance is its measurement time
        single = info_gains(SignalModel(variance, 0.0, tuple(mu)),
                            points=points, check=False)
        assert np.max(np.abs(row - single)) <= 1e-13


def test_optimal_phase_matches_per_call_scan():
    from parity_scope.config import preset
    from parity_scope.inference import _phase_bracket, PHASE_COARSE_POINTS
    cfg = preset("fig4-cuts")
    kappa = max(cfg.kappa1, cfg.kappa2)
    pulse = cfg.pulse.resolve(kappa)
    tau = cfg.analysis.resolve_measurement_time(kappa)
    sweep = cfg.analysis.sweep
    grid = np.linspace(sweep.minimum, sweep.maximum, sweep.points)
    phis = np.linspace(0.0, math.pi, PHASE_COARSE_POINTS, endpoint=False)
    for chi1, chi2 in [(grid[0], grid[0]), (grid[22], grid[22]), (grid[60], grid[60]),
                       (grid[10], sweep.asymmetric_chi2), (grid[45], sweep.asymmetric_chi2)]:
        model = DispersiveModel(0.0, 0.0, 0.0, chi1 * kappa, chi2 * kappa, 0.0, 0.0)
        det = parity_detunings(model, kappa, kappa).plus_branch
        setup = MeasurementSetup(kappa, kappa, det[0], det[1], model, pulse)
        integrals = [output_integral(evolve(setup, hw, tau), tau) for hw in range(4)]
        best, phi_ref, gain_ref = reference_optimal_phase(integrals, tau)
        assert _phase_bracket(integrals, phis, tau) == best
        assert optimal_phase(integrals, tau) == (phi_ref, gain_ref)


def test_phase_scan_rescores_near_ties(monkeypatch):
    # on a 9- to 13-point quadrature the cheap scan ranks a far peak first;
    # its measured error puts the true peak within reach, so the candidates
    # are re-scored at their own gain quadrature and the per-call bracket is
    # kept
    from parity_scope import inference
    integrals = [complex(0.002, -0.682), complex(0.448, -1.487),
                 complex(-0.411, 0.09), complex(-1.336, 2.01)]
    tau = 1.0
    phis = np.linspace(0.0, math.pi, inference.PHASE_COARSE_POINTS, endpoint=False)
    means = inference._project(np.asarray(integrals), phis[:, None])
    variance = np.full(phis.size, tau)
    cheap = inference._gains_and_masses(means, variance, 9)[0][:, 1]
    best, phi_ref, gain_ref = reference_optimal_phase(integrals, tau)
    assert int(np.argmax(cheap)) != best

    monkeypatch.setattr(inference, "PHASE_SCAN_DENSITY", 0.4)
    rescored = []
    gains_and_masses = inference._gains_and_masses

    def spy(means, variance, points=None):
        if points is None:      # the re-scoring call: each rival at its own count
            rescored.append(len(means))
        return gains_and_masses(means, variance, points)

    monkeypatch.setattr(inference, "_gains_and_masses", spy)
    assert inference._phase_bracket(integrals, phis, tau) == best
    assert rescored and rescored[0] > 1
    assert optimal_phase(integrals, tau) == (phi_ref, gain_ref)


# ---------------------------------------------------------------------------
# sigma-scaled gain quadrature and the lockstep sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variance", [1.0, 28.0])
def test_sigma_scaled_gains_match_the_fixed_grid(variance):
    # 16 nodes per sigma give the 4001-node grid's gains over a ladder of
    # spreads up to the cap; past it the grid is the 4001-node grid itself
    from parity_scope.inference import _quadrature_points, QUADRATURE_DENSITY
    sigma = math.sqrt(variance)
    for spread in np.linspace(0.0, 230.0, 24):
        for shape in ((0.0, 0.3, 0.55, 1.0), (0.0, 1.0, 0.2, 0.7), (1.0, 0.0, 0.0, 1.0)):
            model = SignalModel(variance, 0.0, tuple(1.3 + spread * sigma * np.array(shape)))
            scaled = info_gains(model, check=False)
            fixed = info_gains(model, points=4001, check=False)
            assert np.max(np.abs(np.subtract(scaled, fixed))) <= 1e-13
    for spread in (235.0, 300.0, 1e3):
        model = SignalModel(variance, 0.0, (0.0, 0.4 * spread * sigma, spread * sigma, 0.5))
        points = _quadrature_points(np.array([model.means]), np.array([variance]),
                                    QUADRATURE_DENSITY)
        assert points.tolist() == [4001]
        assert info_gains(model, check=False) == info_gains(model, points=4001, check=False)


def test_quadrature_points_scale_with_sigma():
    from parity_scope.inference import _quadrature_points
    means = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0], [0.0, 3e300, -3e300, 0.0]])
    variance = np.array([1.0, 5.0, 1.0])
    with np.errstate(over="ignore"):
        assert _quadrature_points(means, variance, 16).tolist() == [305, 257, 4001]
        assert _quadrature_points(means, variance, 8, 4).tolist() == [153, 129, 4001]
    # the same models at 4 and 36 times the variance, with means twice and
    # six times as far apart: one count
    assert np.array_equal(_quadrature_points(means[:2] * 2.0, variance[:2] * 4.0, 16),
                          _quadrature_points(means[:2] * 6.0, variance[:2] * 36.0, 16))


def test_doubling_check_runs_at_twice_the_density(monkeypatch):
    # at 2 nodes per sigma the parity integrand is under-resolved while the
    # density still integrates to 1: only the doubling check catches it
    from parity_scope import inference
    monkeypatch.setattr(inference, "QUADRATURE_DENSITY", 2)
    grids = []
    gain_integrands = inference._gain_integrands

    def spy(model, points, *hamming):
        grids.append(points)
        return gain_integrands(model, points, *hamming)
    monkeypatch.setattr(inference, "_gain_integrands", spy)
    model = SignalModel(1.0, 0.0, (0.0, 2.0, 4.0, 6.0))
    info_gains(model, check=False)
    with pytest.raises(QuadratureNonconvergent, match="doubling the grid moved"):
        info_gains(model)
    assert grids == [45, 45, 89]


def test_stacked_info_gains_equal_single_calls_bitwise():
    # rows of several node counts, the doubling check included
    from parity_scope.inference import _ModelStack, _node_counts
    rng = np.random.default_rng(7)
    means = rng.uniform(-8.0, 8.0, size=(12, 4)) * rng.uniform(0.1, 3.0, size=(12, 1))
    taus = rng.uniform(0.5, 6.0, size=12)
    assert np.unique(_node_counts(means, taus, None)).size > 6
    for check in (False, True):
        hamming, parity = info_gains(_ModelStack(means, taus), check=check)
        for row, tau in enumerate(taus):
            single = info_gains(SignalModel(tau, 0.0, tuple(means[row])), check=check)
            assert (hamming[row], parity[row]) == single


def test_stacked_optimal_phase_equals_single_searches_bitwise():
    rng = np.random.default_rng(11)
    integrals = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    phases, gains = optimal_phase(integrals, 2.0)
    for row in range(5):
        assert (phases[row], gains[row]) == optimal_phase(list(integrals[row]), 2.0)


def published_points(pairs):
    """The gain-grid node count of each sweep point's published model."""
    from parity_scope.dynamics import evolve_weights
    from parity_scope.inference import _node_counts, chi_sweep
    counts = []
    for pair, point in zip(pairs, chi_sweep(pairs, 1.0, reference_pulse(), 28.0)):
        trajectories = evolve_weights(reference_setup(*pair), range(4), 28.0)
        means = [integrated_signal(tr, point.phase, 28.0) for tr in trajectories]
        counts.append(int(_node_counts(np.array([means]), np.array([28.0]), None)[0]))
    return counts


def test_sweep_point_does_not_depend_on_its_neighbours():
    from parity_scope.inference import chi_sweep
    p, q, r = (0.5, 0.5), (0.1, 0.1), (0.8, 0.8)
    assert len(set(published_points([p, q, r]))) == 3
    [alone] = chi_sweep([p], 1.0, reference_pulse(), 28.0)
    assert chi_sweep([q, p, r], 1.0, reference_pulse(), 28.0)[1] == alone


def test_sweep_step_bound_names_the_first_failing_point():
    # dt = 1e-3 passes the bound below |detuning| + 3 chi = 10 kappa only
    from parity_scope.errors import StepTooLarge
    from parity_scope.inference import chi_sweep
    pairs = [(0.5, 0.5), (4.0, 0.5), (5.0, 5.0), (0.6, 0.6)]
    with pytest.raises(StepTooLarge, match=r"^chi1/kappa = 4\.0, chi2/kappa = 0\.5: dt ="):
        chi_sweep(pairs, 1.0, reference_pulse(), 28.0)


def test_sweep_probe_names_the_first_failing_point(monkeypatch):
    # the half-step runs of the second point disagree and of the third read
    # NaN, the larger failure: the error is the second point's, as scoring
    # the points one by one would raise it; a probe failure before the first
    # point dt fails comes first too
    from parity_scope import dynamics
    from parity_scope.errors import StepTooLarge
    from parity_scope.inference import chi_sweep
    integrate = dynamics._integrate

    def poisoned(m, u, pulse, dt, n_steps, stride):
        rec1, rec2 = integrate(m, u, pulse, dt, n_steps, stride)
        if dt < 1e-3:
            rec1[5, -1] += 1.0
            rec1[8:12, -1] = math.nan
        return rec1, rec2
    monkeypatch.setattr(dynamics, "_integrate", poisoned)
    pairs = [(0.5, 0.5), (0.6, 0.6), (0.7, 0.3), (0.8, 0.8)]
    with pytest.raises(StepTooLarge,
                       match=r"^chi1/kappa = 0\.6, chi2/kappa = 0\.6: h_w=1: .* [0-9.e+-]+ > "):
        chi_sweep(pairs, 1.0, reference_pulse(), 28.0)
    with pytest.raises(StepTooLarge, match=r"^chi1/kappa = 0\.6, chi2/kappa = 0\.6: h_w=1: "):
        chi_sweep(pairs[:2] + [(5.0, 5.0)], 1.0, reference_pulse(), 28.0)


def test_sweep_in_chunks_equals_one_pass(monkeypatch):
    # long sweeps are scored SWEEP_CHUNK points at a time, bit for bit alike
    from parity_scope import inference
    pairs = [(0.3, 0.3), (0.5, 0.5), (0.7, 0.3), (1.0, 0.6), (0.2, 0.9)]
    whole = inference.chi_sweep(pairs, 1.0, reference_pulse(), 28.0)
    monkeypatch.setattr(inference, "SWEEP_CHUNK", 2)
    assert inference.chi_sweep(pairs, 1.0, reference_pulse(), 28.0) == whole


def test_analyze_runs_richardson_guard(monkeypatch):
    from parity_scope import dynamics
    monkeypatch.setattr(dynamics, "RECORD_TARGET", 50)
    trajectories = [evolve(reference_setup(), hw, 28.0) for hw in range(4)]
    with pytest.raises(GridTooCoarse):
        analyze_trajectories(trajectories, 28.0, tau_points=26)
    with pytest.raises(GridTooCoarse):
        analyze_trajectories(trajectories, 28.0, with_rates=False)


def test_analysis_memory_peaks(reference_trajectories):
    # tracemalloc peaks of the per-call implementation (numpy 2.4, scipy
    # 1.17): 1.01 MB for one phase search, 2.11 MB for one full report
    import tracemalloc
    integrals = [output_integral(tr, 28.0) for tr in reference_trajectories]
    for run, bound in ((lambda: optimal_phase(integrals, 28.0), 1.01e6),
                       (lambda: analyze_trajectories(reference_trajectories, 28.0), 2.11e6)):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * bound


def test_cumulative_simpson_matches_scipy_prefixes():
    from scipy.integrate import simpson
    from parity_scope.inference import _cumulative_simpson
    rng = np.random.default_rng(3)
    t = np.cumsum(rng.uniform(0.5, 1.5, 40))
    y = rng.normal(size=40) + 1j * rng.normal(size=40)
    cumulative = _cumulative_simpson(t, y)
    assert cumulative[0] == 0.0
    for k in range(1, t.size):
        direct = complex(simpson(y[:k + 1].real, x=t[:k + 1]),
                         simpson(y[:k + 1].imag, x=t[:k + 1]))
        assert abs(cumulative[k] - direct) <= 1e-13 * max(1.0, abs(direct))


def test_one_tau_integral_is_the_cumulative_entry_bitwise(reference_trajectories):
    # one tau sums only the panels up to it: the cumulative pass's bits at
    # every even and odd index, on the fine grid and on the half grid that
    # the Richardson check reads
    from parity_scope.inference import _cumulative_simpson, _simpson_at
    rng = np.random.default_rng(8)
    t = np.cumsum(rng.uniform(0.5, 1.5, 41))
    y = rng.normal(size=41) + 1j * rng.normal(size=41)
    traj = reference_trajectories[2]
    for t, y in ((t, y), (t[::2], y[::2]), (traj.times, traj.output),
                 (traj.times[::2], traj.output[::2])):
        cumulative = _cumulative_simpson(t, y)
        for k in [*range(min(t.size, 41)), t.size - 2, t.size - 1]:
            assert np.array_equal(_simpson_at(t, y, np.array([k])), cumulative[[k]])
    for k in (traj.times.size - 1, traj.times.size - 2, 1001, 1000):
        tau = traj.times[k]
        assert output_integral(traj, tau) == _cumulative_simpson(traj.times, traj.output)[k]
        assert integrated_signal(traj, 0.7, tau) == integrated_signal(
            traj, 0.7, np.array([tau, traj.times[3]]))[0]


@pytest.mark.parametrize("points", [101, 201, 4001, 8001])
def test_simpson_bitwise_equals_scipy(points):
    # the gain kernel's own grids and integrands, a stack of models at once
    from scipy.integrate import simpson
    from parity_scope.inference import _gain_integrands, _ModelStack, _simpson
    rng = np.random.default_rng(points)
    stack = _ModelStack(rng.normal(scale=3.0, size=(3, 4)), rng.uniform(0.5, 30.0, 3))
    grid, density, info_hw, info_parity = _gain_integrands(stack, points)
    for y in (density * info_hw, density * info_parity):
        for sub in (slice(None), slice(None, None, 2)):
            assert np.array_equal(_simpson(y[:, sub], grid[:, sub]),
                                  simpson(y[:, sub], x=grid[:, sub]))
    t = np.cumsum(rng.uniform(0.5, 1.5, points))
    assert np.array_equal(_simpson(y, t), simpson(y, x=t))
    with pytest.raises(ValueError, match="odd"):
        _simpson(y[:, 1:], grid[:, 1:])


def test_signal_series_matches_per_tau_quadrature(reference_trajectories):
    # one cumulative pass gives every tau what re-integrating from 0 gives
    from scipy.integrate import simpson
    traj, phase = reference_trajectories[1], 0.9
    taus = np.linspace(0.0, 28.0, 57)[1:]
    series = integrated_signal(traj, phase, taus)
    integrand = 2.0 * np.real(np.exp(-1j * phase) * traj.output)
    for tau, mean in zip(taus, series):
        idx = int(np.argmin(np.abs(traj.times - tau)))
        direct = simpson(integrand[:idx + 1], x=traj.times[:idx + 1])
        assert mean == pytest.approx(direct, rel=1e-12, abs=1e-12)
        assert integrated_signal(traj, phase, tau) == mean


def test_report_guards_every_tau_of_the_series():
    # a +/- pair of spikes on odd samples cancels in the full-grid quadrature
    # by the end, so only the intermediate tau points see the half grid
    # disagree: the final-tau report passes, the rate series must not
    from parity_scope.dynamics import Trajectory
    t = np.linspace(0.0, 10.0, 201)
    output = np.zeros(t.size, dtype=complex)
    output[51], output[151] = 1.0, -1.0
    trajectories = [Trajectory(times=t, alpha1=np.zeros_like(output),
                               alpha2=np.zeros_like(output), drive=np.zeros_like(t),
                               output=output, hamming_weight=hw, step=t[1] - t[0])
                    for hw in range(4)]
    analyze_trajectories(trajectories, 10.0, phase=0.0, with_rates=False)
    with pytest.raises(GridTooCoarse):
        analyze_trajectories(trajectories, 10.0, phase=0.0, tau_points=11)
