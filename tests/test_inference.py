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
    assert not np.any(integrated_signal(output_integral([setup], [28.0]), 0.3))


def test_integrated_signal_phase_flip():
    integral = output_integral([reference_setup()], [28.0])[0, 0, 0]
    plus = integrated_signal(integral, 0.4)
    minus = integrated_signal(integral, 0.4 + math.pi)
    assert minus == pytest.approx(-plus, rel=1e-12)


def test_integrated_signal_constant_output():
    # once the ring-up has decayed on a long flat top, the output is the
    # constant r eps, r the reflection coefficient: the integral grows by
    # r eps dtau, and its mean by 2 Re(exp(-i phi) r eps) dtau
    from parity_scope.dynamics import mode_matrix, reflection
    eps = 0.5
    setup = reference_setup()
    setup = MeasurementSetup(1.0, 1.0, setup.detuning1, setup.detuning2, setup.model,
                             DrivePulse(eps, 1.0, 0.5, 1e3))
    slowest = min(-np.linalg.eigvals(mode_matrix(setup, hw)).real.max() for hw in range(4))
    start = 1.5 + 40.0 / slowest
    integrals = output_integral([setup], [start, start + 5.0])[0]
    for hw in range(4):
        c = reflection(setup, hw) * eps
        for phase in (0.0, 1.1):
            assert integrated_signal(integrals[hw, 1] - integrals[hw, 0], phase) == pytest.approx(
                integrated_signal(c, phase) * 5.0, rel=1e-10, abs=1e-12)


def test_integrated_signal_off_grid_tau():
    # every tau is exact: there is no grid for 28/3 to miss
    setup = reference_setup()
    integrals = output_integral([setup], [28.0 / 3.0])[0, :, 0]
    for hw in range(4):
        exact = exact_output_integral(setup, hw, 28.0 / 3.0)
        assert abs(integrals[hw] - exact) <= 1e-13 * abs(exact)


def test_integrated_signal_fails_closed_on_nan():
    # a ramp so short that pi / ramp overflows makes the ramp's propagator
    # NaN: the output integral raises rather than hand it to integrated_signal.
    # A tau before the ramp never meets it
    setup = reference_setup()
    setup = MeasurementSetup(1.0, 1.0, setup.detuning1, setup.detuning2, setup.model,
                             DrivePulse(0.5, 1e-310, 1.0, 16.0))
    with pytest.raises(NonFiniteSignal, match="is not finite"):
        output_integral([setup], [28.0])
    assert not np.any(output_integral([setup], [0.5]))


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
    from parity_scope.inference import _ModelStack
    means = np.array([[0.0, 1.0, 2.0, 3.0]] * 3 + [[0.0, 1e5, 2e5, 3e5]])
    with pytest.raises(QuadratureNonconvergent, match="density integrates"):
        info_gains(_ModelStack(means, np.ones(4)), points=4001, check=False)


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
    # same setup, and the rate series leaves the phase and the gains at tau
    # as they are, bitwise
    from parity_scope.inference import chi_sweep
    [point] = chi_sweep([(0.6, 0.3)], 1.0, reference_pulse(), 28.0)
    setup = reference_setup(0.6, 0.3)
    bare = analyze_trajectories(setup, 28.0, tau_points=None)
    assert (point.optimal_phase, point.info_hamming, point.info_parity) == (
        bare.optimal_phase, bare.info_hamming, bare.info_parity)
    full = analyze_trajectories(setup, 28.0)
    assert (full.optimal_phase, full.info_hamming, full.info_parity) == (
        bare.optimal_phase, bare.info_hamming, bare.info_parity)
    assert full.rate_parity is not None and bare.rate_parity is None


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

def test_report_reference_point():
    report = analyze_trajectories(reference_setup(), 28.0)
    # symmetric chi = kappa/2: nearly all parity information is collected,
    # and the weight-parity difference stays small
    assert report.info_parity > 0.98
    assert report.missing_parity > 0.0
    assert report.delta_info < 5e-3
    assert 0.0 <= report.optimal_phase < math.pi
    # rate series integrates back to the endpoint gain
    assert abs(np.trapezoid(report.rate_parity, report.tau_grid)
               - report.info_parity_series[-1]) < 1e-3


def test_report_rate_zero_before_switch_on():
    report = analyze_trajectories(reference_setup(), 28.0)
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


def test_output_integral_matches_means():
    # means computed via cached complex integrals equal the projected integrals
    tau, phi = 28.0, 0.8
    integrals = output_integral([reference_setup()], [tau])[0, :, 0]
    means = means_from_integrals(integrals, phi)
    for integral, mean in zip(integrals, means):
        assert integrated_signal(integral, phi) == pytest.approx(mean, rel=1e-12)


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
        integrals = list(output_integral([setup], [tau])[0, :, 0])
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
    means = integrated_signal(np.asarray(integrals), phis[:, None])
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
    from parity_scope.inference import _node_counts, chi_sweep
    counts = []
    for pair, point in zip(pairs, chi_sweep(pairs, 1.0, reference_pulse(), 28.0)):
        integrals = output_integral([reference_setup(*pair)], [28.0])[0, :, 0]
        means = integrated_signal(integrals, point.optimal_phase)
        counts.append(int(_node_counts(np.array([means]), np.array([28.0]), None)[0]))
    return counts


def test_sweep_point_does_not_depend_on_its_neighbours():
    from parity_scope.inference import chi_sweep
    p, q, r = (0.5, 0.5), (0.1, 0.1), (0.8, 0.8)
    assert len(set(published_points([p, q, r]))) == 3
    [alone] = chi_sweep([p], 1.0, reference_pulse(), 28.0)
    assert chi_sweep([q, p, r], 1.0, reference_pulse(), 28.0)[1] == alone


def test_sweep_in_chunks_equals_one_pass(monkeypatch):
    # long sweeps are scored SWEEP_CHUNK points at a time, and their
    # propagators formed EXPM_CHUNK matrices at a time, bit for bit alike
    from parity_scope import inference, matfuncs
    pairs = [(0.3, 0.3), (0.5, 0.5), (0.7, 0.3), (1.0, 0.6), (0.2, 0.9)]
    whole = inference.chi_sweep(pairs, 1.0, reference_pulse(), 28.0)
    monkeypatch.setattr(inference, "SWEEP_CHUNK", 2)
    assert inference.chi_sweep(pairs, 1.0, reference_pulse(), 28.0) == whole
    monkeypatch.setattr(inference, "SWEEP_CHUNK", 8)
    monkeypatch.setattr(matfuncs, "EXPM_CHUNK", 7)
    assert inference.chi_sweep(pairs, 1.0, reference_pulse(), 28.0) == whole


@pytest.fixture(scope="module")
def three_points():
    """The setups of three distinct points."""
    return [reference_setup(*pair) for pair in ((0.5, 0.5), (0.7, 0.3), (0.2, 0.9))]


def assert_same_report(stacked, alone):
    # field by field, bit for bit: numbers, the tau grid, series and rates
    for name in InfoGainReport._fields:
        a, b = getattr(stacked, name), getattr(alone, name)
        assert type(a) is type(b), name
        if a is not None:
            assert np.shape(a) == np.shape(b), name
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


@pytest.mark.parametrize("rates", [False, True])
@pytest.mark.parametrize("phase", ["optimal", 0.7])
def test_stacked_analysis_equals_single_reports_bitwise(three_points, phase, rates):
    # the stacked scorer under analyze_trajectories and chi_sweep: one phase
    # search for every point, then each point scored as if alone
    from parity_scope.inference import _analyze
    tau_points = 57 if rates else None
    tau_grid = np.linspace(0.0, 28.0, tau_points) if rates else None
    taus = tau_grid[1:] if rates else np.array([28.0])
    reports = _analyze(output_integral(three_points, taus), 28.0, phase, tau_grid)
    assert len({report.info_parity for report in reports}) == 3
    assert all((report.rate_parity is not None) == rates for report in reports)
    for setup, report in zip(three_points, reports):
        assert_same_report(report, analyze_trajectories(
            setup, 28.0, phase=phase, tau_points=tau_points))


def test_sweep_chunks_run_one_phase_search_and_one_evolve_each(monkeypatch):
    # each SWEEP_CHUNK of points shares one output_integral call and one
    # stacked phase search: a per-point search would show here, not only in
    # timings
    from parity_scope import inference
    searches, integrals = [], []
    search, integral = inference.optimal_phase, inference.output_integral

    def spy_search(stack, tau):
        searches.append(len(stack))
        return search(stack, tau)

    def spy_integral(setups, taus):
        integrals.append(len(setups))
        return integral(setups, taus)
    monkeypatch.setattr(inference, "optimal_phase", spy_search)
    monkeypatch.setattr(inference, "output_integral", spy_integral)
    chunk = inference.SWEEP_CHUNK
    pairs = [(0.1 + 0.05 * k, 0.3) for k in range(2 * chunk + 1)]
    assert len(inference.chi_sweep(pairs, 1.0, reference_pulse(), 28.0)) == len(pairs)
    assert searches == integrals == [chunk, chunk, 1]


def test_each_trajectory_is_integrated_once(monkeypatch, tmp_path):
    # one output_integral call, and in it one stacked matrix exponential, per
    # scoring pass: simulate integrates its four weights at all 56 taus at
    # once, and a two-chunk sweep its points once per chunk
    from parity_scope import inference
    from parity_scope.cli import main
    calls = []
    integral, expm = inference.output_integral, inference._expm

    def spy_integral(setups, taus):
        calls.append((len(setups), len(taus)))
        return integral(setups, taus)

    def spy_expm(a):
        calls.append(a.shape)
        return expm(a)
    monkeypatch.setattr(inference, "output_integral", spy_integral)
    monkeypatch.setattr(inference, "_expm", spy_expm)
    argv = ["simulate", "--preset", "paper-sec5-symmetric", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    # the four whole pieces before 28/kappa, then the 56 taus
    assert calls == [(1, 56), (1, 4, 60, 6, 6)]
    calls.clear()
    monkeypatch.setattr(inference, "SWEEP_CHUNK", 2)
    inference.chi_sweep([(0.3, 0.3), (0.5, 0.5), (0.7, 0.3)], 1.0, reference_pulse(), 28.0)
    assert calls == [(2, 1), (2, 4, 5, 6, 6), (1, 1), (1, 4, 5, 6, 6)]


def test_sweep_builds_no_trajectory(monkeypatch):
    # the sweep runs no RK4: no Trajectory, no record array
    from parity_scope import dynamics, inference

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a trajectory")
    monkeypatch.setattr(dynamics, "Trajectory", refuse)
    monkeypatch.setattr(dynamics, "_integrate", refuse)
    with pytest.raises(AssertionError, match="built a trajectory"):
        evolve(reference_setup(), 0, 28.0)
    [point] = inference.chi_sweep([(0.5, 0.5)], 1.0, reference_pulse(), 28.0)
    assert 0.0 < point.info_parity <= point.info_hamming


def test_sweep_peak_stays_below_its_records():
    # a 4-point sweep chunk never holds its 16 trajectories' records,
    # 2 x 2801 complex samples each (1.43 MB): the recurrence hands each
    # chunk of the output fields to the quadrature and keeps none
    import tracemalloc
    from parity_scope.inference import chi_sweep
    pairs = [(0.3, 0.3), (0.5, 0.5), (0.7, 0.3), (0.9, 0.6)]
    chi_sweep(pairs, 1.0, reference_pulse(), 28.0)
    tracemalloc.start()
    try:
        chi_sweep(pairs, 1.0, reference_pulse(), 28.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 * 2801 * np.dtype(complex).itemsize


def test_no_tau_points_gives_no_series():
    report = analyze_trajectories(reference_setup(), 28.0, tau_points=None)
    assert (report.tau_grid, report.info_hamming_series, report.info_parity_series,
            report.rate_hamming, report.rate_parity) == (None,) * 5
    full = analyze_trajectories(reference_setup(), 28.0)
    assert (full.info_parity, full.info_hamming) == (report.info_parity, report.info_hamming)


def test_analysis_memory_peaks():
    # tracemalloc peaks of the per-call implementation (numpy 2.4, scipy
    # 1.17): 1.01 MB for one phase search, 2.11 MB for one full report
    import tracemalloc
    setup = reference_setup()
    integrals = list(output_integral([setup], [28.0])[0, :, 0])
    for run, bound in ((lambda: optimal_phase(integrals, 28.0), 1.01e6),
                       (lambda: analyze_trajectories(setup, 28.0), 2.11e6)):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * bound


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("uniform", [False, True])
def test_quadrature_equals_scipy_bitwise_on_short_prefixes(seed, uniform):
    # the gain quadrature's Simpson on every odd prefix of up to 15 samples,
    # on any spacing, has scipy's bits
    from scipy.integrate import simpson
    from parity_scope.inference import _simpson
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 28.0, 40) if uniform else np.cumsum(rng.uniform(0.5, 1.5, 40))
    y = rng.normal(size=40)
    for k in range(2, 15, 2):
        assert _simpson(y[:k + 1], t[:k + 1]) == simpson(y[:k + 1], x=t[:k + 1])


@pytest.mark.parametrize("seed", range(6))
def test_quadrature_chunking_is_bitwise_invisible(seed, monkeypatch):
    # the gain quadrature scores a stack of models in passes of at most
    # GAIN_CHUNK grid samples, by node count: passes of any size, down to
    # one model each, give the bits of one pass over every model of a count
    from parity_scope import inference
    rng = np.random.default_rng(seed)
    means = rng.uniform(-8.0, 8.0, size=(30, 4)) * rng.uniform(0.1, 3.0, size=(30, 1))
    variance = rng.uniform(0.5, 6.0, 30)
    monkeypatch.setattr(inference, "GAIN_CHUNK", 10 ** 9)
    whole = inference._gains_and_masses(means, variance)
    for chunk in (1, int(rng.integers(300, 5000))):
        monkeypatch.setattr(inference, "GAIN_CHUNK", chunk)
        got = inference._gains_and_masses(means, variance)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, got))


def test_one_tau_integral_is_the_cumulative_entry_bitwise():
    # one tau is the tau series' entry, bit for bit, in every pulse piece and
    # on the joints (1, 5, 16 and 20); and a setup in a stack gets the bits it
    # gets alone
    setup = reference_setup()
    taus = np.array([0.5, 1.0, 3.0, 5.0, 10.0, 16.0, 18.0, 20.0, 28.0])
    series = output_integral([setup], taus)
    for k, tau in enumerate(taus):
        assert output_integral([setup], [tau])[..., 0].tobytes() == series[..., k].tobytes()
    stack = output_integral([reference_setup(0.3, 0.7), setup], taus)
    assert stack[1].tobytes() == series[0].tobytes()


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
    # the exact series at every tau against RK4 records integrated from 0 by
    # scipy's Simpson: within QUADRATURE_RTOL max(|mean|, 1)
    from scipy.integrate import simpson
    from parity_scope.inference import QUADRATURE_RTOL
    phase = 0.9
    taus = np.linspace(0.0, 28.0, 57)[1:]
    series = integrated_signal(output_integral([reference_setup()], taus)[0], phase)
    for traj, means in zip(reference_trajectories, series):
        integrand = integrated_signal(traj.output, phase)
        for tau, mean in zip(taus, means):
            idx = int(np.argmin(np.abs(traj.times - tau)))
            direct = simpson(integrand[:idx + 1], x=traj.times[:idx + 1])
            assert abs(mean - direct) <= QUADRATURE_RTOL * max(abs(mean), 1.0)


# ---------------------------------------------------------------------------
# exact oracle of the published homodyne integrals
# ---------------------------------------------------------------------------

def exact_output_integral(setup, hamming_weight, tau):
    """B(tau) = int_0^tau beta_out dt of the linear ODE, exactly.

    The state [a (2), zeta (3), B (1)] obeys one constant generator per
    pulse piece (Van Loan, IEEE TAC 23, 395, 1978): da/dt = M a - i sqrt(k)
    sum(zeta), dzeta/dt = diag(0, i pi/ramp, -i pi/ramp) zeta and dB/dt =
    sum(zeta) - i sqrt(k) . a, where sum(zeta) is the envelope c0 + 2 c1
    cos(pi (t - t_ref) / ramp) of the piece.  zeta is reset at each joint.
    """
    from scipy.linalg import expm
    from parity_scope.dynamics import mode_matrix
    pulse = setup.pulse
    eps, ramp, on, off = pulse.amplitude, pulse.ramp, pulse.t_on, pulse.t_off
    # (start, c0, c1, t_ref) of the pieces: off, rising, flat, falling, off
    pieces = [(-math.inf, 0.0, 0.0, 0.0), (on, eps / 2.0, -eps / 4.0, on),
              (on + ramp, eps, 0.0, 0.0), (off, eps / 2.0, eps / 4.0, off),
              (off + ramp, 0.0, 0.0, 0.0)]
    root = np.sqrt([setup.kappa1, setup.kappa2])
    generator = np.zeros((6, 6), dtype=complex)
    generator[:2, :2] = mode_matrix(setup, hamming_weight)
    generator[:2, 2:5] = -1j * root[:, None]
    generator[[3, 4], [3, 4]] = 1j * math.pi / ramp, -1j * math.pi / ramp
    generator[5, :2] = -1j * root
    generator[5, 2:5] = 1.0
    state = np.zeros(6, dtype=complex)
    for index, (start, c0, c1, t_ref) in enumerate(pieces):
        stop = min(pieces[index + 1][0] if index + 1 < len(pieces) else math.inf, tau)
        start = max(start, 0.0)
        if stop <= start:
            continue
        phase = math.pi / ramp * (start - t_ref)
        state[2:5] = c0, c1 * np.exp(1j * phase), c1 * np.exp(-1j * phase)
        state = expm(generator * (stop - start)) @ state
    return state[5]


def random_oracle_setups(seed):
    """Seeded setups with unequal kappas, random chis, switch and detunings,
    and a horizon that is no pulse joint.  Every other one runs to 700 /
    kappa, where a record block is ~0.25 / kappa, with a ramp shorter than
    that block yet long enough for the step."""
    rng = np.random.default_rng(seed)
    setups = []
    for k in range(4):
        kappa1, kappa2 = rng.uniform(0.6, 1.6, 2)
        model = DispersiveModel(0.0, 0.0, 0.0, *rng.uniform(-0.8, 0.8, 2), 0.0,
                                rng.uniform(-0.2, 0.2))
        t_on = rng.uniform(0.5, 2.0)
        if k % 2:
            horizon = rng.uniform(690.0, 710.0)
            ramp = rng.uniform(0.5, 0.9) * horizon / 2800
            t_off = t_on + rng.uniform(0.4, 0.6) * horizon
        else:
            ramp = rng.uniform(1.0, 4.0)
            t_off = t_on + rng.uniform(4.0, 8.0)
            horizon = t_off + (0.5 * ramp if k == 2 else rng.uniform(3.0, 6.0))
        pulse = DrivePulse(amplitude=rng.uniform(0.2, 0.7), ramp=ramp, t_on=t_on, t_off=t_off)
        setups.append((MeasurementSetup(kappa1, kappa2, *rng.uniform(-1.5, 1.5, 2), model,
                                        pulse), horizon))
    return setups


def assert_matches_the_oracle_and_rk4(setup, horizon, records=True):
    """The published integrals at three taus are the oracle's to 1e-13
    relative.  With ``records``, the evolve records at each weight,
    integrated by scipy's Simpson, lie within QUADRATURE_RTOL max(|mean|, 1)
    of the integral over the horizon, at any local-oscillator phase."""
    from scipy.integrate import simpson
    from parity_scope.inference import QUADRATURE_RTOL
    taus = horizon * np.array([1.0 / 7.0, 0.5, 1.0])
    published = output_integral([setup], taus)[0]
    for hw in range(4):
        for integral, tau in zip(published[hw], taus):
            exact = exact_output_integral(setup, hw, tau)
            assert abs(integral - exact) <= 1e-13 * abs(exact)
        if records:
            traj = evolve(setup, hw, horizon)
            for phase in np.linspace(0.0, math.pi, 8, endpoint=False):
                mean = integrated_signal(published[hw, -1], phase)
                direct = simpson(integrated_signal(traj.output, phase), x=traj.times)
                assert abs(mean - direct) <= QUADRATURE_RTOL * max(abs(mean), 1.0)


@pytest.mark.parametrize("chunk", [1024, 256])
def test_published_integrals_match_the_exact_oracle(monkeypatch, chunk):
    # the shipped path against the oracle, and against RK4 records (at
    # either recurrence chunk) integrated by Simpson.  The two 700 / kappa
    # runs ramp within one record block, which no quadrature on the records
    # resolves: only the oracle checks them
    from parity_scope import dynamics
    monkeypatch.setattr(dynamics, "RECURRENCE_CHUNK", chunk)
    for k, (setup, horizon) in enumerate(random_oracle_setups(27)):
        assert_matches_the_oracle_and_rk4(setup, horizon, records=k % 2 == 0)


@pytest.mark.parametrize("name", ["paper-sec5-symmetric", "paper-sec5-asymmetric"])
def test_preset_integrals_match_the_exact_oracle(name):
    from parity_scope.config import derive_scenario, preset
    cfg = preset(name)
    report = derive_scenario(cfg)
    assert_matches_the_oracle_and_rk4(report.measurement_setup(),
                                      cfg.analysis.resolve_measurement_time(report.kappa))


def test_ramps_shorter_than_a_record_block_are_scored():
    # the 700 / kappa runs: on the record grid their integrals were 1e-5 to
    # 5e-5 off, and the Richardson guard refused them (exit 4); exact, they score
    for setup, horizon in random_oracle_setups(27)[1::2]:
        report = analyze_trajectories(setup, horizon, tau_points=None)
        assert 0.0 < report.info_parity <= report.info_hamming
