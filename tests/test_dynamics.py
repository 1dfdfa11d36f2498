"""Tests for the driven two-resonator dynamics and reflection."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from parity_scope import dynamics
from parity_scope.dispersive import DispersiveModel, parity_detunings
from parity_scope.dynamics import (
    DrivePulse,
    MeasurementSetup,
    _integrate,
    _rk4_coefficients,
    _schur2,
    drive_envelope,
    evolve,
    hamming_prefactor,
    mode_matrix,
    output_field,
    reflection,
    steady_state,
)
from parity_scope.errors import StepTooLarge


def make_setup(chi1=0.5, chi2=0.5, chi12=0.0, kappa1=1.0, kappa2=1.0,
               detunings=None, amplitude=0.5, ramp=4.0, t_on=1.0, t_off=16.0):
    model = DispersiveModel(0.0, 0.0, 0.0, chi1, chi2, 0.0, chi12)
    if detunings is None:
        det = parity_detunings(model, kappa1, kappa2)
        detunings = det.plus_branch
    pulse = DrivePulse(amplitude=amplitude, ramp=ramp, t_on=t_on, t_off=t_off)
    return MeasurementSetup(kappa1, kappa2, detunings[0], detunings[1], model, pulse)


def constant_setup(**kwargs):
    # long flat top so the trajectory reaches steady state well before t_off
    return make_setup(ramp=1e-6, t_on=0.0, t_off=1e6, **kwargs)


# ---------------------------------------------------------------------------
# pulse envelope
# ---------------------------------------------------------------------------

def test_envelope_zero_before_switch_on():
    pulse = DrivePulse(0.5, 4.0, 1.0, 16.0)
    assert drive_envelope(0.0, pulse) == 0.0
    assert drive_envelope(0.999, pulse) == 0.0


def test_envelope_half_amplitude_mid_ramp():
    pulse = DrivePulse(0.5, 4.0, 1.0, 16.0)
    assert drive_envelope(1.0 + 2.0, pulse) == pytest.approx(0.25, rel=1e-12)
    assert drive_envelope(16.0 + 2.0, pulse) == pytest.approx(0.25, rel=1e-12)


def test_envelope_flat_top_and_tail():
    pulse = DrivePulse(0.5, 4.0, 1.0, 16.0)
    assert drive_envelope(10.0, pulse) == 0.5
    assert drive_envelope(20.0, pulse) == 0.0
    assert drive_envelope(25.0, pulse) == 0.0


def test_envelope_c1_at_joints():
    pulse = DrivePulse(0.5, 4.0, 1.0, 16.0)
    eps = 1e-7
    for joint in (1.0, 5.0, 16.0, 20.0):
        left = (drive_envelope(joint - eps, pulse) - drive_envelope(joint - 2 * eps, pulse)) / eps
        right = (drive_envelope(joint + 2 * eps, pulse) - drive_envelope(joint + eps, pulse)) / eps
        assert abs(left - right) < 1e-5


def test_pulse_validation():
    with pytest.raises(ValueError):
        DrivePulse(0.5, 0.0, 1.0, 16.0)
    with pytest.raises(ValueError):
        DrivePulse(0.5, 4.0, -1.0, 16.0)
    with pytest.raises(ValueError):
        DrivePulse(0.5, 4.0, 1.0, 3.0)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_zero_drive_stays_in_vacuum():
    setup = make_setup(amplitude=0.0)
    traj = evolve(setup, 0, 28.0)
    assert np.all(traj.alpha1 == 0)
    assert np.all(traj.alpha2 == 0)
    assert np.all(traj.output == 0)


def test_evolve_linearity_is_exact():
    s1 = make_setup(amplitude=0.25)
    s2 = make_setup(amplitude=0.5)
    t1 = evolve(s1, 1, 28.0, probe=False)
    t2 = evolve(s2, 1, 28.0, probe=False)
    assert np.array_equal(2.0 * t1.alpha1, t2.alpha1)
    assert np.array_equal(2.0 * t1.alpha2, t2.alpha2)


def test_evolve_matches_steady_state():
    setup = constant_setup()
    for hw in range(4):
        traj = evolve(setup, hw, 30.0, probe=False)
        a1, a2 = steady_state(setup, hw)
        scale = max(abs(a1), abs(a2))
        assert abs(traj.alpha1[-1] - a1) / scale < 1e-6
        assert abs(traj.alpha2[-1] - a2) / scale < 1e-6


def test_evolve_single_mode_textbook_response():
    # kappa2 = 0 and chi12 = 0 decouples resonator 1 into the textbook form
    model = DispersiveModel(0.0, 0.0, 0.0, 0.5, 0.3, 0.0, 0.0)
    pulse = DrivePulse(0.4, 1e-6, 0.0, 1e6)
    setup = MeasurementSetup(1.0, 0.0, 0.7, -0.9, model, pulse)
    hw = 1
    traj = evolve(setup, hw, 30.0, probe=False)
    k = hamming_prefactor(hw)
    expected = -1j * math.sqrt(1.0) * 0.4 / (1j * (0.7 + 0.5 * k) + 0.5)
    assert traj.alpha1[-1] == pytest.approx(expected, rel=1e-6)
    assert abs(traj.alpha2[-1]) < 1e-12


def test_evolve_rk4_convergence_order():
    # independent oracle: alpha(T) = int_0^T expm(M (T-s)) u beta(s) ds,
    # ramp segment by 64-node Gauss-Legendre, flat segment in closed form
    setup = make_setup(ramp=0.5, t_on=0.0, t_off=1e6)
    m = mode_matrix(setup, 0)
    u = -1j * np.array([1.0, 1.0]) * 1.0
    t_final = 2.0
    sigma = setup.pulse.ramp
    nodes, weights = np.polynomial.legendre.leggauss(64)
    s_vals = 0.5 * sigma * (nodes + 1.0)
    exact = np.zeros(2, dtype=complex)
    for s, w in zip(s_vals, weights):
        beta = drive_envelope(s, setup.pulse)
        exact += 0.5 * sigma * w * (sla.expm(m * (t_final - s)) @ u) * beta
    exact += np.linalg.solve(
        m, (sla.expm(m * (t_final - sigma)) - np.eye(2)) @ u) * setup.pulse.amplitude
    errors = []
    steps = [4e-3, 2e-3, 1e-3]
    for dt in steps:
        traj = evolve(setup, 0, t_final, dt=dt, probe=False)
        errors.append(max(abs(traj.alpha1[-1] - exact[0]), abs(traj.alpha2[-1] - exact[1])))
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.3)


def test_evolve_step_guard():
    setup = make_setup()
    with pytest.raises(StepTooLarge):
        evolve(setup, 0, 28.0, dt=0.5)


def test_evolve_probe_fails_closed_on_nan(monkeypatch):
    # a NaN in the half-step run compares false with every bound
    def poisoned(m, u, pulse, dt, n_steps, stride, **records):
        final1, final2 = _integrate(m, u, pulse, dt, n_steps, stride, **records)
        if dt < 1e-3:
            final1[..., -1] = math.nan
        return final1, final2
    monkeypatch.setattr(dynamics, "_integrate", poisoned)
    with pytest.raises(StepTooLarge, match="disagreement nan"):
        evolve(make_setup(), 1, 28.0)


def test_evolve_probe_passes_at_default_step():
    setup = make_setup()
    traj = evolve(setup, 2, 28.0, probe=True)
    assert traj.times.size == 2801
    assert traj.times[-1] == pytest.approx(28.0)


def test_evolve_bounds_the_records_of_a_prime_step_count():
    # 28,019 steps is prime, so no stride divides it: the steps move to the
    # nearest multiple of 28019 // RECORD_TARGET = 10 instead of being kept one
    # record each.  28,000 steps keep their divisor and their 2,801 records
    setup = make_setup()
    traj = evolve(setup, 2, 28.019)
    assert traj.times.size <= 2 * dynamics.RECORD_TARGET + 1
    assert traj.step == 28.019 / 28020
    assert traj.times[-1] == pytest.approx(28.019, rel=1e-12)
    assert evolve(setup, 2, 28.0).times.size == 2801
    with pytest.raises(ValueError, match="stride must divide"):
        evolve(setup, 2, 28.019, stride=10)


# ---------------------------------------------------------------------------
# RK4 recurrence against the step-by-step loop
# ---------------------------------------------------------------------------

def reference_integrate(m, u, beta_nodes, beta_mid, dt, n_steps, stride):
    """One RK4 step at a time from vacuum, recording every ``stride`` steps."""
    step, w_left, w_mid, w_right = _rk4_coefficients(m, dt, u)
    a = np.zeros(2, dtype=complex)
    rec = [a]
    for i in range(n_steps):
        a = step @ a + w_left * beta_nodes[i] + w_mid * beta_mid[i] + w_right * beta_nodes[i + 1]
        if (i + 1) % stride == 0:
            rec.append(a)
    rec = np.array(rec)
    return rec[:, 0], rec[:, 1]


def _records(m, u, pulse, dt, n_steps, stride):
    return _integrate(m, u, pulse, dt, n_steps, stride, records=True)


def assert_matches_reference(m, u, pulse, dt, n_steps, stride):
    # m is one generator or a stack; each one against its own loop
    nodes = np.arange(n_steps + 1) * dt
    got1, got2 = _records(m, u, pulse, dt, n_steps, stride)
    for index in np.ndindex(m.shape[:-2]):
        ref1, ref2 = reference_integrate(m[index], u, drive_envelope(nodes, pulse),
                                         drive_envelope(nodes[:-1] + dt / 2.0, pulse),
                                         dt, n_steps, stride)
        assert got1[index].size == got2[index].size == ref1.size == n_steps // stride + 1
        scale = max(np.abs(ref1).max(), np.abs(ref2).max())
        assert scale > 0
        assert np.abs(got1[index] - ref1).max() <= 1e-12 * scale
        assert np.abs(got2[index] - ref2).max() <= 1e-12 * scale


@pytest.mark.parametrize("hw", range(4))
def test_integrate_matches_loop_non_normal(hw):
    # chi12 != 0 and kappa1 != kappa2: the generator is not normal
    setup = make_setup(chi1=0.45, chi2=0.6, chi12=0.15, kappa1=1.0, kappa2=1.7)
    m = mode_matrix(setup, hw)
    assert np.abs(m @ m.conj().T - m.conj().T @ m).max() > 1e-2
    u = -1j * np.array([1.0, math.sqrt(1.7)])
    n_steps = 47600
    assert_matches_reference(m, u, setup.pulse, 28.0 / n_steps, n_steps, 17)


def test_integrate_matches_loop_defective_generator():
    # a Jordan block in a non-orthogonal basis has one eigenvector direction,
    # so any shortcut through an eigen-decomposition would be wrong here
    jordan = np.array([[-0.4 - 0.9j, 1.0], [0.0, -0.4 - 0.9j]])
    basis = np.array([[1.0, 0.7], [0.2, 1.3]])
    m = basis @ jordan @ np.linalg.inv(basis)
    assert np.linalg.cond(np.linalg.eig(m)[1]) > 1e6
    pulse = DrivePulse(amplitude=0.5, ramp=4.0, t_on=1.0, t_off=16.0)
    assert_matches_reference(m, np.array([-0.3j, -0.8j]), pulse, 1e-3, 28000, 10)


@pytest.mark.parametrize("n_steps, stride", [
    (341, 7),           # 48 blocks: shorter than one chunk
    (2085, 1),          # not a multiple of the chunk: 8 x 256 + 37 (and 2 x 1024 + 37)
    (3072, 3),          # 1024 blocks, whole chunks; the stride does not divide the chunk
    (2085, 2085),       # the probe's end-point call: one block of 2085 steps, in chunks
])
def test_integrate_chunk_boundaries(n_steps, stride):
    setup = make_setup(chi1=0.45, chi2=0.6, chi12=0.15, kappa1=1.0, kappa2=1.7)
    pulse = DrivePulse(amplitude=0.5, ramp=0.2, t_on=0.0, t_off=1.0)
    assert_matches_reference(mode_matrix(setup, 1), -1j * np.array([1.0, math.sqrt(1.7)]),
                             pulse, 1e-3, n_steps, stride)


_JORDAN_BASIS = np.array([[1.0, 0.7], [0.2, 1.3]])
SCHUR_CASES = {
    "normal": -0.5 * np.eye(2) - 1j * np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.1]]),
    "non-normal": mode_matrix(make_setup(chi1=0.45, chi2=0.6, chi12=0.15,
                                         kappa1=1.0, kappa2=1.7), 1),
    "complex": np.array([[1.0, 0.5j], [2.0 - 1.0j, -0.5 + 1.0j]]),
    "jordan": np.array([[-0.4 - 0.9j, 1.0], [0.0, -0.4 - 0.9j]]),
    "defective": _JORDAN_BASIS @ np.array([[-0.4 - 0.9j, 1.0], [0.0, -0.4 - 0.9j]])
                 @ np.linalg.inv(_JORDAN_BASIS),
    "scalar": (-0.4 - 0.9j) * np.eye(2),
    "zero": np.zeros((2, 2), dtype=complex),
}


@pytest.mark.parametrize("name", SCHUR_CASES)
def test_schur2_is_a_unitary_triangularization(name):
    m = SCHUR_CASES[name]
    t, q = _schur2(m)
    assert np.abs(q.conj().T @ q - np.eye(2)).max() <= 1e-14
    assert t[1, 0] == 0.0
    assert np.abs(q @ t @ q.conj().T - m).max() <= 1e-14 * np.linalg.norm(m)


NON_NORMAL = SCHUR_CASES["non-normal"]
NON_NORMAL_DRIVE = -1j * np.array([1.0, math.sqrt(1.7)])


def test_integrate_joints_on_block_edges():
    # dt = 2^-10 and 8-step blocks: all four joints are block edges exactly
    pulse = DrivePulse(amplitude=0.5, ramp=0.25, t_on=0.5, t_off=1.0)
    dt, stride, n_steps = 2.0 ** -10, 8, 1536
    edges = np.arange(0, n_steps + 1, stride) * dt
    assert {0.5, 0.75, 1.0, 1.25} <= set(edges)
    assert_matches_reference(NON_NORMAL, NON_NORMAL_DRIVE, pulse, dt, n_steps, stride)


def test_integrate_two_joints_in_one_block():
    # a 0.004 ramp inside the 0.01 block [0.50, 0.51], and the falling one inside [0.80, 0.81]
    pulse = DrivePulse(amplitude=0.5, ramp=0.004, t_on=0.503, t_off=0.8025)
    assert_matches_reference(NON_NORMAL, NON_NORMAL_DRIVE, pulse, 1e-3, 2000, 10)


def test_integrate_horizon_ends_mid_ramp():
    pulse = DrivePulse(amplitude=0.5, ramp=1.0, t_on=0.1, t_off=1.5)
    assert_matches_reference(NON_NORMAL, NON_NORMAL_DRIVE, pulse, 1e-3, 2000, 10)


def test_integrate_stride_one():
    pulse = DrivePulse(amplitude=0.5, ramp=0.5, t_on=0.2, t_off=1.5)
    assert_matches_reference(NON_NORMAL, NON_NORMAL_DRIVE, pulse, 1e-3, 3000, 1)


def test_integrate_long_blocks_shorten_the_chunk():
    # 4/kappa per block, 400 blocks in one chunk: S^400 decays by over 900
    # e-folds, and the scan forms only products of step powers, never an inverse
    pulse = DrivePulse(amplitude=0.5, ramp=4.0, t_on=1.0, t_off=16.0)
    assert_matches_reference(NON_NORMAL, NON_NORMAL_DRIVE, pulse, 2e-2, 80000, 200)


def test_integrate_blocks_decaying_past_the_float_range():
    # 1500/kappa per block: S^stride underflows to 0, and each record on the
    # plateau is the block forcing alone
    pulse = DrivePulse(amplitude=0.5, ramp=1.0, t_on=0.0, t_off=1e6)
    step = _rk4_coefficients(_schur2(NON_NORMAL)[0], 0.05, NON_NORMAL_DRIVE)[0]
    assert not np.any(np.diagonal(np.linalg.matrix_power(step, 30000)))
    assert_matches_reference(NON_NORMAL, NON_NORMAL_DRIVE, pulse, 0.05, 90000, 30000)
    # the same through evolve without the probe: a ring-down to the float floor
    late = evolve(make_setup(), 1, 2000.0, stride=2_000_000, probe=False)
    assert np.all(np.isfinite(late.alpha1)) and np.all(np.isfinite(late.alpha2))
    assert np.abs(late.alpha1[-1]) < 1e-300


def test_integrate_zero_amplitude_stays_in_vacuum():
    # the 1e-12 bound of a zero reference: exactly zero
    pulse = DrivePulse(amplitude=0.0, ramp=4.0, t_on=1.0, t_off=16.0)
    got1, got2 = _records(NON_NORMAL, NON_NORMAL_DRIVE, pulse, 1e-3, 28000, 10)
    assert got1.size == 2801
    assert not np.any(got1) and not np.any(got2)


def test_integrate_four_weight_stack():
    setup = make_setup(chi1=0.45, chi2=0.6, chi12=0.15, kappa1=1.0, kappa2=1.7)
    m = np.stack([mode_matrix(setup, hw) for hw in range(4)])
    assert_matches_reference(m, NON_NORMAL_DRIVE, setup.pulse, 1e-3, 28000, 10)


@pytest.mark.parametrize("name", SCHUR_CASES)
def test_integrate_matches_loop_schur_cases(name):
    # whole blocks on both ramps and the plateau
    pulse = DrivePulse(amplitude=0.5, ramp=1.0, t_on=0.5, t_off=2.0)
    assert_matches_reference(SCHUR_CASES[name], np.array([-0.3j, -0.8j]), pulse, 1e-3, 4000, 10)


def test_integrate_undamped_mode_matches_loop_at_the_final_value():
    # at chi = 0 the generator has the undamped mode (1, -1), which the drive
    # never excites.  After the ring-down the final amplitude is ~7e-5 of the
    # peak, and it matches the loop to 1e-10 of itself: scanned in the
    # triangular Schur basis no rounding leaks into that mode (in the
    # generator's own basis the scan is off by 1.4e-9 of it)
    m = -0.5 * np.ones((2, 2))
    u = -1j * np.ones(2)
    pulse = make_setup().pulse
    dt, n_steps = 1e-3, 28000
    nodes = np.arange(n_steps + 1) * dt
    got1, got2 = _records(m, u, pulse, dt, n_steps, 10)
    ref1, ref2 = reference_integrate(m, u, drive_envelope(nodes, pulse),
                                     drive_envelope(nodes[:-1] + dt / 2.0, pulse),
                                     dt, n_steps, 10)
    final = max(abs(ref1[-1]), abs(ref2[-1]))
    assert final > 0
    assert max(abs(got1[-1] - ref1[-1]), abs(got2[-1] - ref2[-1])) <= 1e-10 * final


def test_probe_is_the_same_recurrence_at_half_step(monkeypatch):
    # evolve's probe is one more _integrate call at dt/2 on the same record grid,
    # made first so that only its final amplitudes are held ...
    calls = []

    def spy(m, u, pulse, dt, n_steps, stride, **records):
        calls.append((dt, n_steps, stride))
        return _integrate(m, u, pulse, dt, n_steps, stride, **records)
    monkeypatch.setattr(dynamics, "_integrate", spy)
    setup = make_setup(chi1=0.45, chi2=0.6, chi12=0.15)
    evolve(setup, 1, 28.0)
    assert calls == [(0.5e-3, 56000, 20), (1e-3, 28000, 10)]
    # ... and its final value is the loop's at dt/2
    assert_matches_reference(mode_matrix(setup, 1), -1j * np.ones(2), setup.pulse,
                             0.5e-3, 56000, 20)


def test_evolve_samples_the_drive_per_record(monkeypatch):
    # only blocks that straddle a joint sample the drive step by step: one
    # default evolve evaluates it at ~3k points, not the 170,884 of a walk
    # over every step and midpoint of both runs
    sizes = []
    envelope = dynamics.drive_envelope

    def spy(t, pulse):
        sizes.append(np.size(t))
        return envelope(t, pulse)
    monkeypatch.setattr(dynamics, "drive_envelope", spy)
    traj = evolve(make_setup(), 2, 28.0)
    assert traj.times.size == 2801
    assert sum(sizes) <= 2 * traj.times.size


def test_evolve_allocation_peak():
    # one default evolve peaks at 0.49 MB (Python 3.11, numpy 2.4): the block
    # forcing is built per chunk, so no array spans more than the records
    setup = make_setup()
    evolve(setup, 2, 28.0)
    tracemalloc.start()
    try:
        evolve(setup, 2, 28.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 0.41e6


def test_stacked_weights_match_per_weight_evolve():
    # the recurrence on a stack of the four generators gives each weight's
    # evolve records
    setup = make_setup(chi1=0.45, chi2=0.6, chi12=0.15, kappa1=1.0, kappa2=1.7)
    m = mode_matrix(setup, 1)
    assert np.abs(m @ m.conj().T - m.conj().T @ m).max() > 1e-2
    stack = np.stack([mode_matrix(setup, hw) for hw in range(4)])
    rec1, rec2 = _records(stack, -1j * np.array([1.0, math.sqrt(1.7)]), setup.pulse,
                          28.0 / 47600, 47600, 17)
    for hw in range(4):
        single = evolve(setup, hw, 28.0)
        assert single.hamming_weight == hw and single.step == 28.0 / 47600
        for got, ref in ((rec1[hw], single.alpha1), (rec2[hw], single.alpha2)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------

def test_steady_state_sign_structure():
    # at zero detuning the K -> -K pair is related by conjugation and sign
    setup = make_setup(detunings=(0.0, 0.0))
    a = steady_state(setup, 0)   # K = +3
    b = steady_state(setup, 3)   # K = -3
    assert b[0] == pytest.approx(-np.conj(a[0]), rel=1e-12)
    assert b[1] == pytest.approx(-np.conj(a[1]), rel=1e-12)


def test_steady_state_drive_scaling():
    setup = make_setup()
    a = steady_state(setup, 1, drive_amplitude=1.0)
    b = steady_state(setup, 1, drive_amplitude=2.5)
    assert b[0] == pytest.approx(2.5 * a[0], rel=1e-14)
    assert b[1] == pytest.approx(2.5 * a[1], rel=1e-14)


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------

def test_reflection_unimodular_randomized():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        setup = make_setup(
            chi1=rng.uniform(-1.5, 1.5), chi2=rng.uniform(-1.5, 1.5),
            chi12=rng.uniform(-0.5, 0.5),
            kappa1=rng.uniform(0.5, 2.0), kappa2=rng.uniform(0.5, 2.0),
            detunings=(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        r = reflection(setup, rng.integers(0, 4))
        worst = max(worst, abs(abs(r) - 1.0))
    assert worst < 1e-12


def test_reflection_matches_steady_state_solve():
    rng = np.random.default_rng(7)
    for _ in range(200):
        setup = make_setup(
            chi1=rng.uniform(0.1, 1.0), chi2=rng.uniform(0.1, 1.0),
            chi12=rng.uniform(-0.2, 0.2),
            kappa1=rng.uniform(0.5, 2.0), kappa2=rng.uniform(0.5, 2.0),
            detunings=(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        hw = int(rng.integers(0, 4))
        a1, a2 = steady_state(setup, hw, drive_amplitude=1.0)
        r_io = 1.0 - 1j * (math.sqrt(setup.kappa1) * a1 + math.sqrt(setup.kappa2) * a2)
        assert reflection(setup, hw) == pytest.approx(r_io, rel=1e-10)


def test_reflection_parity_collapse():
    setup = make_setup(chi1=0.5, chi2=0.5, chi12=0.0)
    r = [reflection(setup, hw) for hw in range(4)]
    assert abs(r[0] - r[2]) < 1e-12
    assert abs(r[1] - r[3]) < 1e-12
    assert abs(r[0] - r[1]) > 1e-6


def test_reflection_no_qubit_dependence_without_chi():
    setup = make_setup(chi1=0.0, chi2=0.0, chi12=0.0, detunings=(0.7, -0.3))
    r = {reflection(setup, hw) for hw in range(4)}
    assert len({(round(z.real, 14), round(z.imag, 14)) for z in r}) == 1


def test_reflection_collapse_randomized():
    rng = np.random.default_rng(3)
    for _ in range(500):
        chi1 = rng.uniform(0.05, 1.5)
        chi2 = rng.uniform(0.05, 1.5)
        chi12 = rng.uniform(0.0, 0.2)
        if chi1 * chi2 - chi12 ** 2 <= 1e-6:
            continue
        setup = make_setup(chi1=chi1, chi2=chi2, chi12=chi12,
                           kappa1=rng.uniform(0.5, 2.0), kappa2=rng.uniform(0.5, 2.0))
        r = [reflection(setup, hw) for hw in range(4)]
        assert max(abs(r[0] - r[2]), abs(r[1] - r[3])) < 1e-12
        assert abs(r[0] - r[1]) > 1e-6


# ---------------------------------------------------------------------------
# output field
# ---------------------------------------------------------------------------

def test_output_zero_for_empty_cavities():
    z = np.zeros(5, dtype=complex)
    setup = make_setup()
    assert np.all(output_field(z, z, np.zeros(5), setup) == 0)


def test_output_modulus_equals_input_at_steady_state():
    # |r| = 1: steady output power equals the input power
    setup = constant_setup()
    traj = evolve(setup, 2, 40.0, probe=False)
    assert abs(traj.output[-1]) == pytest.approx(abs(traj.drive[-1]), rel=1e-9)
