"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single PASS line (visible under ``pytest -s`` or ``-v``)
with its runtime; the stated budgets are asserted.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from parity_scope.config import MHZ, derive_scenario, preset
from parity_scope.dispersive import (
    DispersiveModel,
    LinePlacement,
    QubitCavityCoupling,
    TcqSpec,
    TransmonSpec,
    capacitance_inverse,
    capacitance_matrix,
    coupling_at_position,
    parity_detunings,
    tcq_mixing,
    transmon_dispersive,
)
from parity_scope.dynamics import (
    DrivePulse,
    MeasurementSetup,
    evolve,
    mode_matrix,
    reflection,
    steady_state,
)
from parity_scope.errors import ParityConditionUnsatisfiable
from parity_scope.inference import (
    SignalModel,
    chi_sweep,
    info_gains,
    means_from_integrals,
    posteriors,
)
from parity_scope.spectral import (
    ChargeBasisConfig,
    LadderConfig,
    charge_dispersion,
    chi_oracle,
    switch_splitting,
)


def report(number, label, elapsed, budget):
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget


# ---------------------------------------------------------------------------
# 1. published coupling table
# ---------------------------------------------------------------------------

def test_criterion_1_coupling_table():
    start = time.perf_counter()
    table = {"a": (106.6, 76.4), "b": (132.5, 113.3), "c": (158.4, 150.0)}
    scenario = derive_scenario(preset("paper-sec5-symmetric"))
    for qubit in scenario.qubits:
        g1_ref, g2_ref = table[qubit.name]
        assert abs(qubit.g1 / MHZ - g1_ref) / g1_ref <= 0.02
        assert abs(qubit.g2 / MHZ - g2_ref) / g2_ref <= 0.02
    report(1, "coupling table within 2%", time.perf_counter() - start, 1.0)


# ---------------------------------------------------------------------------
# 2. published Purcell table
# ---------------------------------------------------------------------------

def test_criterion_2_purcell_table():
    start = time.perf_counter()
    symmetric = {"a": 100.1, "b": 103.7, "c": 106.2}
    asymmetric = {"a": 166.8, "b": 172.8, "c": 177.0}
    for preset_name, targets in (("paper-sec5-symmetric", symmetric),
                                 ("paper-sec5-asymmetric", asymmetric)):
        scenario = derive_scenario(preset(preset_name))
        for qubit in scenario.qubits:
            ref = targets[qubit.name]
            assert abs(qubit.purcell.dimensionless - ref) / ref <= 0.02
    report(2, "Purcell tables within 2%", time.perf_counter() - start, 1.0)


# ---------------------------------------------------------------------------
# 3. transmon obstruction
# ---------------------------------------------------------------------------

def test_criterion_3_transmon_obstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)
    count = 0
    while count < 10_000:
        ec = rng.uniform(0.2, 0.5)
        ej = ec * rng.uniform(20.0, 80.0)
        spec = TransmonSpec(ej, ec)
        d1 = rng.uniform(0.8, 4.0) * rng.choice([-1.0, 1.0])
        d2 = rng.uniform(0.8, 4.0) * rng.choice([-1.0, 1.0])
        if abs(d1 - ec) < 0.3 or abs(d2 - ec) < 0.3:
            continue
        coupling = QubitCavityCoupling(rng.uniform(0.01, 0.29) * abs(d1),
                                       rng.uniform(0.01, 0.29) * abs(d2), d1, d2)
        model = transmon_dispersive(spec, coupling)
        assert model.quantum_switch ** 2 >= model.chi1 * model.chi2
        if not (model.quantum_switch ** 2 == model.chi1 * model.chi2):
            with pytest.raises(ParityConditionUnsatisfiable):
                parity_detunings(model, 1.0, 1.0)
        count += 1
    report(3, "chi12^2 >= chi1 chi2 on 10^4 draws", time.perf_counter() - start, 5.0)


# ---------------------------------------------------------------------------
# 4. reflection unitarity and parity collapse
# ---------------------------------------------------------------------------

def test_criterion_4_reflection():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    pulse = DrivePulse(0.5, 4.0, 1.0, 16.0)
    worst_unitarity = 0.0
    collapse_checked = 0
    for _ in range(10_000):
        kappa1, kappa2 = rng.uniform(0.5, 2.0, size=2)
        chi1, chi2 = rng.uniform(0.05, 1.5, size=2)
        chi12 = rng.uniform(0.0, 0.3)
        model = DispersiveModel(0, 0, 0, chi1, chi2, 0.0, chi12)
        setup = MeasurementSetup(kappa1, kappa2,
                                 rng.uniform(-3, 3), rng.uniform(-3, 3), model, pulse)
        r = reflection(setup, int(rng.integers(0, 4)))
        worst_unitarity = max(worst_unitarity, abs(abs(r) - 1.0))

        if chi1 * chi2 - chi12 ** 2 > 1e-6 * max(kappa1, kappa2) ** 2:
            det = parity_detunings(model, kappa1, kappa2).plus_branch
            parity_setup = MeasurementSetup(kappa1, kappa2, det[0], det[1], model, pulse)
            r = [reflection(parity_setup, hw) for hw in range(4)]
            assert max(abs(r[0] - r[2]), abs(r[1] - r[3])) < 1e-12
            assert abs(r[0] - r[1]) > 1e-6
            collapse_checked += 1
    assert worst_unitarity < 1e-12
    assert collapse_checked > 9000
    report(4, "reflection unitary + parity collapse", time.perf_counter() - start, 5.0)


# ---------------------------------------------------------------------------
# 5. dynamics oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_dynamics_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(1618)
    pulse = DrivePulse(0.5, 1e-6, 0.0, 1e9)  # effectively constant drive
    checked = 0
    while checked < 100:
        kappa1, kappa2 = rng.uniform(0.5, 2.0, size=2)
        model = DispersiveModel(0, 0, 0, rng.uniform(0.1, 1.2), rng.uniform(0.1, 1.2),
                                0.0, rng.uniform(-0.2, 0.2))
        setup = MeasurementSetup(kappa1, kappa2, rng.uniform(-1.5, 1.5),
                                 rng.uniform(-1.5, 1.5), model, pulse)
        hw = int(rng.integers(0, 4))
        m = mode_matrix(setup, hw)
        slow = -float(np.max(np.linalg.eigvals(m).real))
        if slow < 0.3 * min(kappa1, kappa2):
            continue  # near-dark mode would need an impractical horizon
        t_final = 18.0 / slow
        dt = 1e-3 / setup.kappa_scale
        traj = evolve(setup, hw, t_final, dt=dt, probe=False, stride=None)
        a1, a2 = steady_state(setup, hw)
        scale = max(abs(a1), abs(a2))
        assert abs(traj.alpha1[-1] - a1) / scale < 1e-6
        assert abs(traj.alpha2[-1] - a2) / scale < 1e-6
        checked += 1

    # convergence order against the expm + Gauss-quadrature oracle
    model = DispersiveModel(0, 0, 0, 0.5, 0.5, 0.0, 0.0)
    det = parity_detunings(model, 1.0, 1.0).plus_branch
    ramp_pulse = DrivePulse(0.5, 0.5, 0.0, 1e6)
    setup = MeasurementSetup(1.0, 1.0, det[0], det[1], model, ramp_pulse)
    m = mode_matrix(setup, 0)
    u = -1j * np.array([1.0, 1.0])
    t_final, sigma = 2.0, 0.5
    nodes, weights = np.polynomial.legendre.leggauss(64)
    from parity_scope.dynamics import drive_envelope
    exact = np.zeros(2, dtype=complex)
    for s, w in zip(0.5 * sigma * (nodes + 1.0), weights):
        exact += 0.5 * sigma * w * (sla.expm(m * (t_final - s)) @ u) \
            * drive_envelope(float(s), ramp_pulse)
    exact += np.linalg.solve(m, (sla.expm(m * (t_final - sigma)) - np.eye(2)) @ u) * 0.5
    steps = [4e-3, 2e-3, 1e-3]
    errors = []
    for dt in steps:
        traj = evolve(setup, 0, t_final, dt=dt, probe=False)
        errors.append(max(abs(traj.alpha1[-1] - exact[0]), abs(traj.alpha2[-1] - exact[1])))
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    assert abs(slope - 4.0) <= 0.3
    report(5, f"evolve/steady-state 1e-6 + RK4 order {slope:.2f}",
           time.perf_counter() - start, 30.0)


# ---------------------------------------------------------------------------
# 6. information-gain minimum location
# ---------------------------------------------------------------------------

def test_criterion_6_sweep_minimum():
    start = time.perf_counter()
    kappa = 1.0
    pulse = DrivePulse(0.5, 4.0, 1.0, 16.0)
    tau = 28.0
    grid = np.linspace(0.1, 1.2, 61)

    diagonal = chi_sweep([(c, c) for c in grid], kappa, pulse, tau)
    missing = np.array([p.missing_parity for p in diagonal])
    argmin_chi = grid[int(np.argmin(missing))]
    assert abs(argmin_chi - 0.5) <= 0.1
    # interior single minimum along the diagonal
    k = int(np.argmin(missing))
    assert 0 < k < len(grid) - 1
    assert np.all(np.diff(missing[: k + 1]) < 0)
    assert np.all(np.diff(missing[k:]) > 0)

    asym = chi_sweep([(c, 0.3) for c in grid], kappa, pulse, tau)
    asym_missing = np.array([p.missing_parity for p in asym])
    assert asym_missing.min() > missing.min()
    # weight-parity difference small away from the weak-shift corner
    for c, p in zip(grid, diagonal):
        if c >= 0.3:
            assert p.delta_info < 0.05
    # the chi = kappa/2 design point sits within 0.05 bits of the grid optimum
    near_half = diagonal[int(np.argmin(np.abs(grid - 0.5)))]
    best_info = max(p.info_parity for p in diagonal)
    assert best_info - near_half.info_parity < 0.05
    report(6, f"missing-info minimum at chi/kappa = {argmin_chi:.3f}",
           time.perf_counter() - start, 600.0)


# ---------------------------------------------------------------------------
# 7. information-theory invariants
# ---------------------------------------------------------------------------

def test_criterion_7_information_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(95)

    # pointwise entropy chain + ranges + normalization + martingale
    from parity_scope.inference import _gain_integrands
    from scipy.integrate import simpson
    for _ in range(100):
        means = tuple(rng.uniform(-5, 5, size=4))
        tau = float(rng.uniform(0.5, 5.0))
        model = SignalModel(tau, 0.0, means)
        grid, density, info_hw, info_parity = _gain_integrands(model, 4001)
        assert np.all(info_parity <= info_hw + 1e-12)
        gain_hw, gain_parity = info_gains(model, check=False)
        assert -1e-6 <= gain_parity <= 1.0 + 1e-6
        assert -1e-6 <= gain_hw <= 2.0 + 1e-6
        assert gain_parity <= gain_hw + 1e-6
        assert abs(simpson(density, x=grid) - 1.0) < 1e-8

    model = SignalModel(3.0, 0.0, (0.3, -1.2, 2.0, 0.9))
    grid = np.linspace(-16, 18, 8001)
    post, _, _ = posteriors(grid, model)
    density = sum(np.exp(-(grid - m) ** 2 / 6.0) for m in model.means) \
        / (4.0 * math.sqrt(6.0 * math.pi))
    for hw in range(4):
        assert abs(np.trapezoid(post[hw] * density, grid) - 0.25) < 1e-6

    # phase periodicity
    integrals = [complex(*rng.normal(0, 2, size=2)) for _ in range(4)]
    for phi in rng.uniform(0, math.pi, size=10):
        a = info_gains(SignalModel(2.0, phi, means_from_integrals(integrals, phi)),
                       check=False)
        b = info_gains(SignalModel(2.0, phi + math.pi,
                                   means_from_integrals(integrals, phi + math.pi)),
                       check=False)
        assert abs(a[1] - b[1]) < 1e-9

    # monotonicity under mean separation
    for _ in range(100):
        means = np.array(rng.uniform(-3, 3, size=4))
        tau = float(rng.uniform(0.5, 4.0))
        base = info_gains(SignalModel(tau, 0.0, tuple(means)), check=False)[1]
        wide = info_gains(SignalModel(tau, 0.0, tuple(1.7 * means)), check=False)[1]
        assert wide >= base - 1e-9
    report(7, "information invariants", time.perf_counter() - start, 120.0)


# ---------------------------------------------------------------------------
# 8. oracle validation of the perturbative shifts
# ---------------------------------------------------------------------------

def _transmon_ladder(ratio):
    frequency, anharmonicity, w1, w2 = 5.0, -3.2, 7.0, 8.4
    return LadderConfig(kind="transmon", qubit_frequency=frequency,
                        anharmonicity=anharmonicity,
                        resonator1_frequency=w1, resonator2_frequency=w2,
                        couplings=(ratio * abs(frequency - w1),
                                   0.2 * ratio * abs(frequency - w2)),
                        qubit_levels=3, photon_levels=4)


def _tcq_ladder(ratio):
    dressed = replace(tcq_mixing(TcqSpec(6.4, 6.4, -1.2, -1.2, -0.4)),
                      delta_plus=-1.2, delta_minus=-1.2, delta_cross=-1.36)
    w1, w2 = 7.5, 8.5
    return LadderConfig(kind="tcq", dressed=dressed,
                        resonator1_frequency=w1, resonator2_frequency=w2,
                        couplings=(0.0, ratio * abs(dressed.omega_minus - w1),
                                   0.2 * ratio * abs(dressed.omega_plus - w2), 0.0),
                        qubit_levels=3, photon_levels=3)


def test_criterion_8_oracle_validation():
    start = time.perf_counter()
    ratios = [0.05, 0.025, 0.0125]
    for build, index in ((_transmon_ladder, 0), (_tcq_ladder, 0)):
        errors = []
        for ratio in ratios:
            err = chi_oracle(build(ratio), check_convergence=False).relative_errors[index]
            errors.append(err)
            assert err <= 3.0 * ratio ** 2
        slope = float(np.polyfit(np.log(ratios), np.log(errors), 1)[0])
        assert abs(slope - 2.0) <= 0.3

    # zero-switch configuration: state-dependent splitting suppressed
    dressed = replace(tcq_mixing(TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)),
                      delta_plus=-0.15, delta_minus=-0.15, delta_cross=-0.3)
    w1 = 7.5
    g1m = 0.05 * abs(dressed.omega_minus - w1)
    g2p = 0.05 * abs(dressed.omega_plus - w1)
    ladder = LadderConfig(kind="tcq", dressed=dressed,
                          resonator1_frequency=w1, resonator2_frequency=w1 + 0.01,
                          couplings=(0.0, g1m, g2p, 0.0),
                          qubit_levels=3, photon_levels=3)
    gaps = switch_splitting(ladder)
    d1m = dressed.omega_minus - w1
    chi1 = g1m ** 2 * dressed.delta_minus / (d1m * (d1m + dressed.delta_minus))
    assert abs(gaps["excited"] - gaps["ground"]) / 2.0 < 1e-2 * abs(chi1)

    # charge dispersion flatness in the transmon regime
    ec = 0.3
    cfg = ChargeBasisConfig(ec, ec, 50 * ec, 50 * ec, -0.5 * ec, charge_cutoff=12)
    dispersion = charge_dispersion(cfg, levels=6, grid_points=21)
    assert float(np.max(dispersion)) < 1e-3 * ec
    report(8, "chi oracle, switch suppression, charge flatness",
           time.perf_counter() - start, 300.0)


# ---------------------------------------------------------------------------
# 9. capacitance matrix and placement signs
# ---------------------------------------------------------------------------

def test_criterion_9_capacitance_and_placement():
    start = time.perf_counter()
    length = 1.0

    def mode_caps(cc):
        x_j = 0.3 * length
        return cc * math.sqrt(2.0) * np.cos(np.pi * np.arange(9) * x_j / length)

    caps = mode_caps(1e-3)
    inv = capacitance_inverse(caps, 1.0, 1.0)
    mat = capacitance_matrix(caps, 1.0, 1.0)
    assert np.max(np.abs(mat @ inv.exact - np.eye(10))) < 1e-10

    deviations = [capacitance_inverse(mode_caps(cc), 1.0, 1.0).deviation
                  for cc in (1e-2, 1e-3, 1e-4)]
    assert deviations[0] / deviations[1] == pytest.approx(100.0, rel=0.05)
    assert deviations[1] / deviations[2] == pytest.approx(100.0, rel=0.05)

    def placement(x):
        return LinePlacement(length=length, position=x, coupling_capacitance=1e-15,
                             total_capacitance=65e-15, capacitance_per_length=1.6e-10,
                             mode_index=2, cutoff_index=8, wave_velocity=1.2e8)

    g0 = coupling_at_position(placement(0.0))
    g_half = coupling_at_position(placement(0.5 * length))
    assert g0 > 0 and g_half < 0
    assert abs(g_half + g0) < 1e-12 * abs(g0)
    report(9, "capacitance identity, scaling, sign flip",
           time.perf_counter() - start, 5.0)
