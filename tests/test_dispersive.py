"""Tests for the effective-model derivations (transmon and TCQ)."""

import math

import numpy as np
import pytest

from parity_scope.dispersive import (
    DispersiveModel,
    LinePlacement,
    QubitCavityCoupling,
    TcqSpec,
    TransmonSpec,
    capacitance_inverse,
    capacitance_matrix,
    coupling_at_position,
    effective_couplings,
    parity_detunings,
    purcell_time,
    sign_flip_couplings,
    solve_couplings_for_chi,
    tcq_dispersive,
    tcq_mixing,
    tcq_state_shifts,
    transmon_dispersive,
    transmon_levels,
)
from parity_scope.errors import (
    DegenerateDenominator,
    NegativeDiscriminant,
    ParityConditionUnsatisfiable,
    SingularCapacitanceMatrix,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# transmon levels
# ---------------------------------------------------------------------------

def test_transmon_levels_basic():
    omega, delta = transmon_levels(TransmonSpec(15.0, 0.3))
    assert omega == pytest.approx(math.sqrt(8 * 0.3 * 15.0) - 0.3, rel=1e-15)
    assert delta == -0.3


def test_transmon_levels_equal_energies():
    x = 0.7
    omega, _ = transmon_levels(TransmonSpec(x, x))
    assert omega == pytest.approx((2 * math.sqrt(2) - 1) * x, rel=1e-14)


def test_transmon_levels_ghz_example():
    # sqrt(8 * 0.3 * 20) - 0.3 = sqrt(48) - 0.3, evaluated independently
    omega, _ = transmon_levels(TransmonSpec(TWO_PI * 20.0, TWO_PI * 0.3))
    assert omega / TWO_PI == pytest.approx(6.628203230275509, rel=1e-12)


def test_transmon_charge_sensitive_warning():
    assert TransmonSpec(15.0, 0.3).warnings == ()
    spec = TransmonSpec(3.0, 0.3)  # ratio 10
    assert any("charge-insensitive" in w for w in spec.warnings)


def test_transmon_spec_rejects_nonpositive():
    with pytest.raises(ValueError):
        TransmonSpec(-1.0, 0.3)
    with pytest.raises(ValueError):
        TransmonSpec(1.0, 0.0)


# ---------------------------------------------------------------------------
# transmon dispersive model
# ---------------------------------------------------------------------------

def _transmon_model(g1, g2, d1, d2, ec=0.3, ej=None):
    ej = ej if ej is not None else 50.0 * ec
    return transmon_dispersive(TransmonSpec(ej, ec),
                               QubitCavityCoupling(g1, g2, d1, d2))


def test_transmon_symmetric_couplings_saturate_am_gm():
    model = _transmon_model(0.1, 0.1, -2.0, -2.0)
    assert model.chi1 == model.chi2 == model.quantum_switch
    assert model.quantum_switch ** 2 == model.chi1 * model.chi2


def test_transmon_two_level_limit():
    # |delta| -> infinity recovers the bare two-level shifts and no static switch
    d1, d2, g = 1.0, 1.4, 0.01
    ec = 1e9 * abs(d1)
    model = _transmon_model(g, g, d1, d2, ec=ec, ej=ec * 25)
    assert model.chi1 == pytest.approx(g * g / d1, rel=1e-8)
    assert model.chi2 == pytest.approx(g * g / d2, rel=1e-8)
    assert abs(model.static_switch) < 1e-8 * abs(model.chi1)


def test_transmon_two_level_limit_first_order():
    # each x10 in |delta| cuts the residual |chi - g^2/Delta| by about x10
    g, d = 0.05, -2.0
    residuals = []
    for ec in (1e3, 1e4, 1e5):
        model = _transmon_model(g, g, d, d, ec=ec, ej=ec * 30)
        residuals.append(abs(model.chi1 - g * g / d))
    assert residuals[0] / residuals[1] == pytest.approx(10.0, rel=0.02)
    assert residuals[1] / residuals[2] == pytest.approx(10.0, rel=0.02)


def test_transmon_obstruction_randomized():
    # chi12^2 >= chi1*chi2 over a large randomized dispersive-valid grid
    rng = np.random.default_rng(20240817)
    n_downsampled = 10_000
    ec = 0.3
    count = 0
    while count < n_downsampled:
        d1 = rng.uniform(0.8, 4.0) * rng.choice([-1.0, 1.0])
        d2 = rng.uniform(0.8, 4.0) * rng.choice([-1.0, 1.0])
        if abs(d1 + -ec) < 0.3 or abs(d2 + -ec) < 0.3:
            continue
        g1 = rng.uniform(0.01, 0.29) * abs(d1)
        g2 = rng.uniform(0.01, 0.29) * abs(d2)
        model = _transmon_model(g1, g2, d1, d2, ec=ec)
        assert model.quantum_switch ** 2 >= model.chi1 * model.chi2
        count += 1


def test_transmon_switch_matches_ratio_form():
    # chi12 = (g2/g1 chi1 + g1/g2 chi2)/2, evaluated without the ratios
    rng = np.random.default_rng(11)
    for _ in range(200):
        d1, d2 = rng.uniform(0.8, 4.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        g1, g2 = rng.uniform(0.01, 0.29, size=2) * np.abs([d1, d2])
        model = _transmon_model(g1, g2, d1, d2)
        ratio_form = 0.5 * (g2 / g1 * model.chi1 + g1 / g2 * model.chi2)
        assert model.quantum_switch == pytest.approx(ratio_form, rel=1e-14)
        delta = -0.3
        assert model.chi1 == pytest.approx(g1 ** 2 / d1 - g1 ** 2 / (d1 + delta), rel=1e-13)


@pytest.mark.parametrize("g1", [2.2250738585072014e-308, 5e-324, 0.0])
def test_transmon_tiny_coupling_finite_switch(g1):
    # chi1 underflows to 0 where g2/g1 would overflow: no 0 * inf
    model = _transmon_model(g1, 0.1, -2.0, -1.5)
    assert model.chi1 == 0.0
    assert math.isfinite(model.quantum_switch)
    assert abs(model.quantum_switch) <= 0.1 * g1


def test_transmon_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        _transmon_model(0.1, 0.1, 0.0, -2.0)
    with pytest.raises(DegenerateDenominator):
        _transmon_model(0.1, 0.1, 0.3, -2.0)  # Delta + delta = 0 at ec=0.3


def test_transmon_dispersive_warning_propagation():
    model = _transmon_model(0.9, 0.1, -2.0, -2.0)
    assert any("dispersive ratio" in w for w in model.warnings)


# ---------------------------------------------------------------------------
# TCQ mixing and couplings
# ---------------------------------------------------------------------------

def test_tcq_mixing_uncoupled_identity():
    spec = TcqSpec(5.0, 5.2, -0.3, -0.25, 0.0)
    dressed = tcq_mixing(spec)
    assert dressed.mixing_angle == 0.0
    assert dressed.omega_plus == pytest.approx(5.0)
    assert dressed.omega_minus == pytest.approx(5.2)
    assert dressed.delta_plus == pytest.approx(-0.3)
    assert dressed.delta_minus == pytest.approx(-0.25)
    assert dressed.delta_cross == 0.0


def test_tcq_mixing_resonant_limit():
    # zeta = 0 with J < 0 pins the angle at +pi/4
    spec = TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)
    dressed = tcq_mixing(spec)
    assert dressed.mixing_angle == pytest.approx(math.pi / 4)
    assert dressed.delta_cross == pytest.approx(-0.3)
    assert dressed.omega_plus == pytest.approx(6.8)
    assert dressed.omega_minus == pytest.approx(6.0)


def test_tcq_mixing_resonant_anharmonicity_quarter():
    # at pi/4 the dressed anharmonicities are the quarter-sum of the bare ones
    spec = TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)
    dressed = tcq_mixing(spec)
    assert dressed.delta_plus == pytest.approx(-0.15)
    assert dressed.delta_minus == pytest.approx(-0.15)


def test_effective_couplings_sign_flip():
    spec = TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)
    g1p, g1m, g2p, g2m = effective_couplings(tcq_mixing(spec), (0.1, -0.1, 0.08, 0.08))
    assert g1p == pytest.approx(math.sqrt(2) * 0.1, rel=1e-12)
    assert g1m == pytest.approx(0.0, abs=1e-15)
    assert g2p == pytest.approx(0.0, abs=1e-15)
    assert g2m == pytest.approx(math.sqrt(2) * 0.08, rel=1e-12)


def test_effective_couplings_identity_at_zero_angle():
    spec = TcqSpec(5.0, 5.5, -0.3, -0.3, 0.0)
    g1p, g1m, g2p, g2m = effective_couplings(tcq_mixing(spec), (0.11, 0.07, -0.05, 0.09))
    assert (g1p, g1m) == (0.11, 0.07)
    assert (g2p, g2m) == (-0.05, 0.09)


def test_effective_couplings_rotation_norm():
    rng = np.random.default_rng(11)
    for _ in range(200):
        spec = TcqSpec(rng.uniform(4, 6), rng.uniform(4, 6),
                       -rng.uniform(0.1, 0.5), -rng.uniform(0.1, 0.5),
                       rng.uniform(-0.5, 0.5))
        bare = rng.uniform(-0.2, 0.2, size=4)
        g1p, g1m, g2p, g2m = effective_couplings(tcq_mixing(spec), bare)
        for gp, gm, bp, bm in [(g1p, g1m, bare[0], bare[1]), (g2p, g2m, bare[2], bare[3])]:
            assert gp ** 2 + gm ** 2 == pytest.approx(bp ** 2 + bm ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# state-resolved shifts and the dispersive model
# ---------------------------------------------------------------------------

def _zero_switch_dressed(chi=-math.pi * 2 * 2.5e-3, kappa_mhz=5.0,
                         omega_minus_mhz=6000.0, j_mhz=-400.0, delta_mhz=-300.0,
                         omega1_mhz=7500.0):
    """Dressed TCQ in the sign-flip configuration tuned to hit chi on both
    resonators; quantities in angular MHz-free units (2*pi*MHz -> rad/us)."""
    omega_minus = TWO_PI * omega_minus_mhz * 1e-3
    j = TWO_PI * j_mhz * 1e-3
    delta = TWO_PI * delta_mhz * 1e-3
    omega1 = TWO_PI * omega1_mhz * 1e-3
    kappa = TWO_PI * kappa_mhz * 1e-3
    omega_bare = omega_minus - j
    spec = TcqSpec(omega_bare, omega_bare, delta, delta, j)
    dressed = tcq_mixing(spec)
    return spec, dressed, kappa, omega1


def test_tcq_state_shifts_term_dropout():
    spec = TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)
    dressed = tcq_mixing(spec)
    shifts = tcq_state_shifts(dressed, (7.5, 7.4), (0.15, 0.0, 0.12, 0.0))
    d1p = dressed.omega_plus - 7.5
    assert shifts.chi1_excited == pytest.approx(
        -0.15 ** 2 / (d1p + dressed.delta_cross), rel=1e-12)


def test_tcq_state_shifts_all_zero_couplings():
    spec = TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)
    shifts = tcq_state_shifts(tcq_mixing(spec), (7.5, 7.4), (0.0, 0.0, 0.0, 0.0))
    assert shifts == type(shifts)(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_tcq_zero_switch_is_bit_exact():
    spec = TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)
    model = tcq_dispersive(tcq_mixing(spec), (7.5, 7.2), (0.0, 0.21, 0.18, 0.0))
    assert model.quantum_switch == 0.0
    assert model.static_switch == 0.0
    assert model.chi1 != 0.0 and model.chi2 != 0.0


def test_tcq_zero_switch_chi_closed_forms():
    spec = TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)
    dressed = tcq_mixing(spec)
    model = tcq_dispersive(dressed, (7.5, 7.2), (0.17, 0.0, 0.0, 0.21))
    d1p = dressed.omega_plus - 7.5
    d2m = dressed.omega_minus - 7.2
    chi1_expected = (0.17 ** 2 / 2.0) * dressed.delta_cross / (d1p * (d1p + dressed.delta_cross))
    chi2_expected = 0.21 ** 2 * dressed.delta_minus / (d2m * (d2m + dressed.delta_minus))
    assert model.chi1 == pytest.approx(chi1_expected, rel=1e-12)
    assert model.chi2 == pytest.approx(chi2_expected, rel=1e-12)
    assert model.quantum_switch == 0.0


def test_tcq_symmetric_branches_equal_chi():
    # equal couplings and equal branch detunings give chi1 = chi2
    spec = TcqSpec(6.0, 6.0, -0.3, -0.3, -0.2)
    dressed = tcq_mixing(spec)
    omega1 = dressed.omega_plus + 1.5
    omega2 = dressed.omega_minus + 1.5 + (dressed.omega_plus - dressed.omega_minus)
    # same resonator frequency on both: symmetric by construction
    model = tcq_dispersive(dressed, (omega1, omega1), (0.1, 0.1, 0.1, 0.1))
    assert model.chi1 == pytest.approx(model.chi2, rel=1e-14)


# ---------------------------------------------------------------------------
# coupling inversion against the published parameter table
# ---------------------------------------------------------------------------

SEC5_TABLE = {
    # name: (omega_minus/2pi MHz, g1/2pi MHz, g2/2pi MHz, Tp*kappa)
    "a": (6000.0, 106.6, 76.4, 100.1),
    "b": (5600.0, 132.5, 113.3, 103.7),
    "c": (5200.0, 158.4, 150.0, 106.2),
}
ASYMMETRIC_PURCELL = {"a": 166.8, "b": 172.8, "c": 177.0}


def _sec5_dressed(omega_minus_mhz, chi1, chi2, kappa):
    """Dressed parameters of the published estimate: resonant bare pair at
    J/2pi = -400 MHz with effective anharmonicities -300 MHz on both the
    minus branch and the cross term (the estimate is defined directly in
    dressed space)."""
    from parity_scope.records import replace
    unit = TWO_PI * 1e-3  # MHz -> rad/us
    j = -400.0 * unit
    delta = -300.0 * unit
    omega_minus = omega_minus_mhz * unit
    omega1 = 7500.0 * unit
    sign = math.copysign(1.0, chi1)
    omega2 = omega1 + 2.0 * math.sqrt(3.0) * sign * math.sqrt(chi1 * chi2)
    dressed = tcq_mixing(TcqSpec(omega_minus - j, omega_minus - j, delta, delta, j))
    dressed = replace(dressed, delta_plus=delta, delta_minus=delta, delta_cross=delta)
    return dressed, (omega1, omega2)


@pytest.mark.parametrize("name", list(SEC5_TABLE))
def test_solve_couplings_reproduces_published_table(name):
    unit = TWO_PI * 1e-3
    kappa = 5.0 * unit
    chi = -kappa / 2.0
    omega_minus_mhz, g1_ref, g2_ref, _ = SEC5_TABLE[name]
    dressed, resonators = _sec5_dressed(omega_minus_mhz, chi, chi, kappa)
    g1, g2 = solve_couplings_for_chi((chi, chi), dressed, resonators)
    assert g1 / unit == pytest.approx(g1_ref, rel=0.02)
    assert g2 / unit == pytest.approx(g2_ref, rel=0.02)


def test_solve_couplings_round_trip():
    from parity_scope.dispersive import dressed_sign_flip_couplings

    unit = TWO_PI * 1e-3
    kappa = 5.0 * unit
    chi1, chi2 = -kappa / 2.0, -0.3 * kappa
    dressed, resonators = _sec5_dressed(6000.0, chi1, chi2, kappa)
    g1, g2 = solve_couplings_for_chi((chi1, chi2), dressed, resonators)
    model = tcq_dispersive(dressed, resonators, dressed_sign_flip_couplings(g1, g2))
    assert model.chi1 == pytest.approx(chi1, rel=1e-12)
    assert model.chi2 == pytest.approx(chi2, rel=1e-12)
    assert model.quantum_switch == 0.0


def test_sign_flip_rotation_cancels_branches():
    # the bare sign-flip couplings rotate to (near-)zero cancelled branches
    spec = TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)
    g1p, g1m, g2p, g2m = effective_couplings(tcq_mixing(spec), sign_flip_couplings(0.11, 0.08))
    assert abs(g1p) < 1e-15
    assert abs(g2m) < 1e-15
    assert g1m == pytest.approx(math.sqrt(2) * 0.11, rel=1e-12)
    assert g2p == pytest.approx(math.sqrt(2) * 0.08, rel=1e-12)


def test_published_rounded_couplings_recover_chi():
    # feeding the published rounded couplings back through the shift formulas
    # recovers the design target chi = -kappa/2 up to the rounding residual
    # of the quoted values (about 1% on g, hence about 2% on chi; g2 carries
    # the largest rounding and lands at 2.2%)
    from parity_scope.dispersive import dressed_sign_flip_couplings

    unit = TWO_PI * 1e-3
    kappa = 5.0 * unit
    chi = -kappa / 2.0
    dressed, resonators = _sec5_dressed(6000.0, chi, chi, kappa)
    model = tcq_dispersive(dressed, resonators,
                           dressed_sign_flip_couplings(106.6 * unit, 76.4 * unit))
    assert model.chi1 == pytest.approx(chi, rel=0.02)
    assert model.chi2 == pytest.approx(chi, rel=0.025)


def test_solve_couplings_zero_target():
    unit = TWO_PI * 1e-3
    kappa = 5.0 * unit
    dressed, resonators = _sec5_dressed(6000.0, -kappa / 2, -kappa / 2, kappa)
    g1, g2 = solve_couplings_for_chi((0.0, 0.0), dressed, resonators)
    assert g1 == 0.0 and g2 == 0.0


def test_solve_couplings_sign_mismatch():
    unit = TWO_PI * 1e-3
    kappa = 5.0 * unit
    dressed, resonators = _sec5_dressed(6000.0, -kappa / 2, -kappa / 2, kappa)
    # minus-branch factor is negative here, so a positive chi1 target fails
    with pytest.raises(NegativeDiscriminant):
        solve_couplings_for_chi((+kappa / 2, -kappa / 2), dressed, resonators)


@pytest.mark.parametrize("name", list(SEC5_TABLE))
def test_purcell_times_match_published(name):
    unit = TWO_PI * 1e-3
    kappa = 5.0 * unit
    chi = -kappa / 2.0
    omega_minus_mhz, _, _, tpk_ref = SEC5_TABLE[name]
    dressed, resonators = _sec5_dressed(omega_minus_mhz, chi, chi, kappa)
    g1, _ = solve_couplings_for_chi((chi, chi), dressed, resonators)
    est = purcell_time(kappa, g1, dressed.omega_minus, resonators[0])
    assert est.dimensionless == pytest.approx(tpk_ref, rel=0.02)
    assert est.time == pytest.approx(est.dimensionless / kappa, rel=1e-12)


@pytest.mark.parametrize("name", list(SEC5_TABLE))
def test_purcell_times_asymmetric(name):
    # weaker shift (0.3 kappa) on the decay-mediating resonator lengthens T_p
    unit = TWO_PI * 1e-3
    kappa = 5.0 * unit
    chi1, chi2 = -0.3 * kappa, -kappa / 2.0
    omega_minus_mhz = SEC5_TABLE[name][0]
    dressed, resonators = _sec5_dressed(omega_minus_mhz, chi1, chi2, kappa)
    g1, _ = solve_couplings_for_chi((chi1, chi2), dressed, resonators)
    est = purcell_time(kappa, g1, dressed.omega_minus, resonators[0])
    assert est.dimensionless == pytest.approx(ASYMMETRIC_PURCELL[name], rel=0.02)


def test_purcell_rounded_inputs():
    # plugging the published rounded g back in lands within 2% of 100.1
    unit = TWO_PI * 1e-3
    est = purcell_time(5.0 * unit, 106.6 * unit, 6000.0 * unit, 7500.0 * unit)
    assert est.dimensionless == pytest.approx(100.1, rel=0.02)


def test_purcell_zero_coupling():
    est = purcell_time(1.0, 0.0, 6.0, 7.5)
    assert est.time == math.inf and est.dimensionless == math.inf


def test_purcell_resonant_rejected():
    with pytest.raises(DegenerateDenominator):
        purcell_time(1.0, 0.1, 7.5, 7.5)


# ---------------------------------------------------------------------------
# parity detunings
# ---------------------------------------------------------------------------

def test_parity_detunings_symmetric():
    chi = 0.5
    model = DispersiveModel(0, 0, 0, chi, chi, 0.0, 0.0)
    det = parity_detunings(model, 1.0, 1.0)
    assert det.plus_branch[0] == pytest.approx(math.sqrt(3) * chi, rel=1e-14)
    assert det.plus_branch[1] == pytest.approx(-math.sqrt(3) * chi, rel=1e-14)
    assert det.minus_branch == (-det.plus_branch[0], -det.plus_branch[1])
    assert not det.degenerate


def test_parity_detunings_kappa_scaling():
    model = DispersiveModel(0, 0, 0, 0.4, 0.9, 0.0, 0.1)
    det = parity_detunings(model, 2.0, 0.5)
    s = math.sqrt(0.4 * 0.9 - 0.01)
    assert det.plus_branch[0] == pytest.approx(math.sqrt(3) * 2.0 * s, rel=1e-12)
    assert det.plus_branch[1] == pytest.approx(-math.sqrt(3) * 0.5 * s, rel=1e-12)


def test_parity_detunings_transmon_always_fails():
    model = _transmon_model(0.1, 0.13, -2.0, -2.6)
    with pytest.raises(ParityConditionUnsatisfiable):
        parity_detunings(model, 1.0, 1.0)


def test_parity_detunings_boundary_degenerate():
    model = _transmon_model(0.1, 0.1, -2.0, -2.0)  # chi12^2 == chi1*chi2 exactly
    det = parity_detunings(model, 1.0, 1.0)
    assert det.degenerate
    assert det.plus_branch == (0.0, 0.0)


# ---------------------------------------------------------------------------
# transmission line placement + capacitance matrix
# ---------------------------------------------------------------------------

def _placement(position, n=2, length=1.0):
    return LinePlacement(length=length, position=position,
                         coupling_capacitance=1e-15, total_capacitance=65e-15,
                         capacitance_per_length=1.6e-10, mode_index=n,
                         cutoff_index=8, wave_velocity=1.2e8)


def test_coupling_node_of_second_mode():
    assert coupling_at_position(_placement(0.25)) == pytest.approx(0.0, abs=1e-6)


def test_coupling_sign_flip_across_node():
    g0 = coupling_at_position(_placement(0.0))
    g_half = coupling_at_position(_placement(0.5))
    assert g0 > 0.0
    assert g_half == pytest.approx(-g0, rel=1e-12)


def test_coupling_endpoints_equal():
    assert coupling_at_position(_placement(0.0)) == pytest.approx(
        coupling_at_position(_placement(1.0)), rel=1e-12)


def test_placement_validation():
    with pytest.raises(ValueError):
        _placement(1.5)
    with pytest.raises(ValueError):
        LinePlacement(1.0, 0.1, 2e-10, 65e-15, 1.6e-10, 2, 8)  # C_c > cL


def _mode_caps(cc, n_modes=9, length=1.0):
    x_j = 0.3 * length
    return cc * math.sqrt(2.0) * np.cos(np.pi * np.arange(n_modes) * x_j / length)


@pytest.mark.parametrize("n_modes", [9, 65])
def test_capacitance_exact_inverse_identity(n_modes):
    caps = _mode_caps(1e-3, n_modes=n_modes)
    inv = capacitance_inverse(caps, 1.0, 1.0)
    mat = capacitance_matrix(caps, 1.0, 1.0)
    assert np.max(np.abs(mat @ inv.exact - np.eye(caps.size + 1))) < 1e-10


def test_capacitance_decoupled_limit():
    caps = np.zeros(5)
    inv = capacitance_inverse(caps, 2.0, 0.5)
    expected = np.diag([0.5] * 5 + [2.0])
    assert np.allclose(inv.exact, expected, atol=0)
    assert inv.deviation == 0.0


def test_capacitance_weak_coupling_deviation_bound():
    # C_c/(cL) = 1e-3 with C_Sigma = Lc: deviation below 1e-5 / Lc
    inv = capacitance_inverse(_mode_caps(1e-3), 1.0, 1.0)
    assert inv.deviation <= 1e-5


def test_capacitance_deviation_quadratic_scaling():
    devs = [capacitance_inverse(_mode_caps(cc), 1.0, 1.0).deviation
            for cc in (1e-2, 1e-3, 1e-4)]
    assert devs[0] / devs[1] == pytest.approx(100.0, rel=0.05)
    assert devs[1] / devs[2] == pytest.approx(100.0, rel=0.05)


def test_capacitance_singular():
    with pytest.raises(SingularCapacitanceMatrix):
        capacitance_inverse(np.array([1.0, 1.0]), 1.0, 1.0)


def test_si_constants_equal_scipy():
    import scipy.constants
    from parity_scope import dispersive
    assert dispersive._ELEMENTARY_CHARGE == scipy.constants.e
    assert dispersive._HBAR == scipy.constants.hbar
