"""Tests for the exact-diagonalization oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from parity_scope.dispersive import (
    QubitCavityCoupling,
    TcqSpec,
    TransmonSpec,
    tcq_mixing,
    transmon_dispersive,
    transmon_levels,
)
from parity_scope import spectral
from parity_scope.config import MHZ
from parity_scope.errors import ConvergenceFailure, LevelIdentificationFailure
from parity_scope.spectral import (
    ChargeBasisConfig,
    LadderConfig,
    _beam_splitter_frame,
    _minimize_bounded,
    _photon_pair_gap,
    charge_dispersion,
    chi_oracle,
    dressed_tcq_check,
    duffing_pair_hamiltonian,
    switch_splitting,
    tcq_charge_hamiltonian,
    tcq_charge_spectrum,
    transmon_charge_hamiltonian,
    transmon_charge_spectrum,
    _ladder_hamiltonian,
)


def charge_config(ej_over_ec=50.0, ec=0.3, ei_over_ec=-0.5, **kwargs):
    return ChargeBasisConfig(
        charging_plus=ec, charging_minus=ec,
        josephson_plus=ej_over_ec * ec, josephson_minus=ej_over_ec * ec,
        interaction=ei_over_ec * ec, **kwargs)


# ---------------------------------------------------------------------------
# charge basis
# ---------------------------------------------------------------------------

def unequal_islands(cfg):
    return replace(cfg, charging_minus=0.39, josephson_minus=0.8 * cfg.josephson_plus)


def test_charge_hamiltonians_symmetric():
    # exact symmetry lets the dense solve hand LAPACK the transpose in place
    cfg = charge_config(offset_plus=0.13, offset_minus=0.41, charge_cutoff=8)
    for islands in (cfg, unequal_islands(cfg)):
        for cutoff in (8, 12):
            h = tcq_charge_hamiltonian(islands, cutoff)
            assert np.array_equal(h, h.T)


def kron_charge_hamiltonian(cfg, cutoff):
    """H+ (x) 1 + 1 (x) H- + 4 E_I N+ (x) N- from dense single-island matrices."""
    n = np.arange(-cutoff, cutoff + 1, dtype=float)
    eye = np.eye(n.size)
    h_plus = transmon_charge_hamiltonian(cfg.josephson_plus, cfg.charging_plus,
                                         cfg.offset_plus, cutoff)
    h_minus = transmon_charge_hamiltonian(cfg.josephson_minus, cfg.charging_minus,
                                          cfg.offset_minus, cutoff)
    return (np.kron(h_plus, eye) + np.kron(eye, h_minus)
            + 4.0 * cfg.interaction * np.kron(np.diag(n - cfg.offset_plus),
                                              np.diag(n - cfg.offset_minus)))


@pytest.mark.parametrize("cutoff", [8, 9, 12])
@pytest.mark.parametrize("ej_over_ec, ei_over_ec, offsets", [
    (50.0, -0.5, (0.0, 0.0)), (1.0, -0.5, (0.5, 0.5)),
    (50.0, 0.0, (0.13, 0.41)), (7.0, 1.3, (0.25, 1.0)),
])
def test_charge_hamiltonian_equals_kron_sum(cutoff, ej_over_ec, ei_over_ec, offsets):
    cfg = replace(charge_config(ej_over_ec, ei_over_ec=ei_over_ec,
                                offset_plus=offsets[0], offset_minus=offsets[1]),
                  charging_minus=0.39, josephson_minus=0.8 * ej_over_ec * 0.3)
    assert np.array_equal(tcq_charge_hamiltonian(cfg, cutoff),
                          kron_charge_hamiltonian(cfg, cutoff))


def test_charge_spectrum_factorizes_without_interaction():
    cfg = charge_config(ei_over_ec=0.0, offset_plus=0.13, offset_minus=0.41,
                        charge_cutoff=12)
    coupled = tcq_charge_spectrum(cfg, levels=10)
    single_plus = transmon_charge_spectrum(cfg.josephson_plus, cfg.charging_plus,
                                           0.13, cutoff=16, levels=6)
    single_minus = transmon_charge_spectrum(cfg.josephson_minus, cfg.charging_minus,
                                            0.41, cutoff=16, levels=6)
    sums = np.sort((single_plus[:, None] + single_minus[None, :]).ravel())[:10]
    scale = max(abs(sums[-1]), cfg.charging_scale)
    assert np.max(np.abs(coupled - sums)) < 1e-10 * scale


def test_charge_spectrum_convergence_failure():
    cfg = charge_config(charge_cutoff=8, cutoff_ceiling=8, ej_over_ec=5000.0)
    with pytest.raises(ConvergenceFailure):
        tcq_charge_spectrum(cfg)


def spy_charge_builders(monkeypatch):
    """Record ``(name, cfg, cutoff)`` for each dense build and inertia
    count; a count also records its shifts, its bounds if any and its
    result, last."""
    built = []
    for name in ("tcq_charge_hamiltonian", "_count_below"):
        def spy(cfg, cutoff, *shifts, name=name, build=getattr(spectral, name)):
            result = build(cfg, cutoff, *shifts)
            built.append((name, cfg, cutoff, *shifts, result) if shifts else (name, cfg, cutoff))
            return result
        monkeypatch.setattr(spectral, name, spy)
    return built


def cutoffs_of(built, name):
    return [record[2] for record in built if record[0] == name]


def dense_cutoffs(built):
    return cutoffs_of(built, "tcq_charge_hamiltonian")


def test_charge_cutoff_probe_never_exceeds_ceiling(monkeypatch):
    built = spy_charge_builders(monkeypatch)
    cfg = charge_config(charge_cutoff=8, cutoff_ceiling=16, ej_over_ec=5000.0)
    with pytest.raises(ConvergenceFailure):
        tcq_charge_spectrum(cfg)
    assert sorted(set(cutoffs_of(built, "_count_below"))) == [12, 16]
    assert max(cutoff for _, _, cutoff, *_ in built) == 16
    assert dense_cutoffs(built) == [8, 12, 16]


def test_charge_cutoff_loop_solves_dense_only_where_it_starts_and_returns(monkeypatch):
    # the (0.5, 0.5) point of this config converges at 12: its certificate
    # fails at 12 (the count stops at the first level that fails it) and the
    # dense probe confirms it, then 16 is certified; the probe's levels are
    # the published ones, so no cutoff is solved twice
    cfg = charge_config(ej_over_ec=40.0, ec=1.0, charge_cutoff=8,
                        offset_plus=0.5, offset_minus=0.5)
    built = spy_charge_builders(monkeypatch)
    cutoff, values = spectral._converge_cutoff(cfg, 6)
    assert cutoff == 12
    assert dense_cutoffs(built) == [8, 12]
    counts = {record[2]: record[-1] for record in built if record[0] == "_count_below"}
    assert sorted(counts) == [12, 16]
    assert np.any(counts[12] > np.arange(len(counts[12])))
    assert np.all(counts[16] <= np.arange(6))
    published = sla.eigh(tcq_charge_hamiltonian(cfg, 12), eigvals_only=True,
                         subset_by_index=(0, 5))
    assert np.array_equal(values, published)


def test_charge_cutoff_loop_in_doubt_solves_each_probe_dense_once(monkeypatch):
    # with every certificate in doubt, each probe is a dense solve: one that
    # agrees returns the lower cutoff and its baseline levels, and one whose
    # levels moved is the next baseline and, once it converges, the
    # published levels
    settled = charge_config(ej_over_ec=50.0, charge_cutoff=12)
    climbing = charge_config(ej_over_ec=300.0, charge_cutoff=8)
    baseline = spectral._lowest_levels(settled, 12, 6)
    certified = spectral._converge_cutoff(climbing, 6)
    built = spy_charge_builders(monkeypatch)
    monkeypatch.setattr(spectral, "_count_below", lambda *args: None)
    cutoff, values = spectral._converge_cutoff(settled, 6)
    assert cutoff == 12
    assert np.array_equal(values, baseline)
    assert dense_cutoffs(built) == [12, 16]
    built.clear()
    cutoff, values = spectral._converge_cutoff(climbing, 6)
    assert cutoff == 16
    assert dense_cutoffs(built) == [8, 12, 16, 20]
    published = sla.eigh(tcq_charge_hamiltonian(climbing, 16), eigvals_only=True,
                         subset_by_index=(0, 5))
    assert np.array_equal(values, published)
    assert certified[0] == 16 and np.array_equal(certified[1], published)


COUNT_CASES = [   # E_J/E_C, E_I/E_C, offsets
    (50.0, -0.5, (0.0, 0.0)), (1.0, 0.8, (0.5, 0.5)),
    (7.0, -0.5, (0.13, 0.41)), (20.0, 0.3, (0.5, 0.0)),
]


@pytest.mark.parametrize("cutoff", [8, 9, 12, 16])
@pytest.mark.parametrize("ej_over_ec, ei_over_ec, offsets", COUNT_CASES)
@pytest.mark.parametrize("make", [lambda cfg: cfg, unequal_islands])
def test_count_below_is_the_eigenvalue_count(make, ej_over_ec, ei_over_ec, offsets, cutoff):
    cfg = make(charge_config(ej_over_ec, ei_over_ec=ei_over_ec,
                             offset_plus=offsets[0], offset_minus=offsets[1]))
    h = tcq_charge_hamiltonian(cfg, cutoff)
    values = np.linalg.eigvalsh(h)
    low = values[:9]
    gaps = np.diff(low) > 1e-9 * spectral._charge_scale(cfg, cutoff)
    shifts = np.concatenate([[low[0] - cfg.charging_scale],
                             0.5 * (low[:-1] + low[1:])[gaps], [low[-1] + 1e3]])
    counts = spectral._count_below(cfg, cutoff, shifts)
    assert counts is not None
    assert np.array_equal(counts, np.searchsorted(values, shifts))


def test_count_below_doubts_at_an_eigenvalue_of_the_first_block_or_a_nan():
    # the first pivot block is H's n+ = -cutoff block itself, so a shift at
    # one of its eigenvalues makes it singular
    for make in (lambda cfg: cfg, unequal_islands):
        cfg = make(charge_config(7.0, offset_plus=0.13, offset_minus=0.41))
        dim = 2 * 8 + 1
        first = np.linalg.eigvalsh(tcq_charge_hamiltonian(cfg, 8)[:dim, :dim])
        for shift in first[[0, dim // 2, -1]]:
            assert spectral._count_below(cfg, 8, [shift]) is None
        assert spectral._count_below(cfg, 8, [first[0] - 1.0]) is not None
        assert spectral._count_below(cfg, 8, [first[0] - 1.0, math.nan]) is None


def certificate_case(monkeypatch):
    """A config with well-separated levels, its lowest 6 levels at cutoff
    8, a quarter of their smallest gap, and ``(shifts, counts)`` of every
    inertia count."""
    cfg = charge_config(7.0, offset_plus=0.13, offset_minus=0.41)
    values = np.linalg.eigvalsh(tcq_charge_hamiltonian(cfg, 8))[:7]
    counted = []

    def spy(cfg, cutoff, shifts, bounds=None, count=spectral._count_below):
        counts = count(cfg, cutoff, shifts, bounds)
        counted.append((np.array(shifts), counts))
        return counts
    monkeypatch.setattr(spectral, "_count_below", spy)
    return cfg, values[:6], np.min(np.diff(values)) / 4.0, counted


def test_certificate_passes_an_envelope_around_each_level(monkeypatch):
    cfg, values, step, counted = certificate_case(monkeypatch)
    assert spectral._certified(cfg, 8, values - step, values + step)
    # level k's two shifts side by side
    assert np.array_equal(counted[-1][0],
                          np.column_stack([values - step, values + step]).ravel())
    # the cutoff probe's form: infinite highs are skipped, the lows counted as given
    assert spectral._certified(cfg, 8, values - step, np.full(6, np.inf))
    assert np.array_equal(counted[-1][0], values - step)


@pytest.mark.parametrize("level", [0, 3, 5])
def test_certificate_fails_an_envelope_that_excludes_a_level(monkeypatch, level):
    cfg, values, step, counted = certificate_case(monkeypatch)
    # level k above its interval: the count stops at its high shift, the
    # 2k + 2nd; below it: at its low shift, the 2k + 1st
    lows, highs = values - step, values + step
    highs[level] = values[level] - step / 2.0
    assert not spectral._certified(cfg, 8, lows, highs)
    assert len(counted[-1][1]) == 2 * level + 2
    lows, highs = values - step, values + step
    lows[level] = values[level] + step / 2.0
    assert not spectral._certified(cfg, 8, lows, highs)
    assert len(counted[-1][1]) == 2 * level + 1


def test_certificate_fails_closed(monkeypatch):
    cfg, values, step, counted = certificate_case(monkeypatch)
    inf = np.full(6, np.inf)
    # the empty starting envelope, an inverted and an empty interval, and
    # no finite bound at all fail before any count
    assert not spectral._certified(cfg, 8, inf, -inf)
    inverted = values + step
    inverted[2] = values[2] - 2 * step
    assert not spectral._certified(cfg, 8, values - step, inverted)
    assert not spectral._certified(cfg, 8, values, values)
    assert not spectral._certified(cfg, 8, -inf, inf)
    assert counted == []
    # a NaN bound is not skipped: it reaches the count, which doubts
    for highs in (values + step, inf):
        lows = values - step
        lows[1] = math.nan
        assert not spectral._certified(cfg, 8, lows, highs)
        shifts, counts = counted.pop()
        assert np.isnan(shifts).any() and counts is None


def random_charge_config(rng, **kwargs):
    """Equal or unequal islands, E_J/E_C from 1 to 50, E_I of either sign."""
    ec = rng.uniform(0.2, 0.5)
    ratio = math.exp(rng.uniform(0.0, math.log(50.0)))
    cfg = charge_config(ratio, ec=ec, ei_over_ec=rng.uniform(-0.8, 0.8),
                        offset_plus=rng.uniform(), offset_minus=rng.uniform(), **kwargs)
    if rng.uniform() < 0.5:
        cfg = replace(cfg, charging_minus=ec * rng.uniform(0.7, 1.4),
                      josephson_minus=ratio * ec * rng.uniform(0.7, 1.4))
    return cfg


def test_probe_certificate_agrees_with_the_dense_comparison():
    rng = np.random.default_rng(18)
    outcomes = []
    for _ in range(120):
        cfg = random_charge_config(rng, charge_cutoff=8)
        values = spectral._lowest_levels(cfg, 8, 6)
        tol = spectral.CONVERGENCE_RTOL * cfg.charging_scale
        counts = spectral._count_below(cfg, 12, values - tol)
        dense = spectral._lowest_levels(cfg, 12, 6)
        passes = bool(np.max(np.abs(dense - values)) <= tol)
        if counts is not None:
            assert bool(np.all(counts <= np.arange(6))) == passes
            outcomes.append(passes)
    assert len(outcomes) >= 100
    assert set(outcomes) == {True, False}


def all_dense_dispersion(cfg, levels=6, grid_points=21):
    """charge_dispersion's loop before certification, kept as the reference:
    every visited orbit point is a dense solve.  Returns the dispersion and
    the levels of each point."""
    probes = {ng: spectral._converge_cutoff(
                  replace(cfg, offset_plus=ng, offset_minus=ng), levels)
              for ng in (0.0, 0.5)}
    cutoff = max(converged for converged, _ in probes.values())
    solved = {(ng, ng): values for ng, (converged, values) in probes.items()
              if converged == cutoff}
    swap = (cfg.charging_plus == cfg.charging_minus
            and cfg.josephson_plus == cfg.josephson_minus)
    grid = np.linspace(0.0, 1.0, grid_points).tolist()
    lows = np.full(levels, np.inf)
    highs = np.full(levels, -np.inf)
    points = {}
    for i, ng_plus in enumerate(grid):
        for ng_minus in grid[i if swap else 0:]:
            vals = solved.get((ng_plus, ng_minus))
            if vals is None:
                probe = replace(cfg, offset_plus=ng_plus, offset_minus=ng_minus)
                vals = spectral._lowest_levels(probe, cutoff, levels)
            points[ng_plus, ng_minus] = vals
            lows = np.minimum(lows, vals)
            highs = np.maximum(highs, vals)
    return highs - lows, points


def dense_points(monkeypatch):
    solved = []

    def spy(cfg, cutoff, levels, solve=spectral._lowest_levels):
        solved.append((cfg.offset_plus, cfg.offset_minus))
        return solve(cfg, cutoff, levels)
    monkeypatch.setattr(spectral, "_lowest_levels", spy)
    return solved


def assert_certified_equals_all_dense(monkeypatch, cfg, grid_points):
    reference, points = all_dense_dispersion(cfg, 6, grid_points)
    with monkeypatch.context() as patch:
        solved = dense_points(patch)
        dispersion = charge_dispersion(cfg, levels=6, grid_points=grid_points)
    assert np.array_equal(dispersion, reference)
    levels = np.array(list(points.values()))
    extreme = (levels == levels.max(axis=0)) | (levels == levels.min(axis=0))
    attained = {point for point, hit in zip(points, extreme.any(axis=1)) if hit}
    assert attained <= set(solved)
    return len(set(solved)), len(points)


def test_certified_dispersion_equals_all_dense_on_random_configs(monkeypatch):
    rng = np.random.default_rng(7)
    skipped = 0
    for k in range(42):
        cfg = random_charge_config(rng, charge_cutoff=8)
        dense, visited = assert_certified_equals_all_dense(
            monkeypatch, cfg, (5, 6, 9)[k % 3])
        skipped += visited - dense
    assert skipped > 0


# dense solves per grid size, the cutoff loop's two included
VALIDATE_DENSE_SOLVES = {50.0: {5: 4, 21: 4}, 1.0: {5: 11, 21: 37}}


@pytest.mark.parametrize("josephson", [50.0, 1.0])   # validate's flat and steep
def test_certified_dispersion_equals_all_dense_on_validate_grid(monkeypatch, josephson):
    ec = 0.3 * MHZ * 1e3
    cfg = ChargeBasisConfig(ec, ec, josephson * ec, josephson * ec, -0.5 * ec,
                            charge_cutoff=12)
    for grid_points, solves in VALIDATE_DENSE_SOLVES[josephson].items():
        dense, visited = assert_certified_equals_all_dense(monkeypatch, cfg, grid_points)
        assert (dense, visited) == (solves, grid_points * (grid_points + 1) // 2)


def test_charge_spectrum_peak_memory_is_one_dense_matrix():
    # validate's flat configuration at cutoff 12 converges there: one 625^2
    # dense matrix, solved in place, and a probe at 16 certified by counts
    import tracemalloc
    ec = 0.3 * MHZ * 1e3
    cfg = ChargeBasisConfig(ec, ec, 50 * ec, 50 * ec, -0.5 * ec, charge_cutoff=12)
    tcq_charge_spectrum(cfg)   # first calls load LAPACK wrappers
    tracemalloc.start()
    try:
        tcq_charge_spectrum(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 625 ** 2 * 8


def test_charge_dispersion_flat_in_transmon_regime():
    cfg = charge_config(ej_over_ec=50.0, charge_cutoff=12)
    dispersion = charge_dispersion(cfg, levels=6, grid_points=21)
    assert np.max(dispersion) < 1e-3 * cfg.charging_scale


def test_charge_dispersion_large_at_small_ej():
    cfg = charge_config(ej_over_ec=1.0, charge_cutoff=12)
    dispersion = charge_dispersion(cfg, levels=6, grid_points=21)
    assert dispersion[1] > 0.05 * cfg.charging_scale


@pytest.mark.parametrize("make", [lambda cfg: cfg, unequal_islands])
def test_charge_hamiltonian_island_swap_permutes_basis(make):
    # float + and * commute, so swapping the islands gives the index-swapped
    # matrix bit for bit: the symmetry charge_dispersion relies on
    cfg = make(charge_config(ei_over_ec=-0.5, offset_plus=0.13, offset_minus=0.41))
    swapped = replace(cfg, charging_plus=cfg.charging_minus,
                      charging_minus=cfg.charging_plus,
                      josephson_plus=cfg.josephson_minus,
                      josephson_minus=cfg.josephson_plus,
                      offset_plus=cfg.offset_minus, offset_minus=cfg.offset_plus)
    dim = 2 * 8 + 1
    swap = np.arange(dim * dim).reshape(dim, dim).T.ravel()
    h = tcq_charge_hamiltonian(cfg, 8)
    assert np.array_equal(tcq_charge_hamiltonian(swapped, 8), h[np.ix_(swap, swap)])


def full_grid_dispersion(cfg, levels, grid_points):
    """Every grid point solved at the probes' cutoff, nothing reused."""
    cutoff = max(spectral._converge_cutoff(replace(cfg, offset_plus=ng, offset_minus=ng),
                                           levels)[0] for ng in (0.0, 0.5))
    grid = np.linspace(0.0, 1.0, grid_points)
    values = [sla.eigh(tcq_charge_hamiltonian(
                  replace(cfg, offset_plus=float(p), offset_minus=float(m)), cutoff),
                  eigvals_only=True, subset_by_index=(0, levels - 1))
              for p in grid for m in grid]
    return np.max(values, axis=0) - np.min(values, axis=0)


@pytest.mark.parametrize("make, builds", [(lambda cfg: cfg, 17), (unequal_islands, 27)])
def test_charge_dispersion_solves_orbits_once(monkeypatch, make, builds):
    # grid 5: 25 points; probes converge at cutoff 8 (a dense build and a
    # certified probe each) and stand in for (0, 0) and (0.5, 0.5); equal
    # islands visit ng+ <= ng- only.  A grid point is decided once, by a
    # dense build, a certificate, or a failed certificate and a dense build.
    cfg = make(charge_config(ej_over_ec=1.0, charge_cutoff=8))
    spied = spy_charge_builders(monkeypatch)
    charge_dispersion(cfg, levels=6, grid_points=5)
    visits = [(name, point.offset_plus, point.offset_minus, cutoff)
              for name, point, cutoff, *_ in spied]
    assert len(set(visits)) == len(visits)
    decided = {visit[1:] for visit in visits}
    assert len(decided) == builds
    assert set(dense_cutoffs(spied)) == {8}
    built = [point[:2] for point in decided]
    if make is unequal_islands:
        assert (0.75, 0.25) in built
    else:
        assert all(plus <= minus for plus, minus in built)


@pytest.mark.parametrize("ej_over_ec, grid_points", [
    (1.0, 5), (1.0, 6),
    (40.0, 5),   # the (0, 0) probe converges at 8, the (0.5, 0.5) one at 12
])
def test_charge_dispersion_matches_full_grid(ej_over_ec, grid_points):
    cfg = charge_config(ej_over_ec=ej_over_ec, ec=1.0, charge_cutoff=8)
    for islands in (cfg, unequal_islands(cfg)):
        reduced = charge_dispersion(islands, levels=6, grid_points=grid_points)
        full = full_grid_dispersion(islands, 6, grid_points)
        if islands is cfg:
            # the swapped points are the same matrix up to LAPACK's rounding
            assert np.max(np.abs(reduced - full)) <= 1e-12 * cfg.charging_scale
        else:
            assert np.array_equal(reduced, full)


# ---------------------------------------------------------------------------
# coupled-Duffing normal form
# ---------------------------------------------------------------------------

def test_dressed_check_linear_rotation_exact():
    # pure beam-splitter problem: the rotation is exact at any coupling
    spec = TcqSpec(5.0, 5.2, 0.0, 0.0, -0.4)
    report = dressed_tcq_check(spec, levels=8)
    for name in report.exact:
        assert report.exact[name] == pytest.approx(report.perturbative[name],
                                                   abs=1e-10)
    assert report.min_overlap > 0.9


def test_dressed_check_uncoupled_exact():
    spec = TcqSpec(5.0, 5.2, -0.3, -0.25, 0.0)
    report = dressed_tcq_check(spec, levels=8)
    for name in report.exact:
        assert report.exact[name] == pytest.approx(report.perturbative[name],
                                                   abs=1e-12)
    assert report.min_overlap == pytest.approx(1.0)


@pytest.mark.parametrize("ratio", [0.1, 0.2])
def test_dressed_check_resonant_accuracy(ratio):
    # all five dressed parameters agree within 5 (delta/2J)^2 relative
    j = -1.0
    delta = ratio * j
    spec = TcqSpec(5.0, 5.0, delta, delta, j)
    report = dressed_tcq_check(spec, levels=10)
    assert report.worst_error <= 5.0 * (delta / (2 * j)) ** 2


def test_dressed_check_error_shrinks_with_anharmonicity():
    j = -1.0
    errors = []
    for ratio in (0.2, 0.1, 0.05):
        spec = TcqSpec(5.0, 5.0, ratio * j, ratio * j, j)
        errors.append(dressed_tcq_check(spec, levels=10).worst_error)
    assert errors[0] > errors[1] > errors[2]


def test_dressed_check_frozen_values():
    # regression anchor: deterministic eigh, exact to ~1e-10
    j = -1.0
    spec = TcqSpec(5.0, 5.0, 0.1 * j, 0.1 * j, j)
    report = dressed_tcq_check(spec, levels=10)
    assert report.worst_error == pytest.approx(0.0124980468, abs=1e-8)


def test_identification_overlap_floor():
    # a label spread evenly over many eigenstates must be rejected
    from parity_scope.spectral import _identify
    dim = 8
    vectors = sla.hadamard(dim) / math.sqrt(dim)
    target = np.zeros(dim)
    target[3] = 1.0
    with pytest.raises(LevelIdentificationFailure):
        _identify(vectors, target)


def test_duffing_pair_hermitian():
    spec = TcqSpec(5.0, 5.3, -0.3, -0.2, -0.15)
    h = duffing_pair_hamiltonian(spec, 7)
    assert np.array_equal(h, h.T)


# ---------------------------------------------------------------------------
# chi ladder oracle
# ---------------------------------------------------------------------------

def transmon_ladder_config(ratio, spectator_scale=0.2):
    frequency, anharmonicity = 5.0, -3.2
    w1, w2 = 7.0, 8.4
    g1 = ratio * abs(frequency - w1)
    g2 = spectator_scale * ratio * abs(frequency - w2)
    return LadderConfig(kind="transmon", qubit_frequency=frequency,
                        anharmonicity=anharmonicity,
                        resonator1_frequency=w1, resonator2_frequency=w2,
                        couplings=(g1, g2), qubit_levels=3, photon_levels=4)


def tcq_ladder_config(ratio, branch="minus", spectator_scale=0.2):
    dressed = replace(
        tcq_mixing(TcqSpec(6.4, 6.4, -1.2, -1.2, -0.4)),
        delta_plus=-1.2, delta_minus=-1.2, delta_cross=-1.36)
    w1, w2 = 7.5, 8.5
    g1m = abs(dressed.omega_minus - w1)
    g2p = abs(dressed.omega_plus - w2)
    if branch == "minus":
        couplings = (0.0, ratio * g1m, spectator_scale * ratio * g2p, 0.0)
    else:
        couplings = (0.0, spectator_scale * ratio * g1m, ratio * g2p, 0.0)
    return LadderConfig(kind="tcq", dressed=dressed,
                        resonator1_frequency=w1, resonator2_frequency=w2,
                        couplings=couplings, qubit_levels=3, photon_levels=3)


def test_ladder_hamiltonians_hermitian():
    for cfg in (transmon_ladder_config(0.05), tcq_ladder_config(0.05)):
        h = _ladder_hamiltonian(cfg)
        assert np.array_equal(h, h.T)


def test_chi_oracle_zero_couplings():
    cfg = replace(transmon_ladder_config(0.05), couplings=(0.0, 0.0))
    report = chi_oracle(cfg, check_convergence=False)
    assert report.chi1 == 0.0 and report.chi2 == 0.0


def test_chi_oracle_transmon_quadratic_accuracy():
    errors = []
    ratios = [0.05, 0.025, 0.0125]
    for ratio in ratios:
        report = chi_oracle(transmon_ladder_config(ratio), check_convergence=False)
        err = report.relative_errors[0]
        errors.append(err)
        assert err <= 3.0 * ratio ** 2
    slope = np.polyfit(np.log(ratios), np.log(errors), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


def test_chi_oracle_tcq_quadratic_accuracy():
    for branch, index in (("minus", 0), ("plus", 1)):
        errors = []
        ratios = [0.05, 0.025, 0.0125]
        for ratio in ratios:
            report = chi_oracle(tcq_ladder_config(ratio, branch), check_convergence=False)
            err = report.relative_errors[index]
            errors.append(err)
            assert err <= 3.0 * ratio ** 2
        slope = np.polyfit(np.log(ratios), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


def test_chi_oracle_convergence_probe_passes():
    report = chi_oracle(transmon_ladder_config(0.05), check_convergence=True)
    assert report.chi1 != 0.0


def test_transmon_oracle_uses_the_production_shifts():
    # the oracle's perturbative side is transmon_dispersive's formula, bit for bit
    rng = np.random.default_rng(5)
    for _ in range(50):
        spec = TransmonSpec(rng.uniform(10.0, 60.0), rng.uniform(0.1, 0.5))
        omega_t, delta = transmon_levels(spec)
        g1, g2 = rng.uniform(-0.3, 0.3, 2)
        w1, w2 = rng.uniform(6.0, 9.0, 2)
        model = transmon_dispersive(spec, QubitCavityCoupling(g1, g2, omega_t - w1, omega_t - w2))
        cfg = LadderConfig(kind="transmon", qubit_frequency=omega_t, anharmonicity=delta,
                           resonator1_frequency=w1, resonator2_frequency=w2, couplings=(g1, g2))
        assert spectral._perturbative_chis(cfg) == (model.chi1, model.chi2)


def test_switch_splitting_transmon_state_dependence():
    # a transmon's switch coupling is state dependent: per-state minimal gaps
    # equal 2 |chibar12 +/- chi12| within the dispersive accuracy
    frequency, anharmonicity = 5.0, -1.0
    w1 = 7.0
    g1 = 0.05 * abs(frequency - w1)
    g2 = 0.05 * abs(frequency - w1)  # evaluated at the crossing w2 ~ w1
    cfg = LadderConfig(kind="transmon", qubit_frequency=frequency,
                       anharmonicity=anharmonicity,
                       resonator1_frequency=w1, resonator2_frequency=w1 + 0.01,
                       couplings=(g1, g2), qubit_levels=3, photon_levels=3)
    gaps = switch_splitting(cfg)
    d = frequency - w1
    chi = g1 ** 2 / d - g1 ** 2 / (d + anharmonicity)
    chibar = -g1 * g2 * (1.0 / (d + anharmonicity))
    chi12 = 0.5 * (chi + chi)
    assert gaps["ground"] == pytest.approx(2 * abs(chibar - chi12), rel=0.05)
    assert gaps["excited"] == pytest.approx(2 * abs(chibar + chi12), rel=0.05)
    assert abs(gaps["excited"] - gaps["ground"]) / 2.0 > 0.1 * abs(chi)


def test_switch_splitting_tcq_zero_switch():
    # zero-switch TCQ: the avoided crossing collapses for both qubit states
    dressed = replace(
        tcq_mixing(TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)),
        delta_plus=-0.15, delta_minus=-0.15, delta_cross=-0.3)
    w1 = 7.5
    g1m = 0.05 * abs(dressed.omega_minus - w1)
    g2p = 0.05 * abs(dressed.omega_plus - w1)
    cfg = LadderConfig(kind="tcq", dressed=dressed,
                       resonator1_frequency=w1, resonator2_frequency=w1 + 0.01,
                       couplings=(0.0, g1m, g2p, 0.0), qubit_levels=3, photon_levels=3)
    gaps = switch_splitting(cfg)
    d1m = dressed.omega_minus - w1
    chi1 = g1m ** 2 * dressed.delta_minus / (d1m * (d1m + dressed.delta_minus))
    state_dependent = abs(gaps["excited"] - gaps["ground"]) / 2.0
    assert state_dependent < 1e-2 * abs(chi1)


def zero_switch_ladder():
    # the zero_switch_splitting ladder of validate at coupling ratio 0.05
    dressed = replace(
        tcq_mixing(TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)),
        delta_plus=-0.15, delta_minus=-0.15, delta_cross=-0.3)
    w1 = 7.5
    return LadderConfig(kind="tcq", dressed=dressed,
                        resonator1_frequency=w1, resonator2_frequency=w1 + 0.01,
                        couplings=(0.0, 0.05 * abs(dressed.omega_minus - w1),
                                   0.05 * abs(dressed.omega_plus - w1), 0.0),
                        qubit_levels=3, photon_levels=3)


@pytest.mark.parametrize("func, bounds, xatol", [
    (lambda x: (x - 0.3) ** 2, (-1.0, 2.0), 1e-5),
    (lambda x: abs(math.sin(3.0 * x)) + 0.1 * x, (0.5, 2.5), 1e-10),
    (lambda x: math.cosh(x - 1.7) - 1.0, (1.7, 4.0), 1e-12),   # minimum on the bound
    (lambda x: 1.0, (0.0, 1.0), 1e-8),                       # flat
    (lambda w2: _photon_pair_gap(spectral._switch_ladder(zero_switch_ladder()), (0, 1), w2),
     (7.35, 7.65), 7.5e-12),
])
def test_bounded_minimizer_is_scipys_bitwise(func, bounds, xatol):
    from scipy.optimize import minimize_scalar
    calls = []

    def traced(x):
        calls.append(x)
        return func(x)

    x, fun, evaluations = _minimize_bounded(traced, *bounds, xatol=xatol)
    ours, calls[:] = list(calls), []
    ref = minimize_scalar(traced, bounds=bounds, method="bounded", options={"xatol": xatol})
    assert ref.success
    assert calls == ours
    assert (x, fun, evaluations) == (ref.x, ref.fun, ref.nfev)


def test_switch_splitting_raises_on_evaluation_budget(monkeypatch):
    # the validate ladder needs 18-20 evaluations per qubit state
    monkeypatch.setattr(spectral, "MINIMIZER_MAXFUN", 3)
    with pytest.raises(ConvergenceFailure):
        switch_splitting(zero_switch_ladder())


@pytest.mark.parametrize("make", [
    lambda: transmon_ladder_config(0.05), lambda: tcq_ladder_config(0.05), zero_switch_ladder])
def test_switch_ladder_reuses_the_fixed_terms_bitwise(make):
    cfg = make()
    dims, labels, hamiltonian = spectral._switch_ladder(cfg)
    assert dims == spectral._ladder(cfg)[0] and labels == spectral._ladder(cfg)[3]
    w1 = cfg.resonator1_frequency
    for w2 in (w1 - 0.15, w1, w1 + 1e-7, cfg.resonator2_frequency, 0.0):
        assert np.array_equal(hamiltonian(w2), _ladder_hamiltonian(cfg, w2))


# ---------------------------------------------------------------------------
# the one Fock-space builder against hand-written Kronecker stacks
# ---------------------------------------------------------------------------

def _ref_lowering(levels):
    return np.diag(np.sqrt(np.arange(1.0, levels)), 1)


def _ref_number(levels):
    return np.diag(np.arange(float(levels)))


def reference_transmon_ladder(cfg, resonator2_frequency, photon_levels):
    nq, nc = cfg.qubit_levels, photon_levels
    b, a = _ref_lowering(nq), _ref_lowering(nc)
    iq, ic = np.eye(nq), np.eye(nc)
    n_ph, n_q = _ref_number(nc), _ref_number(nq)
    energy = cfg.qubit_frequency * n_q + cfg.anharmonicity / 2.0 * (n_q @ n_q - n_q)
    g1, g2 = cfg.couplings
    h = (np.kron(energy, np.kron(ic, ic))
         + cfg.resonator1_frequency * np.kron(iq, np.kron(n_ph, ic))
         + resonator2_frequency * np.kron(iq, np.kron(ic, n_ph)))
    h += g1 * (np.kron(b.T, np.kron(a, ic)) + np.kron(b, np.kron(a.T, ic)))
    h += g2 * (np.kron(b.T, np.kron(ic, a)) + np.kron(b, np.kron(ic, a.T)))
    return h


def reference_tcq_ladder(cfg, resonator2_frequency, photon_levels):
    nq, nc = cfg.qubit_levels, photon_levels
    d = cfg.dressed
    b, a = _ref_lowering(nq), _ref_lowering(nc)
    iq, ic = np.eye(nq), np.eye(nc)
    n_ph, n_q = _ref_number(nc), _ref_number(nq)

    def op4(hp, hm, c1, c2):
        return np.kron(hp, np.kron(hm, np.kron(c1, c2)))

    def duffing(omega, delta):
        return omega * n_q + delta / 2.0 * (n_q @ n_q - n_q)

    h = (op4(duffing(d.omega_plus, d.delta_plus), iq, ic, ic)
         + op4(iq, duffing(d.omega_minus, d.delta_minus), ic, ic)
         + d.delta_cross * op4(n_q, n_q, ic, ic)
         + cfg.resonator1_frequency * op4(iq, iq, n_ph, ic)
         + resonator2_frequency * op4(iq, iq, ic, n_ph))
    raising = [op4(b.T, iq, a, ic), op4(iq, b.T, a, ic),
               op4(b.T, iq, ic, a), op4(iq, b.T, ic, a)]
    for g, op in zip(cfg.couplings, raising):
        if g != 0.0:
            h += g * (op + op.T)
    return h


def reference_duffing_pair(spec, levels):
    a, n, eye = _ref_lowering(levels), _ref_number(levels), np.eye(levels)

    def duffing(omega, delta):
        return omega * n + delta / 2.0 * (n @ n - n)

    return (np.kron(duffing(spec.omega_plus, spec.delta_plus), eye)
            + np.kron(eye, duffing(spec.omega_minus, spec.delta_minus))
            + spec.transverse_coupling * (np.kron(a, a.T) + np.kron(a.T, a)))


def random_ladder(rng, kind):
    couplings = rng.uniform(-0.3, 0.3, 2 if kind == "transmon" else 4)
    couplings[rng.random(couplings.size) < 0.3] = 0.0
    common = dict(resonator1_frequency=rng.uniform(6.0, 9.0),
                  resonator2_frequency=rng.uniform(6.0, 9.0),
                  couplings=tuple(couplings), qubit_levels=int(rng.integers(3, 6)),
                  photon_levels=int(rng.integers(3, 6)))
    if kind == "transmon":
        return LadderConfig(kind="transmon", qubit_frequency=rng.uniform(4.0, 7.0),
                            anharmonicity=rng.uniform(-3.0, -0.1), **common)
    spec = TcqSpec(*rng.uniform(5.0, 7.0, 2), *rng.uniform(-1.5, -0.1, 2),
                   rng.uniform(-0.6, -0.05))
    dressed = replace(tcq_mixing(spec), delta_cross=rng.uniform(-2.0, -0.1))
    return LadderConfig(kind="tcq", dressed=dressed, **common)


@pytest.mark.parametrize("kind, reference, draws", [
    ("transmon", reference_transmon_ladder, 40),
    ("tcq", reference_tcq_ladder, 12),   # up to 2500 dims with doubled photons
])
def test_ladder_builder_matches_kron_reference(kind, reference, draws):
    rng = np.random.default_rng(17)
    for _ in range(draws):
        cfg = random_ladder(rng, kind)
        nc = cfg.photon_levels
        w2 = rng.uniform(6.0, 9.0)
        assert np.array_equal(_ladder_hamiltonian(cfg),
                              reference(cfg, cfg.resonator2_frequency, nc))
        assert np.array_equal(_ladder_hamiltonian(cfg, w2),
                              reference(cfg, w2, nc))
        assert np.array_equal(_ladder_hamiltonian(cfg, photon_levels=2 * nc),
                              reference(cfg, cfg.resonator2_frequency, 2 * nc))


def test_duffing_pair_builder_matches_kron_reference():
    rng = np.random.default_rng(23)
    for _ in range(40):
        levels = int(rng.integers(2, 11))
        coupling = 0.0 if rng.random() < 0.2 else rng.uniform(-1.0, 1.0)
        spec = TcqSpec(*rng.uniform(4.0, 7.0, 2), *rng.uniform(-1.0, 0.0, 2), coupling)
        assert np.array_equal(duffing_pair_hamiltonian(spec, levels),
                              reference_duffing_pair(spec, levels))
        a = _ref_lowering(levels)
        angle = rng.uniform(-math.pi, math.pi)
        frame = sla.expm(angle * (np.kron(a, a.T) - np.kron(a.T, a))).T
        assert np.array_equal(_beam_splitter_frame(angle, levels), frame)
