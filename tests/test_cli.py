"""Tests for configuration parsing, presets and the CLI commands."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import parity_scope
from parity_scope.cli import BLAS_THREAD_VARIABLES, _second_core, main
from parity_scope.config import (
    LEAVES,
    MHZ,
    PRESETS,
    REQUIRED,
    derive_scenario,
    load_config,
    parse_config,
    preset,
    preset_names,
)
from parity_scope.errors import ConfigError, ParityScopeError


def run(argv):
    return main(argv)


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_preset_names_cover_spec():
    names = {name for name, _ in preset_names()}
    assert names == {"paper-sec5-symmetric", "paper-sec5-asymmetric",
                     "transmon-obstruction", "fig4-cuts"}


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset("nope")


def test_parse_rejects_empty_devices():
    tree = {"devices": [], "bus": {}, "pulse": {}}
    with pytest.raises(ConfigError):
        parse_config(tree)


def test_parse_rejects_bad_field_with_location():
    cfg = json.loads(json.dumps({
        "devices": [{"type": "tcq", "qubit_frequency_mhz": "high"}],
        "bus": {"resonator1_mhz": 7500, "resonator2_mhz": 7490,
                "kappa1_mhz": 5, "kappa2_mhz": 5},
        "pulse": {"amplitude": 0.5, "ramp": 4, "t_on": 1, "t_off": 16},
    }))
    with pytest.raises(ConfigError, match="devices\\[0\\].qubit_frequency_mhz"):
        parse_config(cfg)


def test_parse_defaults_absent_names():
    # an absent scenario name is the caller's (a path or a preset name), an
    # absent device name q<i>
    from parity_scope.config import PRESETS
    tree = json.loads(json.dumps(PRESETS["paper-sec5-symmetric"]))
    del tree["name"], tree["devices"][1]["name"]
    cfg = parse_config(tree, name="here.json")
    assert cfg.name == "here.json"
    assert [device["name"] for device in cfg.devices] == ["a", "q1", "c"]


def test_load_config_round_trip(tmp_path):
    from parity_scope.config import PRESETS
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(PRESETS["paper-sec5-symmetric"]))
    cfg = load_config(path)
    assert cfg.kappa1 == pytest.approx(5.0 * MHZ)
    assert cfg.resonator2 == "auto-parity"


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"devices\": [,]\n}")
    with pytest.raises(ConfigError, match="broken.json:2"):
        load_config(path)


@pytest.mark.parametrize("content, message", [
    (b'{"name": "caf\xe9"}', "not UTF-8 text"),
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
])
def test_cli_rejects_undecodable_config(tmp_path, capsys, content, message):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    assert run(["dispersive", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err


@pytest.mark.parametrize("out", ["taken", "taken/sub",
                                 pytest.param("n" * 300, id="name-too-long"),
                                 pytest.param("nul\0byte", id="nul-byte")])
@pytest.mark.parametrize("option", ["--out", "output_dir"])
def test_cli_rejects_an_output_directory_blocked_by_a_file(tmp_path, capsys, out, option):
    # an existing file at the output path or one of its parents, a name
    # component longer than the OS allows, or a NUL byte: exit 2
    from parity_scope.config import PRESETS
    (tmp_path / "taken").write_text("")
    target = str(tmp_path / out)
    argv = ["dispersive", "--quiet"]
    if option == "--out":
        argv += ["--preset", "paper-sec5-symmetric", "--out", target]
    else:
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(dict(PRESETS["paper-sec5-symmetric"], output_dir=target)))
        argv += ["--config", str(config)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot create output directory {target}" in err


@pytest.mark.parametrize("argv, name", [(["dispersive"], "dispersive.json"),
                                        (["simulate", "--hw", "0"], "trajectory_hw0.csv")])
def test_cli_rejects_an_output_file_that_is_a_directory(tmp_path, capsys, argv, name):
    # the JSON writer and the CSV writer: exit 2, naming the path
    (tmp_path / name).mkdir()
    argv = [*argv, "--preset", "paper-sec5-symmetric", "--out", str(tmp_path), "--quiet"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot write {tmp_path / name}: Is a directory" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_cli_full_disk_is_an_output_error(tmp_path, capsys):
    # a write that fails for want of space is no configuration error: exit 5,
    # naming the path, and no traceback
    (tmp_path / "dispersive.json").symlink_to("/dev/full")
    argv = ["dispersive", "--preset", "paper-sec5-symmetric", "--out", str(tmp_path), "--quiet"]
    assert run(argv) == 5
    assert capsys.readouterr().err == (f"output error: cannot write {tmp_path / 'dispersive.json'}"
                                       f": No space left on device\n")


# ---------------------------------------------------------------------------
# scenario derivation
# ---------------------------------------------------------------------------

def test_symmetric_scenario_matches_published_values():
    report = derive_scenario(preset("paper-sec5-symmetric"))
    assert report.parity_satisfiable
    table = {"a": (106.6, 76.4), "b": (132.5, 113.3), "c": (158.4, 150.0)}
    purcell = {"a": 100.1, "b": 103.7, "c": 106.2}
    for qubit in report.qubits:
        g1_ref, g2_ref = table[qubit.name]
        assert qubit.g1 / MHZ == pytest.approx(g1_ref, rel=0.02)
        assert qubit.g2 / MHZ == pytest.approx(g2_ref, rel=0.02)
        assert qubit.purcell.dimensionless == pytest.approx(purcell[qubit.name], rel=0.02)
        assert qubit.model.quantum_switch == 0.0


def test_asymmetric_scenario_purcell():
    report = derive_scenario(preset("paper-sec5-asymmetric"))
    purcell = {"a": 166.8, "b": 172.8, "c": 177.0}
    for qubit in report.qubits:
        assert qubit.purcell.dimensionless == pytest.approx(purcell[qubit.name], rel=0.02)


def test_auto_parity_resonator_placement():
    report = derive_scenario(preset("paper-sec5-symmetric"))
    kappa = report.kappa
    chi = -kappa / 2.0
    expected = report.config.resonator1 + 2.0 * math.sqrt(3.0) * chi
    assert report.resonator2 == pytest.approx(expected, rel=1e-12)


def test_transmon_scenario_obstruction():
    report = derive_scenario(preset("transmon-obstruction"))
    assert not report.parity_satisfiable
    model = report.qubits[0].model
    assert model.quantum_switch ** 2 >= model.chi1 * model.chi2


def test_measurement_time_footnote():
    # tau kappa = 28 at kappa/2pi = 5 MHz is 0.891 us (not the 0.70 us
    # sometimes quoted)
    cfg = preset("paper-sec5-symmetric")
    tau = cfg.analysis.resolve_measurement_time(cfg.kappa1)
    assert tau == pytest.approx(28.0 / (2 * math.pi * 5.0), rel=1e-12)
    assert tau == pytest.approx(0.8913, abs=2e-4)


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def test_cli_requires_scenario(tmp_path, capsys):
    code = run(["dispersive", "--out", str(tmp_path)])
    assert code == 2


def test_cli_scenario_list(capsys):
    assert run(["scenario-list"]) == 0
    out = capsys.readouterr().out
    assert "paper-sec5-symmetric" in out
    assert "transmon-obstruction" in out


def test_cli_dispersive_symmetric(tmp_path):
    code = run(["dispersive", "--preset", "paper-sec5-symmetric",
                "--out", str(tmp_path), "--quiet"])
    assert code == 0
    payload = json.loads((tmp_path / "dispersive.json").read_text())
    assert payload["parity_condition_satisfiable"] is True
    names = {q["name"]: q for q in payload["qubits"]}
    assert names["a"]["g1_mhz"] == pytest.approx(106.6, rel=0.02)
    assert names["c"]["purcell_time_kappa"] == pytest.approx(106.2, rel=0.02)


def test_cli_dispersive_transmon_exit_code(tmp_path):
    code = run(["dispersive", "--preset", "transmon-obstruction",
                "--out", str(tmp_path), "--quiet"])
    assert code == 3
    payload = json.loads((tmp_path / "dispersive.json").read_text())
    assert payload["parity_condition_satisfiable"] is False
    assert payload["switch_excess"] >= 0.0


def test_cli_dispersive_fig4_cuts(tmp_path):
    # the preset's TCQs sit below the resonators, where the shifts are negative
    code = run(["dispersive", "--preset", "fig4-cuts", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    payload = json.loads((tmp_path / "dispersive.json").read_text())
    assert payload["parity_condition_satisfiable"] is True


def test_cli_simulate_single_weight(tmp_path):
    code = run(["simulate", "--preset", "paper-sec5-symmetric",
                "--out", str(tmp_path), "--hw", "2", "--quiet"])
    assert code == 0
    header, rows = read_csv(tmp_path / "trajectory_hw2.csv")
    assert header == ["t", "re_a1", "im_a1", "re_a2", "im_a2", "re_bout", "im_bout"]
    assert len(rows) == 2801
    assert rows[0][1:] == [0.0] * 6


def test_cli_simulate_all_weights_summary(tmp_path):
    code = run(["simulate", "--preset", "paper-sec5-symmetric",
                "--out", str(tmp_path), "--quiet"])
    assert code == 0
    summary = json.loads((tmp_path / "simulate.json").read_text())
    assert summary["parity_collapse"] < 1e-12
    assert summary["parity_contrast"] > 1e-6
    assert 0.9 < summary["info_parity_bits"] <= 1.0 + 1e-9
    for hw in range(4):
        assert summary["reflection"][f"hw{hw}"]["abs_error"] < 1e-12
    header, rows = read_csv(tmp_path / "rates.csv")
    assert header == ["tau_kappa", "gamma_hw", "gamma_p"]
    assert len(rows) == 57


def test_cli_trajectory_round_trip(tmp_path):
    # re-reading the CSV and recomputing the integrated signal reproduces the
    # in-memory value (17-significant-digit round trip)
    from scipy.integrate import simpson

    from parity_scope.config import preset as load_preset
    from parity_scope.dynamics import evolve
    from parity_scope.inference import integrated_signal

    cfg = load_preset("paper-sec5-symmetric")
    report = derive_scenario(cfg)
    setup = report.measurement_setup()
    kappa = report.kappa
    tau = cfg.analysis.resolve_measurement_time(kappa)
    run(["simulate", "--preset", "paper-sec5-symmetric", "--out", str(tmp_path),
         "--hw", "1", "--quiet"])
    traj = evolve(setup, 1, tau)
    _, rows = read_csv(tmp_path / "trajectory_hw1.csv")
    data = np.array(rows)
    phase = 0.7
    assert simpson(integrated_signal(data[:, 5] + 1j * data[:, 6], phase),
                   x=data[:, 0]) == pytest.approx(
        simpson(integrated_signal(traj.output, phase), x=traj.times), rel=1e-9)
    assert np.array_equal(data[:, 1] + 1j * data[:, 2], traj.alpha1)


def test_trajectory_rows_write_what_per_sample_rows_write(tmp_path):
    # the per-sample rows the array writer replaced, kept as the reference
    from parity_scope.cli import trajectory_rows, write_csv
    from parity_scope.dynamics import evolve

    report = derive_scenario(preset("paper-sec5-symmetric"))
    traj = evolve(report.measurement_setup(), 1, 28.0 / report.kappa)
    reference = [[float(t), a1.real, a1.imag, a2.real, a2.imag, b.real, b.imag]
                 for t, a1, a2, b in zip(traj.times, traj.alpha1, traj.alpha2, traj.output)]
    write_csv(tmp_path / "rows.csv", ["c"] * 7, trajectory_rows(traj))
    write_csv(tmp_path / "reference.csv", ["c"] * 7, reference)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_write_csv_bytes_match_per_cell_formatter(tmp_path):
    # the per-cell writer the row fast path replaced, kept as the reference
    from parity_scope.cli import TRAJECTORY_HEADER, trajectory_rows, write_csv
    from parity_scope.dynamics import evolve

    def reference(header, rows):
        def fmt(value):
            if isinstance(value, (float, np.floating)):
                return repr(float(value))
            return str(value)
        lines = [",".join(header)] + [",".join(fmt(cell) for cell in row) for row in rows]
        return ("\n".join(lines) + "\n").encode()

    report = derive_scenario(preset("paper-sec5-symmetric"))
    traj = evolve(report.measurement_setup(), 2, 28.0 / report.kappa)
    validation = [["charge_dispersion_flat", 0.0007844600346566257, 1e-3, "pass", ""],
                  ["zero_switch_splitting", np.float64(2.5e-17), 0.01, "fail", ""],
                  ["tcq_chi_accuracy", math.nan, math.nan, "pass", "skipped: ratio"],
                  [np.float32(0.1), 7, -0.0, math.inf, True]]
    for name, header, rows in (("trajectory", TRAJECTORY_HEADER, trajectory_rows(traj)),
                               ("validation", ["check", "value", "threshold", "status",
                                               "note"], validation)):
        write_csv(tmp_path / f"{name}.csv", header, rows)
        assert (tmp_path / f"{name}.csv").read_bytes() == reference(header, rows)


def test_cli_sweep_single_point_matches_direct(tmp_path):
    # a one-point sweep reproduces the direct info-gain computation
    from parity_scope.config import PRESETS
    tree = json.loads(json.dumps(PRESETS["fig4-cuts"]))
    tree["analysis"]["sweep"] = {"minimum": 0.5, "maximum": 0.5, "points": 1,
                                 "asymmetric_chi2": 0.3}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(tree))
    code = run(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == 0
    _, rows = read_csv(tmp_path / "sweep_diagonal.csv")
    assert len(rows) == 1

    from parity_scope.dispersive import DispersiveModel, parity_detunings
    from parity_scope.dynamics import MeasurementSetup
    from parity_scope.inference import analyze_trajectories

    cfg = load_config(path)
    kappa = max(cfg.kappa1, cfg.kappa2)
    pulse = cfg.pulse.resolve(kappa)
    tau = cfg.analysis.resolve_measurement_time(kappa)
    model = DispersiveModel(0, 0, 0, 0.5 * kappa, 0.5 * kappa, 0.0, 0.0)
    det = parity_detunings(model, kappa, kappa).plus_branch
    setup = MeasurementSetup(kappa, kappa, det[0], det[1], model, pulse)
    direct = analyze_trajectories(setup, tau, tau_points=None)
    assert rows[0][2] == pytest.approx(direct.info_parity, abs=1e-9)
    assert rows[0][3] == pytest.approx(direct.info_hamming, abs=1e-9)


def test_cli_validate_default(tmp_path):
    code = run(["validate", "--preset", "paper-sec5-symmetric",
                "--out", str(tmp_path), "--quiet"])
    assert code == 0
    text = (tmp_path / "validation.csv").read_text()
    assert "fail" not in text
    assert "charge_dispersion_flat" in text


def test_cli_validate_nondispersive_skips(tmp_path):
    from parity_scope.config import PRESETS
    tree = json.loads(json.dumps(PRESETS["paper-sec5-symmetric"]))
    tree["validation"] = {"coupling_ratio": 0.5, "charge_cutoff": 12,
                          "dispersion_grid": 5}
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(tree))
    code = run(["validate", "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == 0
    text = (tmp_path / "validation.csv").read_text()
    assert "skipped" in text
    assert "outside the dispersive regime" in text


def test_cli_simulate_zero_amplitude(tmp_path):
    from parity_scope.config import PRESETS
    tree = json.loads(json.dumps(PRESETS["paper-sec5-symmetric"]))
    tree["pulse"]["amplitude"] = 0.0
    path = tmp_path / "dark.json"
    path.write_text(json.dumps(tree))
    code = run(["simulate", "--config", str(path), "--out", str(tmp_path),
                "--hw", "0", "--quiet"])
    assert code == 0
    _, rows = read_csv(tmp_path / "trajectory_hw0.csv")
    assert all(row[1:] == [0.0] * 6 for row in rows)


def test_cli_missing_pulse_block(tmp_path):
    from parity_scope.config import PRESETS
    tree = json.loads(json.dumps(PRESETS["paper-sec5-symmetric"]))
    del tree["pulse"]
    path = tmp_path / "nopulse.json"
    path.write_text(json.dumps(tree))
    code = run(["simulate", "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == 2


def test_cli_determinism(tmp_path):
    for sub in ("first", "second"):
        run(["simulate", "--preset", "paper-sec5-symmetric",
             "--out", str(tmp_path / sub), "--hw", "0", "--quiet"])
    a = (tmp_path / "first" / "trajectory_hw0.csv").read_bytes()
    b = (tmp_path / "second" / "trajectory_hw0.csv").read_bytes()
    assert a == b


def _write_variant(tmp_path, name, edit):
    from parity_scope.config import PRESETS
    tree = json.loads(json.dumps(PRESETS["paper-sec5-symmetric"]))
    edit(tree)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(tree))
    return path


@pytest.mark.parametrize("field, value", [("phase", "best"), ("tau_points", 2),
                                          ("time_unit", "ns")])
def test_cli_simulate_rejects_bad_analysis_field(tmp_path, capsys, field, value):
    path = _write_variant(tmp_path, field,
                          lambda tree: tree["analysis"].__setitem__(field, value))
    code = run(["simulate", "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert f"analysis.{field}" in capsys.readouterr().err


def test_cli_simulate_takes_any_tau_points(tmp_path):
    # the exact integrals need no trajectory grid: 50 points do not divide
    # its 2,800 intervals, yet give 50 rows
    path = _write_variant(tmp_path, "fifty",
                          lambda tree: tree["analysis"].__setitem__("tau_points", 50))
    assert run(["simulate", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    header, rows = read_csv(tmp_path / "rates.csv")
    assert len(rows) == 50 and rows[-1][0] == 28.0


@pytest.mark.parametrize("path, key, near", [
    ("analysis.measurment_time", "measurment_time", "measurement_time"),
    ("pulse.amplitud", "amplitud", "amplitude"),
    ("validaton", "validaton", "validation"),
    ("analysis.sweep.point", "point", "points"),
    ("bus.kapa1_mhz", "kapa1_mhz", "kappa1_mhz"),
    ("targets.chi2_over_kapa", "chi2_over_kapa", "chi2_over_kappa"),
    ("devices[1].anharmonicity", "anharmonicity", "anharmonicity_mhz"),
    ("validation.dispersion_gird", "dispersion_gird", "dispersion_grid"),
    ("colour", "colour", None),
])
def test_cli_rejects_a_misspelled_key(tmp_path, capsys, path, key, near):
    # a key its section does not read exits 2, naming it and the nearest
    # known one, if any is near
    *steps, field = [int(part) if part.isdigit() else part
                     for part in re.findall(r"[^.\[\]]+", path)]

    def edit(tree):
        node = tree
        for step in steps:
            node = node[step] if isinstance(step, int) else node.setdefault(step, {})
        node[field] = 3
    config = _write_variant(tmp_path, "typo", edit)
    for command in ("dispersive", "simulate"):
        assert run([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        hint = "" if near is None else f"; did you mean {near!r}?"
        assert err.endswith(f": unknown key {key!r}{hint}\n"), err


def test_presets_and_benchmark_scenarios_parse(monkeypatch):
    # every shipped preset, and the first scenarios of each benchmark
    # workload (design-loop's fourth is a transmon register), use known keys only
    import importlib.util

    from parity_scope.config import PRESETS
    for name in PRESETS:
        preset(name)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)     # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        stream = workloads.scenarios(workload, 0)
        for _ in range(8):
            scenario = next(stream)
            parse_config(json.loads(json.dumps(scenario.config)), name=scenario.key)


def test_readme_tables_every_config_leaf():
    # README's leaf table and the parser's agree on every leaf's kind,
    # default and bounds, and on its MHz or kappa scale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration format\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells[1:]
    expected = {}
    one_of_each = {"devices": [{"type": kind} for kind in LEAVES["devices"][2]]}
    for path, (kind, default, bounds, scale) in _table_leaves(one_of_each):
        if kind == "integer":
            bounds = f"{bounds[0]} to {bounds[1]}"
        elif isinstance(bounds, tuple):
            bounds = " or ".join(f"`{json.dumps(literal)}`" for literal in bounds)
        elif not isinstance(bounds, str):
            bounds = ""
        default = ("required" if default is REQUIRED else "none" if default is None
                   else f"`{json.dumps(default)}`")
        expected[re.sub(r"\[\d+\]", "[i]", _dotted(path))] = (kind, default, bounds, scale)
    assert rows.keys() == expected.keys()
    for leaf, (kind, default, bounds, scale) in expected.items():
        assert rows[leaf][:3] == [kind, default, bounds], leaf
        assert scale is None or rows[leaf][3] == scale, leaf


def test_cli_sweep_splits_cuts_in_order(tmp_path):
    # both cuts run through one sweep; each file holds its own cut in grid order
    path = _write_variant(tmp_path, "two", lambda tree: tree["analysis"].__setitem__(
        "sweep", {"minimum": 0.4, "maximum": 0.6, "points": 2, "asymmetric_chi2": 0.3}))
    assert run(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    _, diagonal = read_csv(tmp_path / "sweep_diagonal.csv")
    _, asymmetric = read_csv(tmp_path / "sweep_asymmetric.csv")
    assert [row[:2] for row in diagonal] == [[0.4, 0.4], [0.6, 0.6]]
    assert [row[:2] for row in asymmetric] == [[0.4, 0.3], [0.6, 0.3]]


def test_cli_sweep_summary_names_the_least_missing_row(tmp_path):
    # each cut's summary in sweep.json is its CSV row with the least missing
    # parity information, the first such row on a tie
    path = _write_variant(tmp_path, "three", lambda tree: tree["analysis"].__setitem__(
        "sweep", {"minimum": 0.3, "maximum": 0.7, "points": 3, "asymmetric_chi2": 0.3}))
    assert run(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    cuts = json.loads((tmp_path / "sweep.json").read_text())["cuts"]
    assert set(cuts) == {"diagonal", "asymmetric"}
    for name, cut in cuts.items():
        _, rows = read_csv(tmp_path / f"sweep_{name}.csv")
        best = min(rows, key=lambda row: 1.0 - row[2])
        assert (cut["argmin_chi1_over_kappa"], cut["argmin_chi2_over_kappa"],
                cut["min_missing_parity"], cut["max_info_parity"]) == (
            best[0], best[1], 1.0 - best[2], best[2])


def test_cli_sweep_work_counts(tmp_path, monkeypatch):
    # both cuts of a 2-point-per-cut sweep are scored in lockstep: no RK4
    # (_integrate) call, and 15 stacked golden-section objective passes (2 +
    # 12 steps over a 2 pi / 256 bracket + 1 at the optimum); no gain grid
    # exceeds the 4001-node cap
    from parity_scope import dynamics, inference
    calls = {"integrate": 0, "objective": 0, "nodes": 0}
    integrate, info_gains = dynamics._integrate, inference.info_gains
    gain_integrands = inference._gain_integrands

    def count_integrate(*args):
        calls["integrate"] += 1
        return integrate(*args)

    def count_gains(model, points=None, check=True):
        calls["objective"] += not check
        return info_gains(model, points, check)

    def count_nodes(model, points, *hamming):
        calls["nodes"] = max(calls["nodes"], points)
        return gain_integrands(model, points, *hamming)
    monkeypatch.setattr(dynamics, "_integrate", count_integrate)
    monkeypatch.setattr(inference, "info_gains", count_gains)
    monkeypatch.setattr(inference, "_gain_integrands", count_nodes)
    path = _write_variant(tmp_path, "two", lambda tree: tree["analysis"].__setitem__(
        "sweep", {"minimum": 0.4, "maximum": 0.6, "points": 2, "asymmetric_chi2": 0.3}))
    assert run(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    assert calls["integrate"] == 0
    assert calls["objective"] == 15
    assert 0 < calls["nodes"] <= 4001


def test_cli_simulate_runs_one_phase_search(tmp_path, monkeypatch):
    # simulate --hw all scores its one point through the sweep's pipeline
    from parity_scope import inference
    searches = []
    search = inference.optimal_phase

    def spy_search(integrals, tau):
        searches.append(len(integrals))
        return search(integrals, tau)
    monkeypatch.setattr(inference, "optimal_phase", spy_search)
    assert run(["simulate", "--preset", "paper-sec5-symmetric", "--hw", "all",
                "--out", str(tmp_path), "--quiet"]) == 0
    assert searches == [1]


ONE_POINT_SWEEP = {"minimum": 0.5, "maximum": 0.5, "points": 1, "asymmetric_chi2": 0.3}


@pytest.mark.parametrize("kappa1, kappa2", [(5.0, 10.0), (10.0, 5.0)])
def test_cli_sweep_rejects_unequal_kappas(tmp_path, capsys, kappa1, kappa2):
    # the chi/kappa axis has one kappa, and every sweep point puts it on both
    # buses: a second rate would be dropped, in either order
    def edit(tree):
        tree["bus"].update(kappa1_mhz=kappa1, kappa2_mhz=kappa2)
        tree["analysis"]["sweep"] = ONE_POINT_SWEEP
    config = _write_variant(tmp_path, "kappas", edit)
    out = tmp_path / "out"
    assert run(["sweep", "--config", str(config), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "bus.kappa1_mhz" in err and "bus.kappa2_mhz" in err
    assert not list(out.glob("*.csv"))


def test_cli_sweep_fails_closed_on_a_nan_gain(tmp_path, monkeypatch, capsys):
    # sweep publishes its gains through the checked report, as simulate does:
    # a NaN from the checked gain call exits 4 instead of reaching the CSV
    from parity_scope import inference
    info_gains = inference.info_gains

    def nan_when_checked(model, points=inference.DEFAULT_QUADRATURE_POINTS, check=True):
        return (math.nan, math.nan) if check else info_gains(model, points, check)
    monkeypatch.setattr(inference, "info_gains", nan_when_checked)
    config = _write_variant(tmp_path, "one", lambda tree: tree["analysis"].__setitem__(
        "sweep", ONE_POINT_SWEEP))
    out = tmp_path / "out"
    assert run(["sweep", "--config", str(config), "--out", str(out), "--quiet"]) == 4
    assert "are not numbers" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


TRANSMON = {"type": "transmon", "josephson_energy_mhz": 20000.0,
            "charging_energy_mhz": 300.0, "g1_mhz": 100.0, "g2_mhz": 100.0}


@pytest.mark.parametrize("command, path, value, message", [
    ("sweep", "analysis.sweep.points", "many", "analysis.sweep.points"),
    ("simulate", "analysis.measurement_time", -1, "analysis.measurement_time"),
    ("dispersive", "bus.kappa1_mhz", math.nan, "bus.kappa1_mhz"),
    ("simulate", "pulse.ramp", -1.0, "pulse: ramp"),
    ("validate", "validation.coupling_ratio", 0.0, "validation.coupling_ratio"),
    ("validate", "validation.charge_cutoff", 45, "validation.charge_cutoff"),
    ("validate", "validation.charge_cutoff", 41, "validation.charge_cutoff"),
    ("dispersive", "output_dir", 5, "output_dir"),
    ("dispersive", "devices[0].anharmonicity_mhz", 0, "devices[0].anharmonicity_mhz"),
    ("dispersive", "devices[0].anharmonicity_mhz", 300, "devices[0].anharmonicity_mhz"),
    ("dispersive", "devices[0]", dict(TRANSMON, josephson_energy_mhz=-20000.0),
     "devices[0].josephson_energy_mhz"),
    ("dispersive", "devices[0]", dict(TRANSMON, charging_energy_mhz=-300.0),
     "devices[0].charging_energy_mhz"),
    # finite as given, infinite in rad/us or times kappa
    ("dispersive", "devices[0].qubit_frequency_mhz", 1e308, "devices[0].qubit_frequency_mhz"),
    ("dispersive", "devices[1].transverse_coupling_mhz", -1e308,
     "devices[1].transverse_coupling_mhz"),
    ("dispersive", "devices[2].anharmonicity_mhz", -1e308, "devices[2].anharmonicity_mhz"),
    ("dispersive", "bus.resonator1_mhz", 1e308, "bus.resonator1_mhz"),
    ("dispersive", "bus.resonator2_mhz", -1e308, "bus.resonator2_mhz"),
    ("dispersive", "bus.kappa1_mhz", 1e308, "bus.kappa1_mhz"),
    ("dispersive", "bus.kappa2_mhz", 1e308, "bus.kappa2_mhz"),
    ("dispersive", "targets.chi1_over_kappa", -1e308, "targets.chi1_over_kappa"),
    ("dispersive", "targets.chi2_over_kappa", -1e308, "targets.chi2_over_kappa"),
    ("dispersive", "devices[0]", dict(TRANSMON, josephson_energy_mhz=1e308),
     "devices[0].josephson_energy_mhz"),
    ("dispersive", "devices[0]", dict(TRANSMON, charging_energy_mhz=1e308),
     "devices[0].charging_energy_mhz"),
    ("dispersive", "devices[0]", dict(TRANSMON, g1_mhz=-1e308), "devices[0].g1_mhz"),
    ("dispersive", "devices[0]", dict(TRANSMON, g2_mhz=1e308), "devices[0].g2_mhz"),
    pytest.param("dispersive", "bus.kappa1_mhz", 10 ** 400, "bus.kappa1_mhz",
                 id="dispersive-bus.kappa1_mhz-int400-bus.kappa1_mhz"),
    # J = 0 has no pi/4 mixing for the sign-flip couplings
    ("dispersive", "devices[0].transverse_coupling_mhz", 0, "devices[0].transverse_coupling_mhz"),
    # horizons above the RK4 step budget, in either time unit
    ("simulate", "analysis.measurement_time", 1e9, "analysis.measurement_time"),
    ("simulate", "analysis", {"measurement_time": 100.0, "time_unit": "us"},
     "analysis.measurement_time"),
    # drives whose field or photon flux overflows once scaled by sqrt(kappa)
    ("simulate", "pulse.amplitude", 1e308, "pulse.amplitude"),
    ("simulate", "pulse.amplitude", -1e308, "pulse.amplitude"),
    ("simulate", "pulse.amplitude", 1e200, "pulse.amplitude"),
    # positive as given, 0 once divided by kappa
    ("simulate", "pulse.ramp", 5e-324, "pulse.ramp"),
    ("simulate", "analysis.measurement_time", 5e-324, "analysis.measurement_time"),
    # t_off before the end of the rising ramp, by any margin
    ("simulate", "pulse.t_off", 0, "ramp must finish before t_off"),
    ("simulate", "pulse.t_off", -1, "ramp must finish before t_off"),
    ("simulate", "pulse.t_off", 1e-9, "ramp must finish before t_off"),
    # grids whose solves would take hours, or whose arrays gigabytes
    ("validate", "validation.dispersion_grid", 102, "validation.dispersion_grid"),
    ("validate", "validation.dispersion_grid", 1e9, "validation.dispersion_grid"),
    ("sweep", "analysis.sweep.points", 10_002, "analysis.sweep.points"),
    ("sweep", "analysis.sweep.points", 1e9, "analysis.sweep.points"),
    # grids that sample one offset (ng = 1 is ng = 0 up to truncation) measure no dispersion
    ("validate", "validation.dispersion_grid", 1, "validation.dispersion_grid"),
    ("validate", "validation.dispersion_grid", 2, "validation.dispersion_grid"),
    # below the floor where the ladder oracles resolve their own thresholds
    ("validate", "validation.coupling_ratio", 1e-4, "validation.coupling_ratio"),
    ("validate", "validation.coupling_ratio", 3.5e-3, "validation.coupling_ratio"),
    # sections that are not objects; a null targets section means none, which
    # a TCQ register needs
    *[("dispersive", section, value, f"{section}: expected an object, got {value!r}")
      for section in ("bus", "pulse", "targets") for value in (5, True, None, "x", [1])
      if (section, value) != ("targets", None)],
    ("dispersive", "targets", None, "tcq scenarios need a targets block"),
    # names, when given, are strings
    ("dispersive", "name", [1], "name: expected a string, got [1]"),
    ("simulate", "name", 5, "name: expected a string, got 5"),
    ("dispersive", "devices[0].name", {"a": 1},
     "devices[0].name: expected a string, got {'a': 1}"),
    ("dispersive", "devices[2].name", None, "devices[2].name: expected a string, got None"),
])
def test_cli_rejects_malformed_field(tmp_path, capsys, command, path, value, message):
    # dotted keys step into objects, [i] into lists
    *steps, field = [int(key) if key.isdigit() else key
                     for key in re.findall(r"[^.\[\]]+", path)]

    def edit(tree):
        node = tree
        for key in steps:
            node = node[key] if isinstance(key, int) else node.setdefault(key, {})
        node[field] = value
    config = _write_variant(tmp_path, str(field), edit)
    code = run([command, "--config", str(config), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_cli_joint_rounded_past_t_off_runs(tmp_path):
    # t_on + ramp = t_off in 1/kappa; divided by kappa, t_on + ramp rounds one
    # ulp past t_off, and the resolved pulse keeps the joint instead
    def edit(tree):
        tree["pulse"].update(t_on=1.0, ramp=5.0, t_off=6.0)
    config = _write_variant(tmp_path, "joint", edit)
    cfg = load_config(config)
    kappa = max(cfg.kappa1, cfg.kappa2)
    scale = cfg.pulse.time_scale(kappa)
    assert 1.0 * scale + 5.0 * scale > 6.0 * scale
    pulse = cfg.pulse.resolve(kappa)
    assert pulse.t_on + pulse.ramp == pulse.t_off == np.nextafter(6.0 * scale, 1.0)
    assert run(["simulate", "--config", str(config), "--out", str(tmp_path),
                "--quiet", "--hw", "1"]) == 0


def test_cli_short_ramp_fails_the_probe(tmp_path, capsys):
    # a 1e-9/kappa ramp is a step in the drive that RK4 at dt and dt/2 resolve differently
    config = _write_variant(tmp_path, "ramp", lambda tree: tree["pulse"].__setitem__("ramp", 1e-9))
    assert run(["simulate", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 4
    assert ("h_w=0: half-step probe disagreement 9.214e-05 > 1e-08"
            in capsys.readouterr().err)


def test_cli_sweep_overflowing_ramp_exits_4(tmp_path, capsys):
    # a 1e-310/kappa ramp: pi / ramp overflows in the ramp's propagator, and
    # the sweep fails closed instead of publishing its NaN
    def edit(tree):
        tree["pulse"]["ramp"] = 1e-310
        tree["analysis"]["sweep"] = ONE_POINT_SWEEP
    config = _write_variant(tmp_path, "tiny", edit)
    out = tmp_path / "out"
    assert run(["sweep", "--config", str(config), "--out", str(out), "--quiet"]) == 4
    assert ("numerical convergence failure: a pulse-piece propagator or output integral "
            "is not finite (pi / ramp = inf rad/us)") in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("amplitude", [3, 30])
def test_cli_simulate_does_not_depend_on_the_recurrence_chunk(tmp_path, monkeypatch, amplitude):
    # RECURRENCE_CHUNK bounds the RK4 scan's scratch and moves only the
    # rounding of the trajectory records; the published phase, the gains and
    # the exit code come from the exact integrals, bit for bit
    from parity_scope import dynamics
    config = _write_variant(tmp_path, "loud", lambda tree: tree["pulse"].__setitem__(
        "amplitude", amplitude))
    outcomes = set()
    for chunk in (256, 512, 1024):
        monkeypatch.setattr(dynamics, "RECURRENCE_CHUNK", chunk)
        out = tmp_path / str(chunk)
        code = run(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
        summary = {}
        if code == 0:
            summary = json.loads((out / "simulate.json").read_text())
        outcomes.add((code, *(summary.get(key) for key in (
            "optimal_phase_rad", "info_parity_bits", "info_hamming_bits"))))
    assert len(outcomes) == 1, outcomes


# validate sized down to a fraction of a second per run
SMALL_VALIDATION = {"coupling_ratio": 0.05, "charge_cutoff": 8, "dispersion_grid": 3}


@pytest.mark.parametrize("ratio", [5e-324, 1e-300, 2.2250738585072014e-308])
def test_cli_validate_underflowed_coupling_ratio_fails(tmp_path, capsys, ratio):
    # below COUPLING_RATIO_MIN the parser exits 2.  The checks underneath see
    # the couplings' shifts underflow to 0: a FAIL row with a non-finite
    # value, not a ZeroDivisionError
    from dataclasses import replace

    from parity_scope.cli import _validation_checks
    config = _write_variant(tmp_path, "ratio", lambda tree: tree.__setitem__(
        "validation", dict(SMALL_VALIDATION, coupling_ratio=ratio)))
    assert run(["validate", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 2
    assert "validation.coupling_ratio" in capsys.readouterr().err
    cfg = load_config(_write_variant(tmp_path, "small", lambda tree: tree.__setitem__(
        "validation", SMALL_VALIDATION)))
    checks, _ = _validation_checks(
        replace(cfg, validation=replace(cfg.validation, coupling_ratio=ratio)))
    assert any(not math.isfinite(value) and not ok for _, value, _, ok, _ in checks)


@pytest.mark.parametrize("ratio", [0.05, 0.5])
def test_validation_rows_pass_by_their_printed_value(tmp_path, ratio):
    # one rule for every row that runs: value <= threshold, or >= for a lower
    # bound, so a NaN value fails
    from parity_scope.cli import _validation_checks
    cfg = load_config(_write_variant(tmp_path, "rows", lambda tree: tree.__setitem__(
        "validation", dict(SMALL_VALIDATION, coupling_ratio=ratio))))
    checks, _ = _validation_checks(cfg)
    assert len(checks) == 7
    for name, value, threshold, ok, note in checks:
        if note.startswith("skipped"):
            continue
        assert ok == (value >= threshold if note == "lower bound" else value <= threshold), name
        assert not (math.isnan(value) and ok), name


def _devices(key, value):
    def edit(tree):
        for device in tree["devices"]:
            device[key] = value
    return edit


def _off_resonance_couplings(tree):
    # g^2/Delta_1 overflows, 1.3e-4 MHz off the transmon frequency
    _devices("g1_mhz", 1e152)(tree)
    tree["bus"]["resonator1_mhz"] = 6628.2031


@pytest.mark.parametrize("name, command, edit, code, message", [
    ("fig4-cuts", "sweep", lambda tree: tree["analysis"]["sweep"].__setitem__(
        "maximum", 1e308), 2, "analysis.sweep.maximum"),
    ("fig4-cuts", "sweep", lambda tree: tree["analysis"]["sweep"].__setitem__(
        "asymmetric_chi2", -1e308), 2, "analysis.sweep.asymmetric_chi2"),
    ("transmon-obstruction", "dispersive", lambda tree: tree["devices"][0].__setitem__(
        "g1_mhz", 1e154), 3, "qubit_frequency = -inf"),
    ("transmon-obstruction", "dispersive",
     lambda tree: (_devices("g1_mhz", 1e100)(tree), _devices("g2_mhz", 1e100)(tree)),
     3, "chi1*chi2 = inf"),
    ("transmon-obstruction", "dispersive", _off_resonance_couplings, 3,
     "qubit_frequency = inf"),
    ("transmon-obstruction", "dispersive", lambda tree: tree["bus"].__setitem__(
        "kappa1_mhz", 1e154), 2, "bus.kappa1_mhz"),
    ("transmon-obstruction", "dispersive", lambda tree: tree["bus"].update(
        kappa1_mhz=1e-300, kappa2_mhz=1e-300), 2, "bus.kappa1_mhz"),
    # g1 about 1e-162: the Purcell time overflows to inf, as at g1 = 0
    ("paper-sec5-symmetric", "dispersive", lambda tree: (
        tree["bus"].__setitem__("resonator2_mhz", 7520),
        tree["targets"].__setitem__("chi1_over_kappa", -5e-324)), 0, ""),
], ids=["sweep-maximum", "sweep-asymmetric-chi2", "transmon-g1", "transmon-all-g",
        "transmon-near-resonance", "kappa-huge", "kappa-tiny", "purcell-inf"])
def test_cli_overflowing_shifts_fail_closed(tmp_path, capsys, name, command, edit, code,
                                            message):
    # an exit code and a message, never a traceback, and no NaN in the JSON
    from parity_scope.config import PRESETS
    tree = json.loads(json.dumps(PRESETS[name]))
    edit(tree)
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(tree))
    out = tmp_path / "out"
    assert run([command, "--config", str(config), "--out", str(out), "--quiet"]) == code
    assert message in capsys.readouterr().err
    assert not any("NaN" in path.read_text() for path in out.glob("*.json"))


@pytest.mark.parametrize("amplitude", [1e6, 1e7])
def test_cli_unresolved_gain_quadrature_exits_4(tmp_path, capsys, amplitude):
    # means millions of sigma apart fall between the nodes of the gain grid:
    # unguarded, the gains read about 1e-12 bits where the true ones are 2 and 1
    config = _write_variant(tmp_path, "loud", lambda tree: tree["pulse"].__setitem__(
        "amplitude", amplitude))
    assert run(["simulate", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 4
    assert "the signal density integrates to" in capsys.readouterr().err


def test_cli_rate_consistency_names_tau_points(tmp_path, capsys):
    # the gain of a strong drive rises faster than 57 tau points resolve; 201 do.
    # The parity gain saturates at 1 bit to rounding over a range of phases, so
    # "optimal" would pick one by a rounding tie: the phase is pinned
    def edit(tau_points):
        def apply(tree):
            tree["pulse"]["amplitude"] = 30
            tree["analysis"]["tau_points"] = tau_points
            tree["analysis"]["phase"] = 2.4709148669175103
        return apply
    argv = ["simulate", "--out", str(tmp_path), "--quiet", "--config"]
    assert run(argv + [str(_write_variant(tmp_path, "coarse", edit(57)))]) == 4
    assert ("rate integral 1.0105 vs gain 1.0092 bits; raise analysis.tau_points"
            in capsys.readouterr().err)
    assert run(argv + [str(_write_variant(tmp_path, "fine", edit(201)))]) == 0


def _simulate_summary(tmp_path, name, edit):
    out = tmp_path / name
    config = _write_variant(tmp_path, name, edit)
    assert run(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "simulate.json").read_text())
    del summary["files"]
    files = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    return summary, files


def _scaled(factor):
    """Config edit that multiplies every numeric MHz field by ``factor``."""
    def apply(tree):
        for section in tree["devices"] + [tree["bus"]]:
            for key, value in section.items():
                if key.endswith("_mhz") and not isinstance(value, str):
                    section[key] = value * factor
    return apply


def test_cli_simulate_metamorphic_relations(tmp_path):
    # the physics is in units of kappa and the register is matched: scaling
    # every frequency, reversing the devices or quoting the times in us must
    # not move the gains or the phase beyond rounding
    def reversed_devices(tree):
        tree["devices"].reverse()

    def in_us(tree):
        kappa = max(tree["bus"]["kappa1_mhz"], tree["bus"]["kappa2_mhz"]) * MHZ
        for key in ("ramp", "t_on", "t_off"):
            tree["pulse"][key] *= 1.0 / kappa
        tree["analysis"]["measurement_time"] /= kappa
        tree["pulse"]["time_unit"] = tree["analysis"]["time_unit"] = "us"

    base, base_files = _simulate_summary(tmp_path, "base", lambda tree: None)
    variants = [(f"x{factor}", _scaled(factor)) for factor in (0.5, 2, 3)]
    for name, edit in variants + [("reversed", reversed_devices)]:
        summary, _ = _simulate_summary(tmp_path, name, edit)
        for key in ("info_parity_bits", "info_hamming_bits"):
            assert abs(summary[key] - base[key]) <= 1e-13, (name, key)
        assert abs(summary["optimal_phase_rad"] - base["optimal_phase_rad"]) <= 1e-12, name
    assert _simulate_summary(tmp_path, "us", in_us) == (base, base_files)


def test_cli_sweep_metamorphic_relations(tmp_path):
    # the sweep works in units of kappa and its pulse and horizon are given in
    # 1/kappa: scaling every frequency must not move a gain or a phase beyond
    # rounding.  missing_parity_log10 amplifies the rounding of 1 - gain
    def cuts(name, edit):
        def apply(tree):
            tree["analysis"]["sweep"] = {"minimum": 0.4, "maximum": 0.6, "points": 2,
                                         "asymmetric_chi2": 0.3}
            edit(tree)
        config = _write_variant(tmp_path, name, apply)
        out = tmp_path / name
        assert run(["sweep", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        return [row for cut in ("diagonal", "asymmetric")
                for row in read_csv(out / f"sweep_{cut}.csv")[1]]

    base = cuts("base", lambda tree: None)
    for factor in (0.5, 2, 3):
        for row, ref in zip(cuts(f"x{factor}", _scaled(factor)), base, strict=True):
            chi1, chi2, parity, hamming, _, missing_log10, phase = row
            assert [chi1, chi2] == ref[:2]
            assert abs(parity - ref[2]) <= 1e-13, (factor, row)
            assert abs(hamming - ref[3]) <= 1e-13, (factor, row)
            assert abs(missing_log10 - ref[5]) <= 1e-12, (factor, row)
            assert abs(phase - ref[6]) <= 1e-12, (factor, row)


def test_cli_tcq_far_from_resonators_exits_3(tmp_path, capsys):
    # D (D + delta) overflowed and 1/D - 1/(D + delta) rounds to 0: no
    # coupling produces the target shift
    config = _write_variant(tmp_path, "far", lambda tree: tree["devices"][0].__setitem__(
        "qubit_frequency_mhz", 1e200))
    assert run(["dispersive", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 3
    assert "minus-branch factor 0.000e+00" in capsys.readouterr().err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


EXIT_CODES = {
    "ConfigError": 2,
    "ParityConditionUnsatisfiable": 3, "NegativeDiscriminant": 3,
    "DegenerateDenominator": 3, "ShiftOverflow": 3, "SingularCapacitanceMatrix": 3,
    "SingularResponseMatrix": 3, "DegenerateResponse": 3,
    "ConvergenceFailure": 4, "LevelIdentificationFailure": 4, "StepTooLarge": 4,
    "GridTooCoarse": 4, "QuadratureNonconvergent": 4, "NonFiniteSignal": 4,
    "OutputError": 5,
}


def test_cli_maps_every_error_to_its_exit_code(monkeypatch, capsys):
    # a new error class must be given a code here, or this test fails
    from parity_scope import cli
    prefixes = {2: "configuration error: ", 3: "physics condition failed: ",
                4: "numerical convergence failure: ", 5: "output error: "}
    errors = list(_subclasses(ParityScopeError))
    assert sorted(error.__name__ for error in errors) == sorted(EXIT_CODES)
    for error in errors:
        def fail(args, error=error):
            raise error("boom")
        monkeypatch.setattr(cli, "cmd_scenario_list", fail)
        code = run(["scenario-list"])
        assert code == EXIT_CODES[error.__name__], error.__name__
        assert capsys.readouterr().err == prefixes[code] + "boom\n", error.__name__


def test_cli_resonator_on_qubit_frequency_exits_3(tmp_path, capsys):
    # resonator 1 on the transmon's g-e frequency: DegenerateDenominator
    from parity_scope.config import PRESETS
    tree = json.loads(json.dumps(PRESETS["transmon-obstruction"]))
    tree["bus"]["resonator1_mhz"] = 6628.203230275509
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(tree))
    code = run(["dispersive", "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == 3
    assert "physics condition failed: Delta_1" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, index, value", [
    ("devices", "qubit_frequency_mhz", 0, 7500.0),   # qubit a on resonator 1
    ("bus", "resonator1_mhz", None, 5600.0),          # resonator 1 on qubit b
])
def test_cli_tcq_on_resonator_exits_3(tmp_path, capsys, section, key, index, value):
    # the coupling inversion divides by the minus-branch detuning
    def edit(tree):
        node = tree[section] if index is None else tree[section][index]
        node[key] = value
    config = _write_variant(tmp_path, key, edit)
    code = run(["dispersive", "--config", str(config), "--out", str(tmp_path), "--quiet"])
    assert code == 3
    assert "physics condition failed: Delta_1 (minus branch)" in capsys.readouterr().err


CONTRACT_VALUES = [0, -1, 1e-9, 1e9, 1e308, -1e308, 1e-300, "x", None, [], {}, True,
                   7200, 7500, 7800, 5600,
                   # finite in rad/us, but not squared
                   1e154, -1e154,
                   # positive, but 0 once divided by kappa; the smallest normal float
                   5e-324, 2.2250738585072014e-308]


def _table_leaves(node, leaves=LEAVES, path=()):
    """(path, entry) of every leaf of the config table, absent ones and the
    sections themselves included, for the config tree ``node``: each device
    gets the leaves of its type's table."""
    for key, leaf in leaves.items():
        kind, _, bounds, _ = leaf
        yield path + (key,), leaf
        child = node.get(key) if isinstance(node, dict) else None
        if kind == "object":
            yield from _table_leaves(child or {}, bounds, path + (key,))
        elif kind == "list":
            for index, device in enumerate(child):
                yield from _table_leaves(device, bounds[device["type"]], path + (key, index))


def _section_of(tree, path):
    """The object at ``path`` of ``tree``, made (as {}) where absent."""
    node = tree
    for key in path:
        node = node[key] if isinstance(key, int) else node.setdefault(key, {})
    return node


def _with(base, path, value):
    """A copy of the config tree ``base`` with ``value`` at ``path``."""
    tree = json.loads(json.dumps(base))
    _section_of(tree, path[:-1])[path[-1]] = value
    return tree


def _dotted(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def _contract_walk(tmp_path, base, sections, command, skip=lambda path, value: False):
    """Every table leaf under the paths ``sections`` of the config tree
    ``base``, absent ones included, one at a time, set to each of
    CONTRACT_VALUES but those ``skip`` names and run in-process as
    ``command`` (the command and its options): the runs that end in neither
    exit 0, 2, 3 nor 4."""
    config = tmp_path / "walk.json"
    failures = []
    for path, (kind, *_) in _table_leaves(base):
        if kind in ("object", "list") or not any(path[:len(s)] == s for s in sections):
            continue
        for value in CONTRACT_VALUES:
            if skip(path, value):
                continue
            config.write_text(json.dumps(_with(base, path, value)))
            argv = [*command, "--config", str(config), "--out", str(tmp_path), "--quiet"]
            try:
                code = run(argv)
            except Exception as exc:  # noqa: BLE001 -- collect every traceback
                code = repr(exc)
            if code not in (0, 2, 3, 4):
                failures.append((path, value, code))
    return failures


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_parse_contract_walk(name):
    # every leaf of the table, absent ones and whole sections included, set
    # to each value: parse_config accepts it or exits 2 (ConfigError), never
    # a traceback.  The command walks below run commands on a share of these
    failures = []
    for path, _ in _table_leaves(PRESETS[name]):
        for value in CONTRACT_VALUES:
            try:
                parse_config(_with(PRESETS[name], path, value))
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001 -- collect every traceback
                failures.append((path, value, repr(exc)))
    assert not failures


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_parse_fills_each_optional_leaf_with_its_default(name):
    # a tree holding every optional leaf at its table default parses to the
    # tree without them.  Sections whose default is {} are stepped into; the
    # names' None default (the caller's name, q<i>) is not a value a tree
    # may hold, and test_parse_defaults_absent_names covers it
    full, bare = (json.loads(json.dumps(PRESETS[name])) for _ in range(2))
    for path, (kind, default, _, _) in _table_leaves(PRESETS[name]):
        if default is REQUIRED or default == {} or kind == "string" and default is None:
            continue
        _section_of(full, path[:-1])[path[-1]] = default
        _section_of(bare, path[:-1]).pop(path[-1], None)
    assert parse_config(full, name=name) == parse_config(bare, name=name)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_parse_names_each_missing_required_leaf(name):
    # a required leaf of a section the preset holds, removed: exit 2 naming
    # its dotted path
    for path, (_, default, _, _) in _table_leaves(PRESETS[name]):
        tree = json.loads(json.dumps(PRESETS[name]))
        section = _section_of(tree, path[:-1])
        if default is not REQUIRED or path[-1] not in section:
            continue        # optional, or in a section the preset leaves out
        del section[path[-1]]
        with pytest.raises(ConfigError) as failure:
            parse_config(tree)
        assert str(failure.value) == f"{_dotted(path)}: missing required field"


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_parse_rejects_every_key_misspelled(name):
    # each table key with its last letter dropped, in its place (or added,
    # where the leaf is absent): exit 2 naming the typo and the key
    for path, _ in _table_leaves(PRESETS[name]):
        *section, key = path
        typo = key[:-1]
        tree = json.loads(json.dumps(PRESETS[name]))
        node = _section_of(tree, section)
        items = list(node.items())
        node.clear()
        node.update((typo if k == key else k, v) for k, v in items)
        node.setdefault(typo, 3)
        with pytest.raises(ConfigError) as failure:
            parse_config(tree)
        assert str(failure.value) == (f"{_dotted(section) or 'top level'}: unknown key "
                                      f"{typo!r}; did you mean {key!r}?")


@pytest.mark.parametrize("name", ["paper-sec5-symmetric", "transmon-obstruction"])
def test_cli_dispersive_contract_walk(tmp_path, capsys, name):
    # every devices/bus/targets/pulse/analysis leaf, one at a time, set to
    # each value: an exit code, never a traceback
    from parity_scope.config import PRESETS
    sections = [("devices",), ("bus",), ("targets",), ("pulse",), ("analysis",)]
    failures = _contract_walk(tmp_path, PRESETS[name], sections, ["dispersive"])
    capsys.readouterr()
    assert not failures


def test_cli_simulate_contract_walk(tmp_path, capsys):
    # a simulate share: the pulse and the horizon reach the dynamics at one
    # Hamming weight, and the leaves that shape the gains reach the inference
    # guards with all four (the sweep leaves are only parsed, as in dispersive)
    from parity_scope.config import PRESETS
    base = PRESETS["paper-sec5-symmetric"]
    dynamics = [("pulse",), ("analysis", "measurement_time"), ("analysis", "time_unit")]
    inference = [("pulse", "amplitude"), ("analysis", "tau_points"), ("analysis", "phase")]
    failures = (_contract_walk(tmp_path, base, dynamics, ["simulate", "--hw", "1"])
                + _contract_walk(tmp_path, base, inference, ["simulate", "--hw", "all"]))
    capsys.readouterr()
    assert not failures


def test_cli_sweep_contract_walk(tmp_path, capsys):
    # the sweep leaves at 2 points per cut; the point counts the parser
    # accepts are left out, as valid but long runs (7200 points take minutes)
    from parity_scope.config import PRESETS, SWEEP_POINTS_MAX
    base = json.loads(json.dumps(PRESETS["paper-sec5-symmetric"]))
    base["analysis"]["sweep"]["points"] = 2

    def accepted_count(path, value):
        return path[-1] == "points" and type(value) is int and 1 <= value <= SWEEP_POINTS_MAX

    failures = _contract_walk(tmp_path, base, [("analysis", "sweep")], ["sweep"],
                              skip=accepted_count)
    capsys.readouterr()
    assert not failures


def test_cli_sweep_contract_walk_of_the_scored_leaves(tmp_path, capsys):
    # the pulse, horizon and kappa leaves reach the sweep's evolve and its
    # scoring pipeline, at 1 point per cut (unequal kappas exit 2)
    from parity_scope.config import PRESETS
    base = json.loads(json.dumps(PRESETS["paper-sec5-symmetric"]))
    base["analysis"]["sweep"]["points"] = 1
    sections = [("pulse",), ("analysis", "measurement_time"), ("analysis", "time_unit"),
                ("bus", "kappa1_mhz"), ("bus", "kappa2_mhz")]
    failures = _contract_walk(tmp_path, base, sections, ["sweep"])
    capsys.readouterr()
    assert not failures


def test_cli_validate_contract_walk(tmp_path, capsys):
    # the validation leaves on a sized-down tree (the presets have no
    # validation block); most values exit 2 at parse time
    from parity_scope.config import PRESETS
    base = dict(PRESETS["paper-sec5-symmetric"], validation=SMALL_VALIDATION)
    failures = _contract_walk(tmp_path, base, [("validation",)], ["validate"])
    capsys.readouterr()
    assert not failures


# ---------------------------------------------------------------------------
# start-up: scenario-list and dispersive load no numpy, scipy is loaded by
# validate only, and no in-process command loads a process pool (validate
# starts a one-worker pool from the process entry point only: see the end of
# this file)
# ---------------------------------------------------------------------------

def _fresh_interpreter(code, tmp_path, env=None):
    """Last stdout line of ``code`` run in a fresh interpreter."""
    return _fresh_stdout(code, tmp_path, env)[-1]


def _fresh_stdout(code, tmp_path, env=None):
    """Stdout lines of ``code`` run in a fresh interpreter.  ``env`` adds to
    this process's environment; a value of None removes the variable."""
    src = os.path.dirname(os.path.dirname(parity_scope.__file__))
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    for name, value in (env or {}).items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=environ,
                         capture_output=True, text=True, check=True, timeout=300)
    return out.stdout.strip().splitlines()


def _modules_after(code, tmp_path, packages=("scipy",)):
    """Modules of ``packages``, or in them, loaded in a fresh interpreter after
    running ``code``."""
    probe = (code + "\nimport sys\nprint(sorted(m for m in sys.modules if any("
             f"m == p or m.startswith(p + '.') for p in {tuple(packages)!r})))")
    return _fresh_interpreter(probe, tmp_path)


def test_cli_import_loads_no_scipy(tmp_path):
    assert _modules_after("import parity_scope.cli", tmp_path) == "[]"


def test_design_commands_load_no_scipy(tmp_path):
    path = _write_variant(tmp_path, "small", lambda tree: tree["analysis"].__setitem__(
        "sweep", {"minimum": 0.5, "maximum": 0.5, "points": 1}))
    code = "\n".join(
        f"assert main({argv!r}) == 0" for argv in (
            ["scenario-list"],
            ["dispersive", "--config", str(path), "--out", "out", "--quiet"],
            ["simulate", "--config", str(path), "--out", "out", "--quiet"],
            ["sweep", "--config", str(path), "--out", "out", "--quiet"]))
    assert _modules_after("from parity_scope.cli import main\n" + code, tmp_path,
                          ("scipy", "concurrent")) == "[]"


def test_cli_import_loads_no_numpy(tmp_path):
    assert _modules_after("import parity_scope.cli", tmp_path, ("numpy",)) == "[]"


def test_scenario_list_and_dispersive_load_no_numpy(tmp_path):
    from parity_scope.config import PRESETS
    tcq = _write_variant(tmp_path, "tcq", lambda tree: None)
    transmon = tmp_path / "transmon.json"
    transmon.write_text(json.dumps(PRESETS["transmon-obstruction"]))
    malformed = _write_variant(tmp_path, "malformed", lambda tree: tree["bus"].__setitem__(
        "kappa1_mhz", -5.0))
    code = "\n".join(
        f"assert main({argv!r}) == {exit_code}" for argv, exit_code in (
            (["scenario-list"], 0),
            (["dispersive", "--config", str(tcq), "--out", "out", "--quiet"], 0),
            (["dispersive", "--config", str(transmon), "--out", "out", "--quiet"], 3),
            (["dispersive", "--config", str(malformed), "--out", "out", "--quiet"], 2)))
    assert _modules_after("from parity_scope.cli import main\n" + code, tmp_path,
                          ("numpy",)) == "[]"


def test_validate_loads_neither_dynamics_nor_inference(tmp_path):
    path = _write_variant(tmp_path, "tiny", lambda tree: tree.__setitem__(
        "validation", SMALL_VALIDATION))
    code = ("from parity_scope.cli import main\n"
            f"assert main(['validate', '--config', {str(path)!r}, '--out', 'out', '--quiet']) == 0")
    loaded = _modules_after(code, tmp_path, ("parity_scope",))
    assert "'parity_scope.spectral'" in loaded
    assert "'parity_scope.dynamics'" not in loaded
    assert "'parity_scope.inference'" not in loaded


def test_in_process_validate_loads_no_process_pool(tmp_path):
    # every check of main(argv) runs in the calling process, where a tracer
    # sees its spans; nothing it loads imports concurrent.futures
    path = _write_variant(tmp_path, "tiny", lambda tree: tree.__setitem__(
        "validation", SMALL_VALIDATION))
    code = ("from parity_scope.cli import main\n"
            f"assert main(['validate', '--config', {str(path)!r}, '--out', 'out', '--quiet']) == 0")
    assert _modules_after(code, tmp_path, ("concurrent", "multiprocessing")) == "[]"


def test_measurement_records_have_one_definition():
    # config builds them without numpy; dynamics and the package re-export them
    from parity_scope import config, dynamics, measurement
    for name in ("DEFAULT_STEP_FACTOR", "RK4_STEP_BUDGET", "DrivePulse", "MeasurementSetup"):
        assert getattr(config, name) is getattr(dynamics, name) is getattr(measurement, name)
    for name in ("DrivePulse", "MeasurementSetup"):
        assert getattr(parity_scope, name) is getattr(measurement, name)


def test_validate_loads_lapack_not_scipy_linalg(tmp_path):
    # the oracles call scipy's compiled LAPACK extension, loaded from its
    # file: neither scipy.linalg's package import nor the numpy subpackages
    # that it pulls in run, and switch_splitting runs a port of scipy's
    # bounded minimizer, not scipy.optimize.  The loader leaves sys.modules
    # as it found it, so no scipy module is listed there
    path = _write_variant(tmp_path, "tiny", lambda tree: tree.__setitem__(
        "validation", {"charge_cutoff": 8, "dispersion_grid": 3}))
    argv = ["validate", "--config", str(path), "--out", "out", "--quiet"]
    code = ("import os\n"
            "from parity_scope.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "from parity_scope.spectral import lapack\n"
            "assert os.path.basename(lapack.__file__).startswith('_flapack.')\n"
            "assert os.path.basename(os.path.dirname(lapack.__file__)) == 'linalg'")
    assert _modules_after(code, tmp_path, ("scipy", "numpy.f2py", "numpy.random",
                                           "numpy.testing", "numpy.ma")) == "[]"


@pytest.mark.parametrize("first", ["spectral", "scipy.linalg"])
def test_spectral_and_scipy_linalg_share_lapack_in_either_import_order(tmp_path, first):
    # spectral reuses the extension scipy.linalg loaded, and scipy.linalg,
    # imported after spectral, binds its own _flapack with the same routines
    imports = ["from parity_scope import spectral", "import scipy.linalg"]
    code = "\n".join([*(imports if first == "spectral" else imports[::-1]),
                      "import numpy as np",
                      "from scipy.linalg import _flapack",
                      "a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])",
                      "values, vectors = spectral.eigh(a)",
                      "theirs = scipy.linalg.eigh(a)",
                      "assert values.tobytes() == theirs[0].tobytes()",
                      "assert vectors.tobytes() == theirs[1].tobytes()",
                      "assert scipy.linalg.lapack.dpotrf(a)[1] == 0",
                      "assert scipy.linalg._flapack is _flapack",
                      "for name in ('dsyevr', 'dsyevr_lwork', 'dpotrf', 'dpotri', 'dsytrf',"
                      " 'dsytri', 'dsytrf_lwork'):",
                      "    mine = getattr(spectral.lapack, name)",
                      "    assert getattr(scipy.linalg.lapack, name) is mine",
                      "    assert getattr(_flapack, name) is mine",
                      "print('ok')"])
    assert _fresh_interpreter(code, tmp_path) == "ok"


def test_package_exports_resolve():
    assert parity_scope.__all__
    for name in parity_scope.__all__:
        assert getattr(parity_scope, name) is not None
    assert set(parity_scope.__all__) <= set(dir(parity_scope))
    with pytest.raises(AttributeError):
        parity_scope.no_such_name


# ---------------------------------------------------------------------------
# BLAS threads: processes started through the entry point load numpy with
# one, and a count the user set wins
# ---------------------------------------------------------------------------

def _tasks_after(argv, tmp_path, **env):
    """Threads of a fresh interpreter that ran ``argv`` through the process
    entry point, with no BLAS thread variable set but those in ``env``."""
    code = ("import os, sys\nfrom parity_scope.cli import main\n"
            f"sys.argv = ['parity-scope', *{argv!r}]\n"
            "assert main() == 0\n"
            "print(len(os.listdir('/proc/self/task')))")
    return int(_fresh_interpreter(code, tmp_path,
                                  dict(dict.fromkeys(BLAS_THREAD_VARIABLES), **env)))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and two CPUs")
def test_cli_blas_threads_per_command(tmp_path):
    one = _write_variant(tmp_path, "one", lambda tree: tree["analysis"].__setitem__(
        "sweep", {"minimum": 0.5, "maximum": 0.5, "points": 1, "asymmetric_chi2": 0.3}))
    small = _write_variant(tmp_path, "small", lambda tree: tree.__setitem__(
        "validation", SMALL_VALIDATION))
    simulate = ["simulate", "--preset", "paper-sec5-symmetric", "--hw", "0",
                "--out", "out", "--quiet"]
    assert _tasks_after(simulate, tmp_path) == 1
    assert _tasks_after(["sweep", "--config", str(one), "--out", "out", "--quiet"],
                        tmp_path) == 1
    assert _tasks_after(simulate, tmp_path, OPENBLAS_NUM_THREADS="2") == 2
    assert _tasks_after(simulate, tmp_path, OMP_NUM_THREADS="2") == 2
    validate = ["validate", "--config", str(small), "--out", "out", "--quiet"]
    assert _tasks_after(validate, tmp_path) == 1
    # numpy and scipy each load their own OpenBLAS, and each starts a thread
    assert _tasks_after(validate, tmp_path, OPENBLAS_NUM_THREADS="2") >= 2


def test_cli_in_process_main_leaves_the_environment(tmp_path, monkeypatch):
    # a caller of main(argv) may run validate next in the same process
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    assert run(["simulate", "--preset", "paper-sec5-symmetric", "--hw", "0",
                "--out", str(tmp_path), "--quiet"]) == 0
    assert dict(os.environ) == before


def test_cli_entry_point_freezes_the_heap_and_main_argv_does_not(tmp_path):
    # the entry point freezes the heap on the way out, after an error exit
    # too; an in-process main(argv) leaves the collector as it is
    import gc
    before = gc.get_freeze_count()
    assert run(["dispersive", "--preset", "transmon-obstruction", "--out", str(tmp_path),
                "--quiet"]) == 3
    assert gc.get_freeze_count() == before
    for preset, status in (("paper-sec5-symmetric", 0), ("transmon-obstruction", 3)):
        argv = ["dispersive", "--preset", preset, "--out", str(tmp_path), "--quiet"]
        code = ("import gc, sys\nfrom parity_scope.cli import main\n"
                f"sys.argv = ['parity-scope', *{argv!r}]\n"
                "status = main()\nprint(status, gc.get_freeze_count() > 0)")
        assert _fresh_interpreter(code, tmp_path) == f"{status} True"


def test_validate_agrees_across_blas_thread_counts(tmp_path):
    # the charge-basis eigh rounds differently on one and two BLAS threads:
    # the last digits may move, by no more than the benchmark's reference rule;
    # the entry point with no count set runs on one thread, bit for bit
    config = _write_variant(tmp_path, "small", lambda tree: tree.__setitem__(
        "validation", SMALL_VALIDATION))
    unset = dict.fromkeys(BLAS_THREAD_VARIABLES)
    for threads in ("1", "2", "entry"):
        argv = ["validate", "--config", str(config), "--out", threads, "--quiet"]
        if threads == "entry":
            code = ("import sys\nfrom parity_scope.cli import main\n"
                    f"sys.argv = ['parity-scope', *{argv!r}]\nprint(main())")
            env = unset
        else:
            code = f"from parity_scope.cli import main\nprint(main({argv!r}))"
            env = dict(unset, OPENBLAS_NUM_THREADS=threads)
        assert _fresh_interpreter(code, tmp_path, env) == "0"
    csv = {threads: (tmp_path / threads / "validation.csv").read_text()
           for threads in ("1", "2", "entry")}
    assert csv["entry"] == csv["1"]
    rows = {threads: [line.split(",") for line in text.splitlines()[1:]]
            for threads, text in csv.items()}
    assert [row[0] for row in rows["1"]] == [row[0] for row in rows["2"]]
    for (name, one, threshold, *_), (_, two, *_) in zip(rows["1"], rows["2"]):
        one, two, threshold = float(one), float(two), float(threshold)
        tolerance = 1e-10 * max(abs(one), abs(threshold)) + 1e-13
        assert abs(one - two) <= tolerance, (name, one, two)


# ---------------------------------------------------------------------------
# validate at the process entry point: the forked worker of a one-worker
# process pool computes the contrast dispersion, with the rows, the error
# and the exit of one process
# ---------------------------------------------------------------------------

# counts the forks of this process, and reports whether a child is left
FORK_SPY = """
import io, json, os, sys
forks = []
fork = os.fork
def spy():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = spy
"""


def _validate_fresh(tmp_path, config, out, entry=True, patch="", quiet=True):
    """Exit code, stderr, forks made and whether a child is left, of
    ``validate`` in a fresh interpreter that first runs ``patch``: through
    the process entry point, or as ``main(argv)``.  Either loads numpy with
    one BLAS thread, the entry point's own count, as a patch that loads it
    first must too.  Without ``quiet`` the stdout lines of the run follow."""
    argv = ["validate", "--config", str(config), "--out", out, *["--quiet"] * quiet]
    call = f"sys.argv = ['parity-scope', *{argv!r}]\ncode = main()" if entry else (
        f"code = main({argv!r})")
    code = (FORK_SPY + patch + "\nfrom parity_scope.cli import main\n"
            "sys.stderr, stderr = io.StringIO(), sys.stderr\n" + call + "\n"
            "sys.stderr, err = stderr, sys.stderr.getvalue()\n"
            "try:\n    os.waitpid(-1, os.WNOHANG)\n    left = True\n"
            "except ChildProcessError:\n    left = False\n"
            "print(json.dumps([code, err, len(forks), left]))")
    env = dict.fromkeys(BLAS_THREAD_VARIABLES)
    if patch or not entry:
        env["OPENBLAS_NUM_THREADS"] = "1"
    *printed, outcome = _fresh_stdout(code, tmp_path, env)
    return json.loads(outcome) + ([] if quiet else [printed])


needs_second_core = pytest.mark.skipif(not _second_core(),
                                       reason="needs os.fork and two CPUs")


@needs_second_core
@pytest.mark.parametrize("ratio", [0.05, 0.3])
def test_validate_forked_worker_writes_the_in_process_csv(tmp_path, ratio):
    # at ratio 0.3 the ladder rows are skipped; the worker is the only fork,
    # and it is reaped
    config = _write_variant(tmp_path, "small", lambda tree: tree.__setitem__(
        "validation", dict(SMALL_VALIDATION, coupling_ratio=ratio)))
    assert _validate_fresh(tmp_path, config, "entry") == [0, "", 1, False]
    assert _validate_fresh(tmp_path, config, "inline", entry=False) == [0, "", 0, False]
    entry = (tmp_path / "entry" / "validation.csv").read_bytes()
    assert entry == (tmp_path / "inline" / "validation.csv").read_bytes()
    assert (b"skipped" in entry) == (ratio == 0.3)


@needs_second_core
def test_validate_forked_worker_prints_nothing(tmp_path):
    # the pool's worker inherits the parent's stdio: each line the parent
    # prints reaches stdout once
    config = _write_variant(tmp_path, "small", lambda tree: tree.__setitem__(
        "validation", SMALL_VALIDATION))
    *outcome, printed = _validate_fresh(tmp_path, config, "entry", quiet=False)
    assert outcome == [0, "", 1, False]
    assert _validate_fresh(tmp_path, config, "inline", entry=False) == [0, "", 0, False]
    csv = (tmp_path / "entry" / "validation.csv").read_text()
    assert csv == (tmp_path / "inline" / "validation.csv").read_text()
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert printed == [f"[PASS] {name}: value={value} threshold={threshold} {note}"
                       for name, value, threshold, _, note in rows] + [
                           "wrote entry/validation.csv"]


def test_in_process_validate_never_forks(tmp_path, monkeypatch):
    config = _write_variant(tmp_path, "small", lambda tree: tree.__setitem__(
        "validation", SMALL_VALIDATION))

    def no_fork():
        raise AssertionError("main(argv) forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run(["validate", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0


# charge_dispersion fails for the flat configuration (E_J = 50 E_C), for the
# steep one (E_J = E_C), or ends the process it runs in when that is a worker
DISPERSION_PATCH = """
from parity_scope import errors, spectral
parent, dispersion = os.getpid(), spectral.charge_dispersion
def patched(cfg, **kwargs):
    steep = cfg.josephson_plus == cfg.charging_plus
    if {fail!r} == ("steep" if steep else "flat"):
        raise errors.ConvergenceFailure(("steep" if steep else "flat") + " failed")
    if {fail!r} == "worker" and steep and os.getpid() != parent:
        os._exit(1)
    return dispersion(cfg, **kwargs)
spectral.charge_dispersion = patched
"""
SWITCH_PATCH = """
def switch_fails(ladder):
    raise errors.DegenerateDenominator("switch failed")
spectral.switch_splitting = switch_fails
"""


@needs_second_core
@pytest.mark.parametrize("fail, switch, expected", [
    ("flat", False, [4, "numerical convergence failure: flat failed\n"]),
    ("steep", True, [4, "numerical convergence failure: steep failed\n"]),
])
def test_validate_forked_worker_reports_the_serial_error(tmp_path, fail, switch, expected):
    # the first failing check in row order names the error: flat before the
    # contrast row, the contrast row before the zero-switch row
    config = _write_variant(tmp_path, "small", lambda tree: tree.__setitem__(
        "validation", SMALL_VALIDATION))
    patch = DISPERSION_PATCH.format(fail=fail) + (SWITCH_PATCH if switch else "")
    assert _validate_fresh(tmp_path, config, "entry", patch=patch) == [*expected, 1, False]
    assert _validate_fresh(tmp_path, config, "inline", entry=False,
                           patch=patch) == [*expected, 0, False]


@needs_second_core
def test_validate_recomputes_what_a_dead_worker_left(tmp_path):
    config = _write_variant(tmp_path, "small", lambda tree: tree.__setitem__(
        "validation", SMALL_VALIDATION))
    patch = DISPERSION_PATCH.format(fail="worker")
    assert _validate_fresh(tmp_path, config, "entry", patch=patch) == [0, "", 1, False]
    assert _validate_fresh(tmp_path, config, "inline", entry=False) == [0, "", 0, False]
    assert ((tmp_path / "entry" / "validation.csv").read_bytes()
            == (tmp_path / "inline" / "validation.csv").read_bytes())
