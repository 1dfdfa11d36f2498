"""The program names the benchmark harness traces and calls must exist.

``perfbench/run.py`` times layers by wrapping public functions by name; a
renamed function leaves a traced run with no calls to it.  These checks
catch that in tier-1 instead of in the minute-long harness self-check.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest
import scipy.linalg

from parity_scope import dynamics, inference, spectral
from parity_scope.cli import main
from parity_scope.config import PRESETS

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture
def harness(monkeypatch):
    # run.py puts its own directory on sys.path when it is loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_public_functions_of_their_module(harness):
    names = {name for name, _ in harness.UNIT_SPANS.values()}
    assert names
    for name in sorted(names - {"spectral.eigh"}):     # eigh is scipy's, wrapped apart
        short, attr = name.split(".")
        module = importlib.import_module(f"parity_scope.{short}")
        function = getattr(module, attr, None)
        assert inspect.isfunction(function) and not attr.startswith("_"), name
        assert function.__module__ == module.__name__, name


def test_harness_calls_match_the_signatures():
    assert "workers" in inspect.signature(inference.chi_sweep).parameters
    assert list(inspect.signature(dynamics.evolve).parameters)[:6] == [
        "setup", "hamming_weight", "t_final", "dt", "stride", "probe"]
    assert spectral.sla is scipy.linalg


def test_traced_names_are_called_by_the_commands(harness, tmp_path):
    # --trace 1 fails with "no calls to <name>" when a command stops calling
    # a traced function; simulate, a one-point-per-cut sweep and a sized-down
    # validate between them must call each, with its info filter
    from spans import Tracer        # on sys.path once run.py is loaded

    base = PRESETS["paper-sec5-symmetric"]
    tree = dict(base, analysis=dict(base["analysis"], sweep={
        "minimum": 0.5, "maximum": 0.5, "points": 1, "asymmetric_chi2": 0.3}),
        validation={"coupling_ratio": 0.05, "charge_cutoff": 8, "dispersion_grid": 3})
    config = tmp_path / "small.json"
    config.write_text(json.dumps(tree))
    with Tracer() as tracer:
        for command in ("simulate", "sweep", "validate"):
            argv = [command, "--config", str(config), "--out", str(tmp_path), "--quiet"]
            assert main(argv) == 0, command
    for metric, (name, info) in harness.UNIT_SPANS.items():
        assert tracer.named(name, **info), metric
