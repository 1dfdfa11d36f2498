"""The program names the benchmark harness traces and calls must exist.

``perfbench/run.py`` times layers by wrapping public functions by name; a
renamed function leaves a traced run with no calls to it.  These checks
catch that in tier-1 instead of in the minute-long harness self-check.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest
import scipy.linalg

from parity_scope import dynamics, inference, spectral

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
