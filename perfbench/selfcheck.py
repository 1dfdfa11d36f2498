"""Fast self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced with ``--smoke`` (one
point per sweep cut, a 3x3 offset grid, one design scenario) and asserts
that the last output line is a result JSON carrying every end-to-end or
per-layer metric named in BENCHMARK.json, with its unit and a finite value.
Exits non-zero on the first violation.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(result, expected, label):
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{label}: not correct: {result}")
    if set(result["metrics"]) != set(expected):
        missing = set(expected) - set(result["metrics"])
        extra = set(result["metrics"]) - set(expected)
        raise AssertionError(f"{label}: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        if entry["unit"] != expected[name] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise AssertionError(f"{label}: bad metric {name}: {entry}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check_result(result, {m["name"]: m["unit"] for m in spec[kind]}, label)
            print(f"ok  {label}: {len(result['metrics'])} metrics", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
