"""parity-scope benchmark: closed-loop CLI workloads with traced layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-fig4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0        # every workload

One client runs CLI invocations back to back, as a user at a desk would.
With ``--trace 0`` each invocation is a fresh ``python -m parity_scope.cli``
process on a generated --config file, and the end-to-end metrics are
printed.  With ``--trace 1`` the same generated operations run in-process
through ``cli.main`` with a span tracer, and the per-layer metrics are
printed.  Every output is checked; for the default seed the numbers are also
compared with ``reference_seed0.json``.  The last stdout line is one JSON
object; a full record with the environment goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference_seed0.json"
sys.path.insert(0, str(BENCH))

from check import check_operation, compare  # noqa: E402
from workloads import KIND_SHARE, WORKLOADS, scenarios  # noqa: E402

DEFAULT_SEED = 0
SETUP_LAUNCHES = 5          # setup_s is the median of this many fresh launches
IMPORT_SAMPLES = 3
OP_TIMEOUT_S = 60.0
TAIL_PERCENTILE = 90
TRACE_LOOP_SHARE = 0.5      # share of --seconds for the traced operation pairs
DIRECT_REPEATS = 3
WORKERS_ENV = "PARITY_SCOPE_WORKERS"
REFERENCE_SCENARIOS = {"sweep-fig4": 16, "validate-oracles": 24, "design-loop": 24}

# per-call layer timings: metric -> (span name, span info filter)
UNIT_SPANS = {
    "dynamics.evolve_s": ("dynamics.evolve", {}),
    "inference.optimal_phase_s": ("inference.optimal_phase", {}),
    "inference.info_gains_s": ("inference.info_gains", {"check": True}),
    "inference.info_gains_nocheck_s": ("inference.info_gains", {"check": False}),
    "inference.analyze_trajectories_s": ("inference.analyze_trajectories", {}),
    "inference.integrated_signal_s": ("inference.integrated_signal", {}),
    "inference.output_integral_s": ("inference.output_integral", {}),
    "spectral.charge_dispersion_s": ("spectral.charge_dispersion", {}),
    "spectral.tcq_charge_spectrum_s": ("spectral.tcq_charge_spectrum", {}),
    "spectral.chi_oracle_s": ("spectral.chi_oracle", {}),
    "spectral.switch_splitting_s": ("spectral.switch_splitting", {}),
    "spectral.dressed_tcq_check_s": ("spectral.dressed_tcq_check", {}),
    "config.derive_scenario_s": ("config.derive_scenario", {}),
    "cli.write_s": ("cli.write_csv", {}),
}
# workloads whose operations do not reach a layer borrow the first scenario
# of the workload that does, run under a separate tracer
PROBE_WORKLOADS = ("design-loop", "validate-oracles")


class ProgramMissing(Exception):
    pass


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------

def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Invocation:
    """Wall time, child CPU, peak RSS and exit code of one CLI process."""

    def __init__(self, args, workdir, timeout=OP_TIMEOUT_S):
        self.args = args
        stdout_path = workdir / "stdout.txt"
        stderr_path = workdir / "stderr.txt"
        timed_out = threading.Event()

        def kill(pid):
            timed_out.set()
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pid, signal.SIGKILL)

        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "parity_scope.cli", *args], cwd=ROOT,
                env=program_env(), stdout=out, stderr=err, start_new_session=True)
            timer = threading.Timer(timeout, kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        # pool workers share the session; none may outlive a killed parent
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        self.timed_out = timed_out.is_set()
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = stdout_path.read_text(errors="replace")
        self.stderr = stderr_path.read_text(errors="replace")[-500:]


def op_args(operation, config_path, out):
    return [operation.command, "--config", str(config_path), "--out", str(out),
            "--quiet", *operation.extra_args]


def load_reference(workload, seed, smoke):
    if seed != DEFAULT_SEED or smoke:
        return None
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


class Ledger:
    """Operations attempted, failures and their reasons."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)

    def record(self, scenario, operation, out, exit_code, stderr="", timed_out=False):
        """Check one finished operation; returns whether it passed."""
        self.attempted += 1
        if timed_out:
            problems, values = [f"{operation.command}: timed out"], {}
        else:
            values, problems = check_operation(scenario, operation, out, exit_code)
        key = f"{scenario.key}/{operation.command}"
        if self.reference is not None and not problems:
            if key in self.reference:
                problems = compare(operation.command, values, self.reference[key])
            elif not self.reference:
                problems = ["reference file missing or empty"]
        if problems:
            self.failed += 1
            self.failures += [f"{key}: {problem}" for problem in problems]
            if stderr:
                self.failures.append(f"{key} stderr: {stderr[-500:]}")
        return not problems


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# end-to-end pass
# ---------------------------------------------------------------------------

def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def per_item(scenario_log, field):
    """Mean ``field`` per item at the workload's stated scenario mix.

    Each scenario kind is averaged on its own and weighted by its share of
    the stream, so where the deadline cuts the mix does not move the result.
    """
    by_kind = {}
    for entry in scenario_log:
        by_kind.setdefault(entry["kind"], []).append(entry)
    items = value = 0.0
    for kind, entries in by_kind.items():
        weight = KIND_SHARE[kind] / len(entries)
        items += weight * sum(e["items"] for e in entries)
        value += weight * sum(e[field] for e in entries)
    return value / items if items else math.inf


def measure_end_to_end(workload, seed, seconds, smoke, work):
    ledger = Ledger(load_reference(workload, seed, smoke))
    setup_walls = []
    for _ in range(1 if smoke else SETUP_LAUNCHES):
        inv = Invocation(["scenario-list"], fresh_dir(work / "setup"))
        setup_walls.append(inv.wall)
        ledger.attempted += 1
        if inv.exit_code != 0 or "fig4-cuts" not in inv.stdout:
            ledger.fail(f"scenario-list: exit {inv.exit_code} {inv.stderr}")

    invocations, scenario_log = [], []
    stream = scenarios(workload, seed, smoke)
    start = time.perf_counter()
    while True:
        scenario = next(stream)
        config_path = scenario.write(work)
        entry = {"kind": scenario.kind, "wall": 0.0, "cpu": 0.0}
        ok = True
        for operation in scenario.operations:
            out = fresh_dir(work / "out")
            inv = Invocation(op_args(operation, config_path, out), out)
            invocations.append(inv)
            entry["wall"] += inv.wall
            entry["cpu"] += inv.cpu
            ok = ledger.record(scenario, operation, out, inv.exit_code, inv.stderr,
                               inv.timed_out) and ok
        entry["items"] = scenario.items if ok else 0
        scenario_log.append(entry)
        elapsed = time.perf_counter() - start
        # closed loop: start no scenario that is expected to end past the deadline
        if elapsed + statistics.fmean(s["wall"] for s in scenario_log) > seconds:
            break

    walls = [inv.wall for inv in invocations]
    tail, beyond = percentile(walls, TAIL_PERCENTILE)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "items_per_s": 1.0 / per_item(scenario_log, "wall"),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail,
        "cpu_s": per_item(scenario_log, "cpu"),
        "peak_rss_mb": max(inv.rss_mb for inv in invocations),
        "ok_ratio": 1.0 - ledger.failed / ledger.attempted,
    }
    detail = {
        "setup_launches": len(setup_walls),
        "setup_walls_s": setup_walls,
        "operations": len(invocations),
        "scenarios": len(scenario_log),
        "items": sum(s["items"] for s in scenario_log),
        "loop_s": time.perf_counter() - start,
        "op_tail_percentile": TAIL_PERCENTILE,
        "op_tail_samples_beyond": beyond,
        "scenario_log": scenario_log,
        "invocations": [{"args": inv.args[:1], "wall_s": inv.wall, "cpu_s": inv.cpu,
                         "rss_mb": inv.rss_mb, "exit": inv.exit_code}
                        for inv in invocations],
    }
    return metrics, ledger, detail


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------

def cold_import_seconds():
    code = ("import time; t = time.perf_counter(); import parity_scope.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=program_env(),
                         capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
    return float(out.stdout.strip())


def import_program():
    sys.path.insert(0, str(SRC))
    import parity_scope
    if Path(parity_scope.__file__).resolve().parent != SRC / "parity_scope":
        raise ProgramMissing(f"imported parity_scope from {parity_scope.__file__}")
    from parity_scope import cli
    return cli


def run_in_process(cli, scenario, operation, config_path, out, ledger):
    argv = op_args(operation, config_path, out)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        start = time.perf_counter()
        try:
            exit_code = cli.main(argv)
        except SystemExit as exc:           # argparse rejects its arguments
            exit_code = exc.code
        except Exception:                   # a traceback is a failed operation
            traceback.print_exc()
            exit_code = "traceback"
        wall = time.perf_counter() - start
    ledger.record(scenario, operation, out, exit_code, err.getvalue())
    return wall


def timed(fn, repeats):
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def _per_call_timings(tracer, probe, ledger):
    """Median span of each UNIT_SPANS function, from the workload's own calls
    where it makes them, else from the probe scenarios."""
    values, sources = {}, {}
    for metric, (name, info) in UNIT_SPANS.items():
        source = tracer if tracer.named(name, **info) else probe
        sources[metric] = source
        spans = source.named(name, **info)
        if metric == "cli.write_s":
            per_op = {}
            for span in spans:
                root = span
                while root.parent is not None:
                    root = root.parent
                per_op[id(root)] = per_op.get(id(root), 0.0) + span.duration
            spans = list(per_op.values())
        else:
            spans = [span.duration for span in spans]
        if not spans:
            ledger.fail(f"no calls to {name} on any traced path")
        values[metric] = statistics.median(spans) if spans else math.nan
    return values, sources


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else math.nan


def _sweep_timings(workload, seed, smoke, cfgmod, inference):
    """One sweep point at 1 worker, and the pool speedup on the sweep workload."""
    cfg = cfgmod.parse_config(next(scenarios("sweep-fig4", seed, smoke)).config)
    kappa = max(cfg.kappa1, cfg.kappa2)
    pulse = cfg.pulse.resolve(kappa)
    tau = cfg.analysis.resolve_measurement_time(kappa)
    lo, hi = cfg.analysis.sweep.minimum, cfg.analysis.sweep.maximum

    def sweep(pairs, workers):
        return timed(lambda: inference.chi_sweep(pairs, kappa, pulse, tau, workers=workers), 1)

    point = sweep([(lo, lo)], 1)
    if workload != "sweep-fig4":
        return point, 0.0       # the other workloads never start the pool
    pairs = [(lo, lo), (hi, hi), (lo, 0.3), (hi, 0.3)]
    return point, sweep(pairs, 1) / sweep(pairs, os.cpu_count())


def measure_traced(workload, seed, seconds, smoke, work):
    from spans import LAYERS, Tracer

    import_s = statistics.median(cold_import_seconds()
                                 for _ in range(1 if smoke else IMPORT_SAMPLES))
    os.environ[WORKERS_ENV] = "1"     # spans recorded in forked workers are lost
    cli = import_program()
    from parity_scope import config as cfgmod, dynamics, inference

    ledger = Ledger(load_reference(workload, seed, smoke))
    tracer = Tracer()
    walls = {"plain": 0.0, "traced": 0.0}

    def run(scenario, operation, config_path, kind):
        with tracer if kind == "traced" else contextlib.nullcontext():
            walls[kind] += run_in_process(cli, scenario, operation, config_path,
                                          fresh_dir(work / kind), ledger)

    # warm-up: the first in-process call pays one-off lazy initialisation
    scenario = next(scenarios(workload, seed, smoke))
    config_path = scenario.write(work)
    for operation in scenario.operations:
        run_in_process(cli, scenario, operation, config_path, fresh_dir(work / "plain"), ledger)
    order = ["plain", "traced"]
    start = time.perf_counter()
    for scenario in scenarios(workload, seed, smoke):
        config_path = scenario.write(work)
        for operation in scenario.operations:
            for kind in order:
                run(scenario, operation, config_path, kind)
            order.reverse()     # alternate which side runs first
        if time.perf_counter() - start > TRACE_LOOP_SHARE * seconds:
            break

    # before any probe starts BLAS threads in this process, which the pool forks
    sweep_point, pool_speedup = _sweep_timings(workload, seed, smoke, cfgmod, inference)

    # layer calls this workload never makes: one scenario of a workload that does
    probe = Tracer()
    missing = {name for name, info in UNIT_SPANS.values() if not tracer.named(name, **info)}
    for other in PROBE_WORKLOADS:
        if missing and other != workload:
            scenario = next(scenarios(other, seed, smoke))
            config_path = scenario.write(work)
            with probe:
                for operation in scenario.operations:
                    run_in_process(cli, scenario, operation, config_path,
                                   fresh_dir(work / "probe"), ledger)
            missing = {name for name in missing if not probe.named(name)}

    values, sources = _per_call_timings(tracer, probe, ledger)
    evolve_spans = sources["dynamics.evolve_s"].named("dynamics.evolve")
    phase = sources["inference.optimal_phase_s"]
    gains_calls = [s for s in phase.named("inference.info_gains")
                   if phase.ancestor(s, "inference.optimal_phase")]
    spectral = sources["spectral.charge_dispersion_s"]
    eighs = [s for s in spectral.named("spectral.eigh")
             if spectral.ancestor(s, "spectral.charge_dispersion")]

    # the half-step probe's share, timed directly on inputs the traced run saw
    with_probe = no_probe = steps = math.nan
    evolve_spans = [s for s in evolve_spans if "rk4_steps" in s.info]
    if evolve_spans:
        steps = statistics.median(s.info["rk4_steps"] for s in evolve_spans)
        args, kwargs = evolve_spans[0].info["args"]
        kwargs = {k: v for k, v in kwargs.items() if k != "probe"}
        with_probe = timed(lambda: dynamics.evolve(*args[:5], **kwargs, probe=True),
                           DIRECT_REPEATS)
        no_probe = timed(lambda: dynamics.evolve(*args[:5], **kwargs, probe=False),
                         DIRECT_REPEATS)

    wall = sum(s.duration for s in tracer.roots())
    self_times = tracer.self_times()
    metrics = dict(values)
    metrics.update({
        "dynamics.evolve_noprobe_s": no_probe,
        "dynamics.probe_share": 1.0 - no_probe / with_probe,
        "dynamics.rk4_steps": steps,
        "dynamics.steps_per_s": steps / values["dynamics.evolve_s"],
        "inference.info_gains_calls": _ratio(len(gains_calls),
                                             len(phase.named("inference.optimal_phase"))),
        "inference.sweep_point_s": sweep_point,
        "inference.pool_speedup": pool_speedup,
        "spectral.eigh_calls": _ratio(len(eighs),
                                      len(spectral.named("spectral.charge_dispersion"))),
        "spectral.eigh_dim": statistics.median(s.info["dim"] for s in eighs) if eighs else math.nan,
        "cli.import_s": import_s,
        "trace.overhead_ratio": walls["traced"] / walls["plain"] - 1.0,
    })
    for layer in LAYERS:
        metrics[f"{layer}.share"] = self_times[layer] / wall
    detail = {
        "traced_workers": "1",
        "traced_operations": len(tracer.roots()),
        "spans": len(tracer.spans),
        "traced_wall_s": walls["traced"],
        "untraced_wall_s": walls["plain"],
        "layer_self_s": self_times,
        "metric_source": {m: "workload" if src is tracer else "probe"
                          for m, src in sources.items()},
        "evolve_with_probe_s": with_probe,
    }
    return metrics, ledger, detail


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(trace):
    code = (
        "import json, numpy, scipy\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
        "except Exception as exc:\n"
        "    blas = f'unknown ({exc!r})'\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'blas': blas}))\n")
    libs = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                     text=True, timeout=OP_TIMEOUT_S, check=True).stdout)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=OP_TIMEOUT_S)
        commit = git.stdout.strip() or None
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        **libs,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        WORKERS_ENV: os.environ.get(WORKERS_ENV),
        "traced_" + WORKERS_ENV: "1" if trace else None,
        "git_commit": commit,
        "src_lines": lines,
    }


def run_workload(workload, seed, seconds, trace, smoke):
    spec = benchmark_spec()
    names = spec["per_layer"] if trace else spec["end_to_end"]
    work = fresh_dir(WORK / f"{workload}-{seed}-{trace}-{os.getpid()}")
    saved_workers = os.environ.get(WORKERS_ENV)
    try:
        measure = measure_traced if trace else measure_end_to_end
        metrics, ledger, detail = measure(workload, seed, seconds, smoke, work)
    finally:
        if saved_workers is None:
            os.environ.pop(WORKERS_ENV, None)
        else:
            os.environ[WORKERS_ENV] = saved_workers
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    units = {m["name"]: m["unit"] for m in names}
    for name in units:
        if not math.isfinite(metrics[name]):
            ledger.fail(f"metric {name} could not be measured")
            metrics[name] = 0.0
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "environment": environment(trace), **result,
              "failures": ledger.failures, "detail": detail}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{workload} seed={seed} trace={int(trace)}: {ledger.attempted} operations, "
          f"{ledger.failed} failed")
    if trace:
        print(f"  traced in-process with {WORKERS_ENV}=1, "
              f"{detail['traced_operations']} traced operations")
    else:
        print(f"  {detail['operations']} invocations, {detail['scenarios']} scenarios, "
              f"{detail['items']} items; setup_s over {detail['setup_launches']} launches; "
              f"op_tail_s is p{TAIL_PERCENTILE} of {detail['operations']} samples "
              f"({detail['op_tail_samples_beyond']} beyond it); "
              f"failed_ratio = {ledger.failed / ledger.attempted:.4g}")
    for name, entry in result["metrics"].items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    for failure in ledger.failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  record: {path.relative_to(ROOT)}")
    return result


def write_reference():
    """Record the default-seed outputs of the current program."""
    reference = {}
    work = fresh_dir(WORK / f"reference-{os.getpid()}")
    try:
        for workload in WORKLOADS:
            entries = reference[workload] = {}
            stream = scenarios(workload, DEFAULT_SEED)
            for _ in range(REFERENCE_SCENARIOS[workload]):
                scenario = next(stream)
                config_path = scenario.write(work)
                for operation in scenario.operations:
                    out = fresh_dir(work / "out")
                    inv = Invocation(op_args(operation, config_path, out), out)
                    values, problems = check_operation(scenario, operation, out,
                                                       inv.exit_code)
                    if problems:
                        raise SystemExit(f"{scenario.key}: {problems}")
                    if values:
                        entries[f"{scenario.key}/{operation.command}"] = values
            print(f"{workload}: {len(entries)} reference operations", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operations for the harness self-check; not for timing")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record the seed-{DEFAULT_SEED} outputs as the reference")
    args = parser.parse_args(argv)

    if not (SRC / "parity_scope" / "cli.py").is_file():
        print(f"parity_scope sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, seconds, bool(args.trace), args.smoke)
                   for w in workloads}
    except ProgramMissing as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": entry for w, r in results.items()
                        for name, entry in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
