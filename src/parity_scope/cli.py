"""Command-line front end: derivation, simulation, sweeps and validation.

Exit codes: 0 success, 2 configuration error, 3 physics-condition failure
(e.g. unsatisfiable parity condition), 4 numerical-convergence failure, 5 an
output the system could not write (a full disk, an I/O error).
All numeric output uses shortest round-trip decimals, and sweep points
run in input order, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import json
import math
import numbers
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

# numpy, dynamics, inference and spectral are imported by the commands that
# run them, so scenario-list and dispersive start on the stdlib alone
from .config import MHZ, derive_scenario, load_config, preset, preset_names
from .dispersive import TcqSpec, tcq_dispersive, tcq_mixing
from .errors import ConfigError, OutputError, ParityScopeError

CONFIG_EXIT = 2
PHYSICS_EXIT = 3
NUMERICS_EXIT = 4
OUTPUT_EXIT = 5
# OpenBLAS reads its thread count from the first of these that is set, once,
# when numpy loads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
ERROR_PREFIX = {CONFIG_EXIT: "configuration error",
                PHYSICS_EXIT: "physics condition failed",
                NUMERICS_EXIT: "numerical convergence failure",
                OUTPUT_EXIT: "output error"}
# what a configured output path causes: a name too long, a directory or a
# file in the way, a missing or unwritable parent
PATH_ERRNOS = {errno.ENAMETOOLONG, errno.EISDIR, errno.ENOTDIR, errno.EEXIST,
               errno.ENOENT, errno.EACCES, errno.EPERM, errno.EROFS}


def _fmt(value):
    """Shortest decimal that round-trips the float exactly."""
    # numpy registers its floating types as Real and its integer types as Integral
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        return repr(float(value))
    return str(value)


CSV_BLOCK = 256        # rows formatted and written at a time


def _csv_line(row):
    # a row of Python floats, as a trajectory array's tolist() gives, needs
    # no per-cell test
    if set(map(type, row)) == {float}:
        return ",".join(map(repr, row))
    return ",".join(map(_fmt, row))


def _output_failure(message, exc):
    """The error of an output the OS refused: a ConfigError where the
    configured path (output_dir, --out) is at fault, else an OutputError."""
    cls = ConfigError if exc.errno in PATH_ERRNOS else OutputError
    return cls(f"{message}: {exc.strerror}")


def _write_text(path, chunks):
    try:
        with open(path, "w") as out:
            out.writelines(chunks)
    except OSError as exc:
        raise _output_failure(f"cannot write {path}", exc) from exc


def write_csv(path, header, rows):
    """Write a header and rows, a list of rows or a 2-D array, as CSV, a
    block of CSV_BLOCK rows at a time."""
    def blocks():
        yield ",".join(header) + "\n"
        for start in range(0, len(rows), CSV_BLOCK):
            block = rows[start:start + CSV_BLOCK]
            # tolist() yields Python floats, whose repr is what _fmt writes
            lines = block.tolist() if hasattr(block, "tolist") else block
            yield "".join(_csv_line(row) + "\n" for row in lines)
    _write_text(path, blocks())


def _emit(args, message):
    if not args.quiet:
        print(message)


def _write_json(args, path, payload):
    _write_text(path, [json.dumps(payload, indent=2) + "\n"])
    _emit(args, f"wrote {path}")


def _load(args):
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset:
        cfg = preset(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError("one of --preset or --config is required")
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    message = f"cannot create output directory {cfg.output_dir}"
    try:
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    except ValueError as exc:       # a NUL byte in the path
        raise ConfigError(f"{message}: {exc}") from exc
    except OSError as exc:
        raise _output_failure(message, exc) from exc
    return cfg


# ---------------------------------------------------------------------------
# dispersive
# ---------------------------------------------------------------------------

def _scenario_summary(report):
    cfg = report.config
    kappa = report.kappa
    tau = cfg.analysis.resolve_measurement_time(kappa)
    payload = {
        "scenario": cfg.name,
        "resonator1_mhz": cfg.resonator1 / MHZ,
        "resonator2_mhz": report.resonator2 / MHZ,
        "kappa1_mhz": cfg.kappa1 / MHZ,
        "kappa2_mhz": cfg.kappa2 / MHZ,
        "measurement_time_us": tau,
        "parity_condition_satisfiable": report.parity_satisfiable,
        "qubits": [],
    }
    if report.parity_satisfiable:
        det = report.detunings.plus_branch
        payload["drive_detuning1_mhz"] = det[0] / MHZ
        payload["drive_detuning2_mhz"] = det[1] / MHZ
        payload["drive_frequency_mhz"] = (cfg.resonator1 - det[0]) / MHZ
        payload["parity_degenerate"] = report.detunings.degenerate
    else:
        payload["parity_condition_error"] = report.parity_error
        model = report.qubits[0].model
        payload["switch_excess"] = (model.quantum_switch ** 2
                                    - model.chi1 * model.chi2) / kappa ** 2
    for qubit in report.qubits:
        model = qubit.model
        entry = {
            "name": qubit.name,
            "g1_mhz": qubit.g1 / MHZ,
            "g2_mhz": qubit.g2 / MHZ,
            "chi1_mhz": model.chi1 / MHZ,
            "chi2_mhz": model.chi2 / MHZ,
            "quantum_switch_mhz": model.quantum_switch / MHZ,
            "static_switch_mhz": model.static_switch / MHZ,
            "warnings": list(model.warnings),
        }
        if qubit.purcell is not None:
            entry["purcell_time_us"] = qubit.purcell.time
            entry["purcell_time_kappa"] = qubit.purcell.dimensionless
        payload["qubits"].append(entry)
    return payload


def cmd_dispersive(args):
    cfg = _load(args)
    report = derive_scenario(cfg)
    payload = _scenario_summary(report)
    _emit(args, json.dumps(payload, indent=2))
    _write_json(args, Path(cfg.output_dir) / "dispersive.json", payload)
    if not report.parity_satisfiable:
        _emit(args, "parity condition unsatisfiable")
        return PHYSICS_EXIT
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

TRAJECTORY_HEADER = ["t", "re_a1", "im_a1", "re_a2", "im_a2", "re_bout", "im_bout"]


def trajectory_rows(traj):
    """The CSV rows of a trajectory, one (samples, 7) array."""
    import numpy as np

    return np.column_stack([traj.times, traj.alpha1.real, traj.alpha1.imag,
                            traj.alpha2.real, traj.alpha2.imag,
                            traj.output.real, traj.output.imag])


def cmd_simulate(args):
    from .dynamics import evolve, reflection
    from .inference import analyze_trajectories

    cfg = _load(args)
    report = derive_scenario(cfg)
    setup = report.measurement_setup()
    kappa = report.kappa
    tau = cfg.analysis.resolve_measurement_time(kappa)
    weights = range(4) if args.hw == "all" else [int(args.hw)]

    trajectories = [evolve(setup, hw, tau) for hw in weights]

    summary = {"scenario": cfg.name, "files": {}, "reflection": {}}
    r = {}
    for hw, traj in zip(weights, trajectories):
        path = Path(cfg.output_dir) / f"trajectory_hw{hw}.csv"
        write_csv(path, TRAJECTORY_HEADER, trajectory_rows(traj))
        summary["files"][f"hw{hw}"] = str(path)
        r[hw] = reflection(setup, hw)
        summary["reflection"][f"hw{hw}"] = {"re": r[hw].real, "im": r[hw].imag,
                                            "abs_error": abs(abs(r[hw]) - 1.0)}
        _emit(args, f"h_w={hw}: wrote {path}")

    if args.hw == "all":
        summary["parity_collapse"] = max(abs(r[0] - r[2]), abs(r[1] - r[3]))
        summary["parity_contrast"] = abs(r[0] - r[1])
        gains = analyze_trajectories(setup, tau,
                                     phase=cfg.analysis.phase,
                                     tau_points=cfg.analysis.tau_points)
        summary["info_parity_bits"] = gains.info_parity
        summary["info_hamming_bits"] = gains.info_hamming
        summary["optimal_phase_rad"] = gains.optimal_phase
        rates_path = Path(cfg.output_dir) / "rates.csv"
        write_csv(rates_path, ["tau_kappa", "gamma_hw", "gamma_p"],
                  [[t * kappa, float(gh) / kappa, float(gp) / kappa]
                   for t, gh, gp in zip(gains.tau_grid, gains.rate_hamming,
                                        gains.rate_parity)])
        summary["files"]["rates"] = str(rates_path)
        _emit(args, f"info gains: parity {gains.info_parity:.6f} bits, "
                    f"hamming {gains.info_hamming:.6f} bits")

    _write_json(args, Path(cfg.output_dir) / "simulate.json", summary)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_HEADER = ["chi1_over_kappa", "chi2_over_kappa", "info_parity_bits",
                "info_hamming_bits", "delta_info_bits", "missing_parity_log10",
                "phi_star_rad"]


def sweep_rows(pairs, reports):
    rows = []
    for (chi1, chi2), r in zip(pairs, reports):
        missing = max(r.missing_parity, 1e-15)
        rows.append([chi1, chi2, r.info_parity, r.info_hamming, r.delta_info,
                     math.log10(missing), r.optimal_phase])
    return rows


def cmd_sweep(args):
    import numpy as np

    from .inference import chi_sweep

    cfg = _load(args)
    if cfg.kappa1 != cfg.kappa2:
        # every point puts one kappa on both buses, the unit of the chi/kappa axis
        raise ConfigError("bus.kappa1_mhz and bus.kappa2_mhz differ: sweep needs one decay "
                          "rate, the kappa of its chi/kappa axis")
    kappa = cfg.kappa1
    pulse = cfg.pulse.resolve(kappa)
    tau = cfg.analysis.resolve_measurement_time(kappa)
    sweep = cfg.analysis.sweep
    # Python floats, so the rows take _csv_line's all-float path
    grid = np.linspace(sweep.minimum, sweep.maximum, sweep.points).tolist()

    summary = {"scenario": cfg.name, "cuts": {}}
    cuts = {
        "diagonal": [(chi, chi) for chi in grid],
        "asymmetric": [(chi, sweep.asymmetric_chi2) for chi in grid],
    }
    # both cuts are scored in one lockstep pass, then split by position
    scored = iter(chi_sweep([pair for pairs in cuts.values() for pair in pairs],
                            kappa, pulse, tau))
    for cut_name, pairs in cuts.items():
        reports = [next(scored) for _ in pairs]
        path = Path(cfg.output_dir) / f"sweep_{cut_name}.csv"
        write_csv(path, SWEEP_HEADER, sweep_rows(pairs, reports))
        (chi1, chi2), best = min(zip(pairs, reports), key=lambda point: point[1].missing_parity)
        summary["cuts"][cut_name] = {
            "file": str(path),
            "argmin_chi1_over_kappa": chi1,
            "argmin_chi2_over_kappa": chi2,
            "min_missing_parity": best.missing_parity,
            "max_info_parity": best.info_parity,
        }
        _emit(args, f"{cut_name}: argmin chi1/kappa = {chi1:.4f}, "
                    f"missing parity info {best.missing_parity:.3e}")

    _write_json(args, Path(cfg.output_dir) / "sweep.json", summary)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _row(name, value, threshold, lower=False):
    # the rule reads the printed value, so a NaN fails either way
    ok = value >= threshold if lower else value <= threshold
    return (name, value, threshold, ok, "lower bound" if lower else "")


@contextlib.contextmanager
def _on_second_core(task, fork):
    """Yield a function that returns ``task()`` or raises its exception.

    With ``fork`` a one-worker process pool, forked from this process,
    computes it meanwhile on another core; a worker that dies without an
    outcome (a broken pool) is replaced by an inline call.  On the way out
    the pool waits for a task still running and reaps its worker.  Without
    ``fork`` the call runs inline.
    """
    if not fork:
        yield task
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # objects that outlive the fork stay out of the collector's reach, so
    # the worker copies no page to update their collection bookkeeping
    gc.freeze()
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        future = pool.submit(task)

        def result():
            try:
                return future.result()
            except BrokenProcessPool:
                return task()

        yield result


def _validation_checks(cfg, fork=False):
    """Rows and notes of the validation suite, in a fixed order.

    The contrast dispersion depends on no other check.  With ``fork`` it is
    computed by a one-worker process pool on a second core while this
    process runs the rest (scipy's ``eigh`` holds the GIL, so threads cannot
    overlap them); either way the rows are the same, and so is the error
    raised: the first failing check's in row order.  A failing flat
    dispersion waits for the worker's contrast before it is raised.
    """
    # only the exact-diagonalization oracles use scipy, and only its LAPACK
    # extension, never the scipy.linalg package; the worker forks after the imports
    import numpy as np

    from .spectral import ChargeBasisConfig, charge_dispersion

    ec = 0.3 * MHZ * 1e3
    flat = ChargeBasisConfig(ec, ec, 50 * ec, 50 * ec, -0.5 * ec,
                             charge_cutoff=cfg.validation.charge_cutoff)
    steep = replace(flat, josephson_plus=ec, josephson_minus=ec)
    dispersion = partial(charge_dispersion, levels=6,
                         grid_points=cfg.validation.dispersion_grid)
    with _on_second_core(partial(dispersion, steep), fork) as contrast:
        flat_row = _row("charge_dispersion_flat", float(np.max(dispersion(flat)) / ec), 1e-3)
        try:
            rows, notes = _oracle_checks(cfg, flat, ec)
        except Exception:
            contrast()  # the contrast row comes first, and so does its error
            raise
        contrast_row = _row("charge_dispersion_contrast", float(contrast()[1] / ec), 0.05,
                            lower=True)
    return [flat_row, contrast_row, *rows], notes


def _oracle_checks(cfg, flat, ec):
    """The rows after the two charge dispersions, and the notes."""
    import numpy as np

    from .spectral import (
        LadderConfig,
        chi_oracle,
        dressed_tcq_check,
        switch_splitting,
        tcq_charge_spectrum,
        transmon_charge_spectrum,
    )

    ratio = cfg.validation.coupling_ratio
    factor = replace(flat, interaction=0.0, offset_plus=0.13, offset_minus=0.41)
    coupled = tcq_charge_spectrum(factor, levels=6)
    single_p = transmon_charge_spectrum(factor.josephson_plus, factor.charging_plus,
                                        0.13, cutoff=16, levels=4)
    single_m = transmon_charge_spectrum(factor.josephson_minus, factor.charging_minus,
                                        0.41, cutoff=16, levels=4)
    sums = np.sort((single_p[:, None] + single_m[None, :]).ravel())[:6]
    rows = [_row("interaction_free_factorization",
                 float(np.max(np.abs(coupled - sums)) / max(abs(sums[-1]), ec)), 1e-10)]

    j = -1.0
    report = dressed_tcq_check(TcqSpec(5.0, 5.0, 0.1 * j, 0.1 * j, j), levels=10)
    rows.append(_row("dressed_normal_form", float(report.worst_error), 5.0 * (0.1 / 2.0) ** 2))

    if ratio >= 0.3:
        reason = f"coupling ratio {ratio} >= 0.3: outside the dispersive regime"
        for name in ("transmon_chi_accuracy", "tcq_chi_accuracy", "zero_switch_splitting"):
            rows.append((name, float("nan"), float("nan"), True, "skipped: " + reason))
        return rows, [reason]

    frequency, w1, w2 = 5.0, 7.0, 8.4
    transmon = LadderConfig(kind="transmon", qubit_frequency=frequency, anharmonicity=-3.2,
                            resonator1_frequency=w1, resonator2_frequency=w2,
                            couplings=(ratio * abs(frequency - w1),
                                       0.2 * ratio * abs(frequency - w2)),
                            qubit_levels=3, photon_levels=4)
    dressed = replace(tcq_mixing(TcqSpec(6.4, 6.4, -1.2, -1.2, -0.4)),
                      delta_plus=-1.2, delta_minus=-1.2, delta_cross=-1.36)
    w1, w2 = 7.5, 8.5
    tcq = LadderConfig(kind="tcq", dressed=dressed,
                       resonator1_frequency=w1, resonator2_frequency=w2,
                       couplings=(0.0, ratio * abs(dressed.omega_minus - w1),
                                  0.2 * ratio * abs(dressed.omega_plus - w2), 0.0),
                       qubit_levels=3, photon_levels=3)
    for name, ladder in (("transmon_chi_accuracy", transmon), ("tcq_chi_accuracy", tcq)):
        rows.append(_row(name, float(chi_oracle(ladder).relative_errors[0]), 3.0 * ratio ** 2))

    dressed_zs = replace(tcq_mixing(TcqSpec(6.4, 6.4, -0.3, -0.3, -0.4)),
                         delta_plus=-0.15, delta_minus=-0.15, delta_cross=-0.3)
    g1m = ratio * abs(dressed_zs.omega_minus - w1)
    g2p = ratio * abs(dressed_zs.omega_plus - w1)
    ladder = LadderConfig(kind="tcq", dressed=dressed_zs,
                          resonator1_frequency=w1, resonator2_frequency=w1 + 0.01,
                          couplings=(0.0, g1m, g2p, 0.0),
                          qubit_levels=3, photon_levels=3)
    gaps = switch_splitting(ladder)
    chi1 = tcq_dispersive(dressed_zs, (w1, w1 + 0.01), ladder.couplings).chi1
    state_dep = abs(gaps["excited"] - gaps["ground"]) / 2.0
    rows.append(_row("zero_switch_splitting", state_dep / abs(chi1) if chi1 else math.nan, 1e-2))
    return rows, []


def cmd_validate(args):
    cfg = _load(args)
    checks, notes = _validation_checks(cfg, fork=args.fork)
    path = Path(cfg.output_dir) / "validation.csv"
    write_csv(path, ["check", "value", "threshold", "status", "note"],
              [[name, value, threshold, "pass" if ok else "fail", note]
               for name, value, threshold, ok, note in checks])
    for name, value, threshold, ok, note in checks:
        _emit(args, f"[{'PASS' if ok else 'FAIL'}] {name}: value={value!r} "
                    f"threshold={threshold!r} {note}")
    for note in notes:
        _emit(args, "note: " + note)
    _emit(args, f"wrote {path}")
    if not all(ok for _, _, _, ok, _ in checks):
        return NUMERICS_EXIT
    return 0


def cmd_scenario_list(args):
    for name, description in preset_names():
        print(f"{name}: {description}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="parity-scope",
        description="three-qubit dispersive parity readout toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a scenario JSON file")
        p.add_argument("--preset", help="name of a shipped scenario preset")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")

    p = sub.add_parser("dispersive", help="derive effective models and the parity verdict")
    common(p)
    p.set_defaults(func=cmd_dispersive)

    p = sub.add_parser("simulate", help="evolve the driven resonators and export trajectories")
    common(p)
    p.add_argument("--hw", default="all", choices=["0", "1", "2", "3", "all"],
                   help="Hamming weight(s) to simulate")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="information-gain sweep over chi/kappa")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="run the exact-diagonalization validation suite")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("scenario-list", help="list the shipped presets")
    p.set_defaults(func=cmd_scenario_list)
    return parser


def _second_core():
    """Whether this process can fork a worker that runs on another CPU."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def main(argv=None):
    """Run one command and return its exit code.

    Both process entry points, ``python -m parity_scope.cli`` and the
    ``parity-scope`` script, call this without arguments.  Then numpy loads
    with one BLAS thread unless the environment already names a count.
    ``simulate`` and ``sweep`` multiply at most 2x2 by 2x256 and stacks of
    6x6 matrices, far below OpenBLAS's threading threshold, and ``validate``
    runs its few dense charge-basis solves as fast on one thread as on two,
    since inertia counts decide its cutoff probes and most of its offset grid; a second
    thread only spins, and it would make ``validate``'s rounding depend on
    the thread count.  The second core goes to a process instead: where
    this one may run on two CPUs and can fork, ``validate`` forks a
    one-worker process pool that computes its contrast charge dispersion
    meanwhile, with the same rows and the same error as in one process.
    ``scenario-list`` and ``dispersive`` never load numpy.  On the way out
    the heap is frozen (``gc.freeze``), so the interpreter's shutdown skips
    collecting objects that die with the process anyway.  A call with ``argv`` runs in a
    process that may hold other work, so it leaves the environment and the
    collector as they are and forks nothing.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if argv is None and not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    args.fork = argv is None and _second_core()
    try:
        return args.func(args)
    except ParityScopeError as exc:
        print(f"{ERROR_PREFIX[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
