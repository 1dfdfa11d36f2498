"""Output checks for every benchmark operation.

Each check reads the files one CLI invocation wrote and returns the numbers
worth comparing against the recorded reference, plus a list of problems.
The invariants hold for every seed; the reference comparison applies to the
default seed, with tolerances no looser than the program's own guards.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

GAIN_TOL_BITS = 1e-6            # quadrature doubling guard of info_gains
VALIDATION_RTOL = 1e-10         # validation values vs the reference
VALIDATION_ATOL = 1e-13         # floor for values that are pure rounding error
AMPLITUDE_RTOL = 1e-8           # half-step probe guard of evolve
REFLECTION_TOL = 1e-12          # |r| = 1 for the lossless bus
ARGMIN_TOL = 0.1                # diagonal sweep minimum near chi = kappa/2
VALIDATION_CHECKS = 7


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _gain_problems(where, parity, hamming):
    problems = []
    if not (-GAIN_TOL_BITS <= parity <= hamming + GAIN_TOL_BITS
            and hamming <= 2.0 + GAIN_TOL_BITS):
        problems.append(f"{where}: gains violate 0 <= parity {parity!r} "
                        f"<= hamming {hamming!r} <= 2")
    return problems


def _phase_problems(where, phase):
    if not 0.0 <= phase < math.pi:
        return [f"{where}: phi* = {phase!r} outside [0, pi)"]
    return []


def check_sweep(scenario, out):
    problems, values = [], {}
    sweep = scenario.config["analysis"]["sweep"]
    for cut in ("diagonal", "asymmetric"):
        rows = _rows(out / f"sweep_{cut}.csv")
        if len(rows) != sweep["points"]:
            problems.append(f"sweep_{cut}.csv: {len(rows)} rows, expected {sweep['points']}")
        points = []
        for row in rows:
            chi1 = float(row["chi1_over_kappa"])
            parity = float(row["info_parity_bits"])
            hamming = float(row["info_hamming_bits"])
            problems += _gain_problems(f"{cut} chi1={chi1}", parity, hamming)
            problems += _phase_problems(f"{cut} chi1={chi1}", float(row["phi_star_rad"]))
            points.append([chi1, float(row["chi2_over_kappa"]), parity, hamming])
        values[cut] = points
        if cut == "diagonal" and len(points) > 1:
            chis = [p[0] for p in points]
            step = (chis[-1] - chis[0]) / (len(chis) - 1)
            if chis[0] <= 0.5 <= chis[-1] and step < ARGMIN_TOL:
                best = max(points, key=lambda p: p[2])[0]
                if abs(best - 0.5) > ARGMIN_TOL:
                    problems.append(f"diagonal argmin at chi/kappa = {best}, not near 0.5")
    return values, problems


def check_validate(scenario, out):
    rows = _rows(out / "validation.csv")
    problems = [f"validation {row['check']}: status {row['status']}"
                for row in rows if row["status"] != "pass"]
    if len(rows) != VALIDATION_CHECKS:
        problems.append(f"validation.csv: {len(rows)} checks, expected {VALIDATION_CHECKS}")
    values = {row["check"]: [float(row["value"]), float(row["threshold"])] for row in rows}
    return values, problems


def check_dispersive(scenario, out):
    summary = json.loads((out / "dispersive.json").read_text())
    expected = scenario.kind != "transmon"
    problems = []
    if summary["parity_condition_satisfiable"] is not expected:
        problems.append(f"dispersive: parity_condition_satisfiable is "
                        f"{summary['parity_condition_satisfiable']}, expected {expected}")
    return {}, problems


def _last_row(path):
    lines = Path(path).read_text().strip().splitlines()
    return [float(cell) for cell in lines[-1].split(",")]


def check_simulate(scenario, out):
    summary = json.loads((out / "simulate.json").read_text())
    problems = []
    for hw, r in summary["reflection"].items():
        modulus = math.hypot(r["re"], r["im"])
        if abs(modulus - 1.0) > REFLECTION_TOL:
            problems.append(f"reflection {hw}: |r| - 1 = {modulus - 1.0:.3e}")
    parity, hamming = summary["info_parity_bits"], summary["info_hamming_bits"]
    problems += _gain_problems("simulate", parity, hamming)
    problems += _phase_problems("simulate", summary["optimal_phase_rad"])
    final = {}
    for hw in range(4):
        row = _last_row(out / f"trajectory_hw{hw}.csv")
        final[f"hw{hw}"] = row[1:5]         # re_a1, im_a1, re_a2, im_a2
    return {"gains": [parity, hamming], "final": final}, problems


CHECKS = {
    "sweep": check_sweep,
    "validate": check_validate,
    "dispersive": check_dispersive,
    "simulate": check_simulate,
}


def check_operation(scenario, operation, out, exit_code):
    """Exit code, invariants and extracted values of one finished invocation."""
    if exit_code != operation.expected_exit:
        return {}, [f"{operation.command}: exit code {exit_code}, "
                    f"expected {operation.expected_exit}"]
    try:
        return CHECKS[operation.command](scenario, Path(out))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return {}, [f"{operation.command}: unreadable output: {exc!r}"]


def compare(command, values, reference):
    """Problems found comparing one operation's values with its reference."""
    problems = []
    if command == "sweep":
        for cut, ref_points in reference.items():
            points = values.get(cut, [])
            if len(points) != len(ref_points):
                problems.append(f"{cut}: {len(points)} points, reference has {len(ref_points)}")
                continue
            for got, ref in zip(points, ref_points):
                if got[:2] != ref[:2] or any(abs(g - r) > GAIN_TOL_BITS
                                             for g, r in zip(got[2:], ref[2:])):
                    problems.append(f"{cut}: point {got} differs from reference {ref}")
    elif command == "validate":
        for name, (ref, threshold) in reference.items():
            got = values.get(name, [math.nan])[0]
            tol = VALIDATION_RTOL * max(abs(ref), abs(threshold)) + VALIDATION_ATOL
            if not abs(got - ref) <= tol:
                problems.append(f"validation {name}: {got!r} vs reference {ref!r}")
    elif command == "simulate":
        gains = values.get("gains", [math.nan, math.nan])
        if any(not abs(g - r) <= GAIN_TOL_BITS for g, r in zip(gains, reference["gains"])):
            problems.append(f"simulate gains {gains} vs reference {reference['gains']}")
        for hw, ref in reference["final"].items():
            got = values.get("final", {}).get(hw, [math.nan] * 4)
            scale = max(math.hypot(ref[0], ref[1]), math.hypot(ref[2], ref[3]))
            if any(not abs(g - r) <= AMPLITUDE_RTOL * scale for g, r in zip(got, ref)):
                problems.append(f"simulate final amplitudes {hw}: {got} vs reference {ref}")
    return problems
