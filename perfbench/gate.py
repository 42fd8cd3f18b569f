"""Correctness gate of the benchmark.

A violation fails the run (``"correct": false`` and a non-zero exit); it is
never recorded as a metric.  The reference file holds what this commit's
program prints for the bundled scenarios: greedy picks, bounds rows, and the
exit code of every certify command.  ``record_reference.py`` rewrites it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
# Both greedy guarantees are at least 1 - 1/e for every team size.
L_MIN = 1.0 - 1.0 / math.e
ARTIFACT = {"greedy": "greedy_positions.csv", "bounds": "bounds.csv", "sweep": "sweep.csv",
            "gga": "gga_trace.csv"}


@dataclass
class OpResult:
    """What one CLI command returned and printed."""

    index: int
    kind: str
    scenario: str
    exit_code: int
    seconds: float
    stdout: str
    stderr: str
    out_dir: Path
    error: str | None = None  # exception class, when the command raised past main()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def artifact_lines(result: OpResult) -> list[str] | None:
    """Artifact CSV lines after the version header, or None when absent."""
    path = result.out_dir / ARTIFACT[result.kind]
    if not path.exists():
        return None
    return path.read_text().splitlines()[1:]


def greedy_value(stdout: str) -> float:
    return float(re.search(r"^coverage: (\S+)", stdout, re.M).group(1))


def gga_summary(stdout: str) -> tuple[float, float, int, str]:
    """(greedy H, refined H, iterations, stop reason) from the ``gga`` summary."""
    greedy = float(re.search(r"^greedy coverage: (\S+)", stdout, re.M).group(1))
    m = re.search(r"^refined coverage: (\S+) after (\d+) iterations \((\w+)\)", stdout, re.M)
    return greedy, float(m.group(1)), int(m.group(2)), m.group(3)


def _bounds_in_range(rows: list[list[float]]) -> bool:
    # columns ... T, E, L: each guarantee in [1 - 1/e, 1] and L = max(T, E)
    return all(
        L_MIN - 1e-12 <= min(t, e) and l == max(t, e) and l <= 1.0 + 1e-12
        for *_, t, e, l in rows
    )


def _floats(lines: list[str]) -> list[list[float]]:
    return [[float(v) for v in line.split(",")] for line in lines]


def check_certify(result: OpResult, reference: dict, sweep_values) -> list[str]:
    where = f"{result.kind} {result.scenario}"
    expected_exit = reference["exit_codes"][result.kind][result.scenario]
    if result.exit_code != 0:
        if expected_exit == 0:
            return [f"{where}: exit {result.exit_code}, the reference commit exits 0"]
        return []  # a known failure, counted by the caller
    lines = artifact_lines(result)
    if lines is None:
        return [f"{where}: no {ARTIFACT[result.kind]} written"]
    if result.kind == "greedy":
        if lines != reference["greedy"][result.scenario]:
            return [f"{where}: picks differ from the reference"]
        return []
    if result.kind == "bounds":
        ref = reference["bounds"].get(result.scenario)
        if ref is not None and lines != ref:
            return [f"{where}: c,alpha,T,E,L differ from the reference: {lines[1:]} vs {ref[1:]}"]
        if not _bounds_in_range(_floats(lines[1:])):
            return [f"{where}: guarantees out of range: {lines[1:]}"]
        return []
    rows = _floats(lines[1:])
    if len(rows) != len(sweep_values):
        return [f"{where}: {len(rows)} rows, expected {len(sweep_values)}"]
    if not np.allclose([r[0] for r in rows], sweep_values, rtol=1e-11, atol=0):
        return [f"{where}: swept values differ from the requested range"]
    if not _bounds_in_range(rows):
        return [f"{where}: guarantee outside [1 - 1/e, 1] or L != max(T, E)"]
    return []


def check_gga(result: OpResult) -> list[str]:
    where = f"gga {result.scenario}"
    if result.exit_code != 0:
        return [f"{where}: exit {result.exit_code}: {result.stderr.strip()}"]
    greedy, refined, _, _ = gga_summary(result.stdout)
    problems = []
    if refined < greedy:
        problems.append(f"{where}: refined H {refined} below greedy H {greedy}")
    lines = artifact_lines(result)
    if lines is None:
        return problems + [f"{where}: no gga_trace.csv written"]
    # iter,agent,x,y,H,grad_norm: one H per iteration
    per_iter = {}
    for row in _floats(lines[1:]):
        per_iter.setdefault(int(row[0]), row[4])
    trace = [per_iter[k] for k in sorted(per_iter)]
    if any(b < a for a, b in zip(trace, trace[1:])):
        problems.append(f"{where}: the refine trace decreases")
    return problems


def check_eager(lazy: OpResult, eager: OpResult) -> list[str]:
    if eager.exit_code != 0 or artifact_lines(eager) != artifact_lines(lazy):
        return [f"greedy {lazy.scenario}: eager picks differ from lazy picks"]
    return []


def check_repeats(passes: list[list[OpResult]]) -> list[str]:
    """Every pass of a run prints the same thing and exits the same way."""
    first = passes[0]
    return [
        f"{r.kind} {r.scenario}: output changed between passes"
        for later in passes[1:]
        for r, again in zip(first, later)
        if (r.exit_code, r.stdout, r.stderr) != (again.exit_code, again.stdout, again.stderr)
    ]


def check_pass(workload: str, results: list[OpResult], reference: dict, sweep_values) -> list[str]:
    problems = []
    for r in results:
        if workload == "certify":
            problems += check_certify(r, reference, sweep_values)
        else:
            problems += check_gga(r)
    return problems
