"""The benchmark runner: set-up, timed passes, correctness gate and report.

``run.py`` checks for the program and caps thread pools before this module,
and numpy with it, is imported.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import tracing
import workloads
from gate import OpResult
from speed import SpeedProbe
from workloads import Op

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_PASSES = 2
SETUP_REPEATS = 10


def purge_coverplan():
    for name in [m for m in sys.modules if m == "coverplan" or m.startswith("coverplan.")]:
        del sys.modules[name]


def timed_setup(files: dict[str, Path], probe: SpeedProbe):
    """Import coverplan afresh, then parse, validate and build every scenario.

    Repeated SETUP_REPEATS times, each right after a speed sample that
    scales it; returns the median scaled and raw seconds and the last
    repeat's (scenario, space, grid, candidates) per scenario name.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        purge_coverplan()
        t0 = perf_counter()
        importlib.import_module("coverplan.cli")
        scenario_mod = sys.modules["coverplan.scenario"]
        built = {}
        for name, path in files.items():
            sc = scenario_mod.parse_scenario(path)
            space = sc.build_space()
            built[name] = (sc, space, sc.build_grid(space), sc.build_candidates(space))
        raw.append(perf_counter() - t0)
        scaled.append(probe.nominal_now(raw[-1]))
    return statistics.median(scaled), statistics.median(raw), built


def run_op(cli, index: int, op: Op, path: Path, out_dir: Path) -> OpResult:
    argv = [op.kind, "--scenario", str(path), "--out", str(out_dir), *op.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
            error = "SystemExit"
        except Exception as exc:  # noqa: BLE001 - one failed command must not stop the run
            code, error = 1, type(exc).__name__
            traceback.print_exc(file=stderr)
    seconds = perf_counter() - t0
    return OpResult(index, op.kind, op.scenario, code, seconds, stdout.getvalue(),
                    stderr.getvalue(), out_dir, error)


def run_traced_op(cli, index: int, op: Op, path: Path, out_dir: Path, tracer) -> OpResult:
    """Run one command with the tracer's wrappers installed, as a root span of layer cli."""
    with tracer:
        tracer.op = index
        with tracer.span(f"cli.{op.kind}", "cli"):
            result = run_op(cli, index, op, path, out_dir)
        tracer.op = None
    return result


def op_args(cli, wl, out: Path, index: int, op: Op):
    return cli, index, op, wl.files[op.scenario], out / "ops" / op.scenario / op.kind


def run_pass(cli, wl, out: Path, probe: SpeedProbe) -> list[OpResult]:
    """Run every command of the workload once.

    Speed samples are taken before each command and at the end, one per two
    seconds of the preceding command, so long commands are bracketed as
    densely as short ones.
    """
    results = []
    for i, op in enumerate(wl.ops):
        probe.sample(1 + int(results[-1].seconds / 2) if results else 1)
        results.append(run_op(*op_args(cli, wl, out, i, op)))
    probe.sample(1 + int(results[-1].seconds / 2))
    return results


def run_pair_pass(cli, wl, out: Path, tracer, k: int):
    """Run every command twice in a row, untraced and traced, order alternating.

    Each command's untraced and traced runs are seconds apart, so host speed
    drift barely touches their difference.  Returns (untraced, traced).
    """
    untraced, traced = [], []
    for i, op in enumerate(wl.ops):
        args = op_args(cli, wl, out, i, op)
        if (i + k) % 2:
            traced.append(run_traced_op(*args, tracer))
            untraced.append(run_op(*args))
        else:
            untraced.append(run_op(*args))
            traced.append(run_traced_op(*args, tracer))
    return untraced, traced


def repeat_passes(seconds: float, minimum: int, one_pass) -> tuple[list, float]:
    """Call ``one_pass(k)`` until another pass would end past ``seconds``.

    At least ``minimum`` passes run; the next pass is assumed to take as
    long as the longest so far.  Returns the passes and the seconds they took.
    """
    passes, longest = [], 0.0
    t0 = perf_counter()
    while True:
        start = perf_counter()
        passes.append(one_pass(len(passes)))
        longest = max(longest, perf_counter() - start)
        elapsed = perf_counter() - t0
        if len(passes) >= minimum and elapsed + longest > seconds:
            return passes, elapsed


def eager_check(cli, wl, out: Path, lazy: list[OpResult]) -> list[str]:
    """Run ``greedy --method eager`` once per scenario; its picks must equal lazy's."""
    problems = []
    for r in lazy:
        if r.kind != "greedy" or r.exit_code != 0:
            continue
        op = Op("greedy", r.scenario, ("--method", "eager"))
        eager = run_op(cli, r.index, op, wl.files[r.scenario], out / "eager" / r.scenario)
        problems += gate.check_eager(r, eager)
    return problems


def kind_seconds(passes) -> dict[str, float]:
    """Per command kind, the sum over scenarios of each command's median seconds."""
    out: dict[str, float] = {}
    for per_op in zip(*passes):
        kind = per_op[0].kind
        out[kind] = out.get(kind, 0.0) + statistics.median(r.seconds for r in per_op)
    out["total"] = sum(out.values())
    return out


def final_coverage(results, built) -> tuple[str, list[float]]:
    """Final H over attainable mass per instance: refined H for gga, greedy H otherwise."""
    values = []
    for r in results:
        if r.exit_code != 0 or r.kind not in ("greedy", "gga"):
            continue
        h = gate.gga_summary(r.stdout)[1] if r.kind == "gga" else gate.greedy_value(r.stdout)
        values.append(h / built[r.scenario][2].total_mass())
    return ("refined" if any(r.kind == "gga" for r in results) else "greedy"), values


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run(workload: str, seed: int, seconds: float, trace: bool, cpus: int) -> int:
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    wl = workloads.build(workload, seed, out / "scenarios")
    probe = SpeedProbe()
    setup_s, setup_raw, built = timed_setup(wl.files, probe)
    cli = sys.modules["coverplan.cli"]
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: coverplan imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sweep_values = []
    if workload == "certify":
        _, start, stop, steps = workloads.sweep_spec(seed).split(":")
        sweep_values = np.linspace(float(start), float(stop), int(steps))

    def check(passes: list[list[OpResult]]) -> list[str]:
        problems = gate.check_repeats(passes)
        problems += gate.check_pass(workload, passes[0], gate.load_reference(), sweep_values)
        if workload == "certify":
            problems += eager_check(cli, wl, out, passes[0])
        for p in problems:
            print(f"  GATE VIOLATION: {p}")
        return problems

    print(f"workload {workload}, seed {seed}: {len(wl.files)} scenarios, "
          f"{len(wl.ops)} commands per pass; {cpus} CPUs, BLAS/OpenMP threads <= {cpus}; "
          f"Python {platform.python_version()}, numpy {np.__version__}")
    if trace:
        return traced_run(cli, wl, out, built, check, seed, seconds)

    passes, elapsed = repeat_passes(seconds, MIN_PASSES,
                                    lambda k: run_pass(cli, wl, out, probe))
    problems = check(passes)

    attempted = sum(len(p) for p in passes)
    failed = sum(r.exit_code != 0 for p in passes for r in p)
    secs = kind_seconds(passes)
    label, cov = final_coverage(passes[0], built)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = probe.factor()
    print(f"  {len(passes)} passes in {elapsed:.1f} s; speed factor {speed:.4f} "
          f"(nominal / mean of {len(probe.samples)} probe samples)")
    print(f"  setup_s {setup_s:.4f} s (raw {setup_raw:.4f} s; median of {SETUP_REPEATS} "
          f"imports + builds of {len(wl.files)} scenarios, each scaled by the sample before it)")
    print("  per command, raw seconds in each pass:")
    for per_op in zip(*passes):
        times = ", ".join(f"{r.seconds:.3f}" for r in per_op)
        print(f"    {per_op[0].kind} {per_op[0].scenario}: {times}")
    print(f"  per pass, summed over {len(wl.files)} scenarios, median over passes:")
    for kind in ("greedy", "bounds", "sweep", "gga"):
        if kind in secs:
            print(f"  {kind}_s {secs[kind] * speed:.4f} s (raw {secs[kind]:.4f} s)")
    print(f"  {label}_coverage {statistics.fmean(cov):.6f} (H / attainable mass, "
          f"mean of {len(cov)} instances)")
    print(f"  ops_failed_frac {failed}/{attempted} = {failed / attempted:.4f} "
          f"({failed // len(passes)} of {len(wl.ops)} commands in every pass)")
    for r in passes[0]:
        if r.exit_code != 0:
            cause = r.error or (r.stderr.strip().splitlines() or ["no message"])[-1]
            print(f"  failed: {r.kind} {r.scenario}: exit {r.exit_code}: {cause}")
    print(f"  peak_rss_mb {peak_mb:.1f} MB")

    metrics = {
        "setup_s": (setup_s, "s"),
        "commands_s": (secs["total"] * speed, "s"),
        "coverage": (statistics.fmean(cov), "frac"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    emit(not problems, attempted, failed, metrics)
    return 1 if problems else 0


def traced_run(cli, wl, out: Path, built, check, seed: int, seconds: float) -> int:
    """Pair passes of untraced and traced commands; report per-layer metrics.

    Per-layer metrics and the per-scenario table come from the first traced
    pass; the tracing overhead compares each command's median traced and
    untraced seconds over all pair passes.
    """
    tracers = []

    def one_pass(k):
        tracers.append(tracing.Tracer())
        return run_pair_pass(cli, wl, out, tracers[-1], k)

    pairs, elapsed = repeat_passes(seconds, 1, one_pass)
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    problems = check(untraced + traced)

    tracer = tracers[0]
    setup_counts = {
        "cells": sum(b[2].cell_count for b in built.values()),
        "candidates": sum(len(b[3]) for b in built.values()),
    }
    metrics = tracing.layer_metrics(tracer, kind_seconds(traced), kind_seconds(untraced),
                                    setup_counts)
    table = tracing.scenario_table(tracer, wl.ops)

    per_pass = ", ".join(
        f"{sum(r.seconds for r in t) - sum(r.seconds for r in u):+.3f}" for u, t in pairs
    )
    print(f"  {len(pairs)} pair passes in {elapsed:.1f} s; traced {metrics['trace.traced_s'][0]:.3f} s, "
          f"untraced {metrics['trace.untraced_s'][0]:.3f} s (sums of per-command medians), "
          f"overhead {metrics['trace.overhead_s'][0]:+.3f} s (per pair pass: {per_pass})")
    print(f"  per-layer self times of the first traced pass sum to "
          f"{metrics['trace.self_sum_s'][0]:.3f} s")
    for name, layer in tracer.missing:
        print(f"  layer not measured: {layer} ({name} no longer exists)")
    print("  | scenario | detection matrix | greedy (incl. its matrix) | bounds | refine "
          "| refine stop |")
    print("  |---|---|---|---|---|---|")
    for row in table:
        cells = [row["scenario"]] + [
            "-" if v is None else v if isinstance(v, str) else f"{v:.3f} s"
            for v in (row["matrix_s"], row["greedy_s"], row["bounds_s"], row["refine_s"])
        ] + [row["refine_stop"] or "-"]
        print("  | " + " | ".join(cells) + " |")
    escaped = Counter((s[tracing.NAME], s[tracing.ERROR]) for s in tracer.spans
                      if s[tracing.ERROR] and s[tracing.LAYER] != "cli")
    for (name, cls), n in sorted(escaped.items()):
        print(f"  {n} x {cls} escaped {name}")

    tracer.write(out / f"trace_seed{seed}.json", {
        "workload": wl.name,
        "seed": seed,
        "ops": [{"op": r.index, "kind": r.kind, "scenario": r.scenario,
                 "exit_code": r.exit_code, "error": r.error} for r in traced[0]],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "scenario_table": table,
    })
    attempted = sum(len(p) for p in untraced + traced)
    failed = sum(r.exit_code != 0 for p in untraced + traced for r in p)
    emit(not problems, attempted, failed, metrics)
    return 1 if problems else 0
