#!/usr/bin/env python3
"""coverplan benchmark: seeded workloads through ``coverplan.cli.main``, in-process.

Usage, from the repository root::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

The program is imported from ``src/`` next to this directory; the benchmark
refuses to run (exit 2, no result) when it is missing.  Each run builds the
workload's scenarios from ``--seed``, times the set-up, runs the workload's
CLI commands in passes while another pass still ends within ``--seconds``
(at least two passes), checks every output with the correctness gate,
prints a report, and prints one JSON object as its last line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
command untraced and traced in turn, in the same process, and reports
per-layer metrics and the tracing overhead; the spans go to
``perfbench/out/<workload>/trace_seed<n>.json``.
Commands write their CSV artifacts under ``perfbench/out/<workload>/``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("certify", "refine_open", "refine_cluttered")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_threads() -> int:
    """Hold BLAS/OpenMP pools at or below the CPUs this process may use."""
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cpus):
            os.environ[var] = str(cpus)
    return cpus


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coverplan" / "__init__.py").is_file():
        print(f"error: no coverplan sources under {SRC}", file=sys.stderr)
        return 2
    cpus = cap_threads()  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), cpus)


if __name__ == "__main__":
    sys.exit(main())
