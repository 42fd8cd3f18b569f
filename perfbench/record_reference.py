#!/usr/bin/env python3
"""Rewrite reference.json from the program under ``src/``.

Run from the repository root when the program's outputs change on purpose::

    python3 perfbench/record_reference.py

It records, per bundled scenario, the greedy picks (lazy, checked equal to
eager), the ``bounds`` CSV row where the command succeeds, and the exit code
of every certify command.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from coverplan import cli  # noqa: E402

import workloads  # noqa: E402
from gate import ARTIFACT, REFERENCE  # noqa: E402


def run(argv, out: Path) -> tuple[int, list[str] | None]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    path = out / ARTIFACT[argv[0]]
    return code, path.read_text().splitlines()[1:] if path.exists() else None


def main() -> int:
    ref = {"greedy": {}, "bounds": {}, "exit_codes": {"greedy": {}, "bounds": {}, "sweep": {}}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        tmp = Path(tmp)
        for name in workloads.BUNDLED:
            path = str(workloads.bundled_path(name))
            code, lazy = run(["greedy", "--scenario", path], tmp / name / "lazy")
            _, eager = run(["greedy", "--scenario", path, "--method", "eager"], tmp / name / "eager")
            if lazy != eager:
                raise SystemExit(f"{name}: eager and lazy greedy disagree")
            ref["greedy"][name] = lazy
            ref["exit_codes"]["greedy"][name] = code
            code, rows = run(["bounds", "--scenario", path], tmp / name / "bounds")
            ref["bounds"][name] = rows if code == 0 else None
            ref["exit_codes"]["bounds"][name] = code
            code, _ = run(["sweep", "--scenario", path, "--sweep", workloads.sweep_spec(0)],
                          tmp / name / "sweep")
            ref["exit_codes"]["sweep"][name] = code
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
