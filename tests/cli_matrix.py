"""The CLI's observable output over a fixed set of commands, one JSON line per command.

Runs ``coverplan.cli.main`` in one process: on each bundled scenario
``greedy`` (lazy and eager), ``bounds``, ``sweep`` on lambda and on delta,
``gga``, and ``evaluate`` and ``heatmap`` on the gga positions; ``oracle``
and ``check`` (also at one trial) on a small scenario; ``greedy`` and
``evaluate`` on its positions where greedy places nobody;
``--help`` for the parser and each subcommand; and a few error exits, two of
them at the numeric envelope's bounds.  Each line holds the
command's exit code and the sha256 of its stdout, its stderr and each
artifact it wrote.  The artifacts' version header line is left out of the
hash, and the scratch directory's path reads ``{tmp}`` in stdout and stderr,
so two checkouts of different versions give equal lines for equal output.
With ``--compare`` it prints instead every difference from an earlier
output and exits 1 when there is any.  Run it against the code under test::

    PYTHONPATH=src python tests/cli_matrix.py > matrix.json
    PYTHONPATH=src python tests/cli_matrix.py --compare matrix.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from coverplan import __version__
from coverplan.cli import main as cli_main

BUNDLED = ["empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50"]
SUBCOMMANDS = ["evaluate", "greedy", "gga", "bounds", "sweep", "oracle", "check", "heatmap"]
SMALL = {
    "name": "matrix-small",
    "boundary": [[0, 0], [20, 0], [20, 10], [0, 10]],
    "obstacles": [[[8, 3], [12, 3], [12, 7], [8, 7]]],
    "team_size": 3,
    "sensor": {"decay": 0.15, "radius": 30.0},
    "candidate_spacing": 5.0,
    "refine": {"max_iterations": 8},
}
# SMALL with a sampled density of finite mass whose product with the decay is past 1e150
SPIKE = {**SMALL, "density": {"type": "sampled", "origin": [0, 0], "spacing": 10.0,
                              "values": [[1.0, 1e300], [0, 3.0]]}}
# SMALL with no event mass, so every greedy gain is 0
ZERO_PICK = {**SMALL, "density": {"type": "uniform", "value": 0.0}}
HEADER = f"# coverplan {__version__}"


def commands(tmp: Path):
    """(name, argv) of every command, in run order; ``{out}`` is the command's own directory."""
    for name in BUNDLED:
        gga_positions = str(tmp / f"{name}.gga" / "gga_positions.csv")
        runs = {
            "greedy.lazy": ["greedy"],
            "greedy.eager": ["greedy", "--method", "eager"],
            "bounds.feasible": ["bounds"],
            "sweep.lambda": ["sweep", "--sweep", "lambda:0.02:0.4:4"],
            "sweep.delta": ["sweep", "--sweep", "delta:5:40:4"],
            "gga": ["gga"],
            "evaluate": ["evaluate", "--positions-file", gga_positions],
            "heatmap": ["heatmap", "--positions-file", gga_positions],
        }
        for run, argv in runs.items():
            yield f"{name}.{run}", [*argv, "--scenario", name, "--out", "{out}"]
    small = str(tmp / "small.json")
    yield "small.oracle", ["oracle", "--scenario", small, "--out", "{out}"]
    yield "small.check", ["check", "--scenario", small, "--trials", "60", "--out", "{out}"]
    yield "small.check-one-trial", ["check", "--scenario", small, "--trials", "1", "--out", "{out}"]
    yield "small.overrides", ["greedy", "--scenario", small, "--n", "2", "--lambda", "0.3",
                              "--delta", "12", "--grid-h", "0.5", "--candidates-spacing", "4",
                              "--seed", "5", "--out", "{out}"]
    yield "small.heatmap", ["heatmap", "--scenario", small, "--out", "{out}"]
    zero = str(tmp / "zero-pick.json")
    yield "zero-pick.greedy", ["greedy", "--scenario", zero, "--out", "{out}"]
    yield "zero-pick.evaluate", ["evaluate", "--scenario", zero, "--positions-file",
                                 str(tmp / "zero-pick.greedy" / "greedy_positions.csv")]
    yield "version", ["--version"]
    yield "help", ["--help"]
    for sub in SUBCOMMANDS:
        yield f"help.{sub}", [sub, "--help"]
    yield "error.no-command", ["--scenario", small]
    yield "error.unknown-command", ["plan", "--scenario", small]
    yield "error.missing-scenario", ["greedy", "--scenario", str(tmp / "absent.json")]
    yield "error.unknown-bundled", ["greedy", "--scenario", "absent_60x50"]
    yield "error.bad-override", ["bounds", "--scenario", small, "--lambda", "-1"]
    yield "error.bad-sweep", ["sweep", "--scenario", small, "--sweep", "gamma:1:2:3"]
    yield "error.sweep-range", ["sweep", "--scenario", small, "--sweep", "lambda:0:1:3"]
    yield "error.positions", ["evaluate", "--scenario", small, "--positions-file", small]
    yield "error.too-large", ["oracle", "--scenario", "empty_60x50"]
    yield "error.decay-times-mass", ["gga", "--scenario", str(tmp / "spike.json")]
    yield "error.team-size", ["bounds", "--scenario", small, "--n", str(2**31)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(name: str, argv: list[str], tmp: Path) -> dict:
    """Run one command; its exit code and the digests of everything it printed and wrote."""
    out = tmp / name
    argv = [arg.replace("{out}", str(out)) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("default")  # each warning shows once per command, as in a process
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # --help and argparse errors
            code = exc.code if isinstance(exc.code, int) else 1
    artifacts = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            lines = path.read_text().splitlines(keepends=True)
            artifacts[path.name] = _digest("".join(ln for ln in lines if ln.rstrip() != HEADER))
    return {
        "exit": code,
        "stdout": _digest(stdout.getvalue().replace(str(tmp), "{tmp}")),
        "stderr": _digest(stderr.getvalue().replace(str(tmp), "{tmp}")),
        "artifacts": artifacts,
    }


def compare(old: dict, new: dict) -> list[str]:
    """One line per difference between two tables, by command."""
    lines = [f"{name}: only in the old table" for name in old if name not in new]
    for name, fields in new.items():
        if name not in old:
            lines.append(f"{name}: only in the new table")
            continue
        for key, value in fields.items():
            was = old[name].get(key)
            if key == "artifacts":
                was = was or {}
                for art in sorted(set(was) | set(value)):
                    if was.get(art) != value.get(art):
                        lines.append(f"{name}: artifact {art} {was.get(art)} -> {value.get(art)}")
            elif value != was:
                lines.append(f"{name}: {key} {was} -> {value}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="OLD.json",
                        help="list the differences from OLD.json")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"  # --help wraps to the terminal's width otherwise
    table = {}
    with tempfile.TemporaryDirectory(prefix="cli_matrix_") as scratch:
        tmp = Path(scratch)
        (tmp / "small.json").write_text(json.dumps(SMALL))
        (tmp / "spike.json").write_text(json.dumps(SPIKE))
        (tmp / "zero-pick.json").write_text(json.dumps(ZERO_PICK))
        for name, command in commands(tmp):
            table[name] = run(name, command, tmp)
            if not args.compare:
                print(json.dumps({"command": name, **table[name]}), flush=True)
    if not args.compare:
        return 0
    with open(args.compare) as fh:
        lines = [json.loads(text) for text in fh if text.strip()]
    old = {line.pop("command"): line for line in lines}
    diffs = compare(old, table)
    print("\n".join(diffs) if diffs else f"{len(table)} commands, no difference")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
