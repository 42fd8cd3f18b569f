"""Batch command-line front end.

Every command reads one scenario file, validated with its flag overrides,
runs a module, prints a human summary, and (with ``--out``) writes CSV
artifacts that are byte-identical across runs on the same host apart from
the version header line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .curvature import bound_report, sweep_bounds
from .errors import (
    CoverplanError,
    DegenerateCandidateError,
    EmptyCandidateSetError,
    InstanceTooLargeError,
    ScenarioError,
    check,
)
from .gradient import refine
from .greedy import GAIN_TOLERANCE, greedy_place
from .oracle import brute_force, check_definition_equivalence, check_submodular
from .scenario import bundled_scenario_path, parse_scenario
from .sensing import DetectionCache, coverage, detection_matrix, joint_detection

# the scenario fields a flag can override: (flag, field, type, help)
_OVERRIDES = (
    ("--seed", "seed", int, "override the scenario seed"),
    ("--grid-h", "grid_cell_size", float, "override the quadrature cell size"),
    ("--candidates-spacing", "candidate_spacing", float, "override the candidate lattice spacing"),
    ("--n", "team_size", int, "override the team size"),
    ("--lambda", "decay", float, "override the sensing decay rate"),
    ("--delta", "radius", float, "override the sensing radius"),
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    common.add_argument("--out", default=None, help="directory for CSV artifacts")
    for flag, dest, kind, text in _OVERRIDES:
        common.add_argument(flag, type=kind, default=None, dest=dest, help=text)

    parser = argparse.ArgumentParser(
        prog="coverplan",
        description="Coverage planning: greedy placement, certified bounds, gradient refinement.",
    )
    parser.add_argument("--version", action="version", version=f"coverplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text):
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(handler=handler)
        return p

    p = command("evaluate", _cmd_evaluate, "objective value of a placement read from CSV")
    p.add_argument("--positions-file", required=True, help="CSV with agent,x,y rows")

    p = command("greedy", _cmd_greedy, "greedy placement on the candidate lattice")
    p.add_argument("--method", choices=("eager", "lazy"), default="lazy")

    command("gga", _cmd_gga, "greedy placement plus gradient refinement")
    bounds = command("bounds", _cmd_bounds, "curvatures and certified greedy guarantees")
    sweep = command("sweep", _cmd_sweep, "bounds along a sensing-parameter sweep")
    for p in (bounds, sweep):
        p.add_argument("--alpha-domain", choices=("feasible", "omega"), default="feasible",
                       dest="alpha_domain",
                       help="cell domain for the elemental curvature minimum")
    sweep.add_argument("--sweep", required=True, metavar="PARAM:START:STOP:STEPS",
                       help="PARAM is 'lambda' or 'delta'")

    command("oracle", _cmd_oracle, "exhaustive optimal placement (small instances)")

    p = command("check", _cmd_check, "randomized submodularity property checks")
    p.add_argument("--trials", type=int, default=1000, help="trials for the nested-gain check")

    p = command("heatmap", _cmd_heatmap, "joint detection field as CSV and PGM")
    p.add_argument("--positions-file", default=None,
                   help="CSV with agent,x,y rows; defaults to running gga")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(_Run(args), args)
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CoverplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Run:
    """Scenario plus everything built from it, after flag overrides."""

    def __init__(self, args):
        spec = args.scenario
        if not Path(spec).exists() and "/" not in spec and "\\" not in spec:
            # bare names refer to the bundled scenario library
            spec = bundled_scenario_path(spec.removesuffix(".json"))
        self.scenario = parse_scenario(spec, **{f: getattr(args, f) for _, f, *_ in _OVERRIDES})
        self.grid = self.scenario.build_grid()
        self.sensor = self.scenario.build_sensor()
        self.out = Path(args.out) if args.out else None
        if self.out:
            self.out.mkdir(parents=True, exist_ok=True)

    def candidates(self) -> np.ndarray:
        cand = self.scenario.build_candidates()
        if len(cand) == 0:
            raise EmptyCandidateSetError(
                f"no feasible candidate at spacing {self.scenario.candidate_spacing}"
            )
        return cand


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _write_csv(path: Path, header: str | None, rows):
    with open(path, "w") as f:
        f.write(f"# coverplan {__version__}\n")
        if header:
            f.write(header + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_positions(path: Path, positions: np.ndarray):
    _write_csv(path, "agent,x,y", [(i, float(x), float(y)) for i, (x, y) in enumerate(positions)])


def _read_positions(path, space) -> np.ndarray:
    """Agent positions by agent number; each must be finite and feasible in ``space``."""
    rows = {}  # agent -> (x, y, line)
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read positions file {path}: {exc}") from exc
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("agent"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ScenarioError(f"{path}:{ln}: expected 'agent,x,y', got {line!r}")
        try:
            agent, x, y = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ScenarioError(f"{path}:{ln}: {exc}") from exc
        check("number", (x, y), f"{path}:{ln}: coordinates", ScenarioError)
        if agent in rows:
            raise ScenarioError(
                f"{path}:{ln}: agent {agent} already given on line {rows[agent][2]}"
            )
        rows[agent] = (x, y, ln)
    if not rows:
        raise ScenarioError(f"positions file {path} holds no positions")
    agents = sorted(rows)
    positions = np.array([rows[agent][:2] for agent in agents])
    outside = np.flatnonzero(~space.feasible_many(positions))
    if len(outside):
        agent = agents[outside[0]]
        x, y, ln = rows[agent]
        raise ScenarioError(
            f"{path}:{ln}: agent {agent} at ({_fmt(x)}, {_fmt(y)}) is outside the feasible region"
        )
    return positions


def _cmd_evaluate(run: _Run, args) -> int:
    positions = _read_positions(args.positions_file, run.grid.space)
    value = coverage(positions, run.grid, run.sensor)
    print(f"agents: {len(positions)}")
    print(f"coverage: {_fmt(value)} of {_fmt(run.grid.total_mass())} attainable")
    return 0


def _greedy(run: _Run, method: str = "lazy"):
    """Greedy's placement, which must place an agent: no positions file can hold none."""
    cand = run.candidates()
    result = greedy_place(
        run.grid.space, run.grid, run.sensor, cand, run.scenario.team_size, method=method
    )
    if not result.indices:
        raise DegenerateCandidateError(
            f"greedy placed no agent: no candidate's coverage gain exceeds {GAIN_TOLERANCE:g}"
        )
    return result


def _cmd_greedy(run: _Run, args) -> int:
    result = _greedy(run, args.method)
    for i, (x, y) in enumerate(result.positions):
        print(f"agent {i}: ({_fmt(float(x))}, {_fmt(float(y))})")
    print(f"coverage: {_fmt(result.value)} ({result.evaluations} gain evaluations, {args.method})")
    if result.stopped_early:
        print(f"stopped after {len(result.indices)} picks: no remaining gain")
    if run.out:
        _write_positions(run.out / "greedy_positions.csv", result.positions)
    return 0


def _run_gga(run: _Run):
    seed_result = _greedy(run)
    refined = refine(seed_result.positions, run.grid, run.sensor, **run.scenario.refine)
    return seed_result, refined


def _cmd_gga(run: _Run, args) -> int:
    seed_result, refined = _run_gga(run)
    print(f"greedy coverage: {_fmt(seed_result.value)}")
    print(
        f"refined coverage: {_fmt(refined.value)} "
        f"after {refined.steps[-1].iteration} iterations ({refined.reason})"
    )
    if run.out:
        _write_positions(run.out / "gga_positions.csv", refined.positions)
        _write_csv(run.out / "gga_trace.csv", "iter,agent,x,y,H,grad_norm", refined.trace_rows())
    return 0


# the guarantee columns of bounds.csv and sweep.csv, each with its BoundReport field
_GUARANTEES = {"c": "total_curvature", "alpha": "elemental_curvature", "T": "from_total",
               "E": "from_elemental", "L": "certified"}


def _guarantees(report) -> tuple:
    return tuple(getattr(report, name) for name in _GUARANTEES.values())


def _cmd_bounds(run: _Run, args) -> int:
    cand = run.candidates()
    probs = detection_matrix(cand, run.grid.space, run.grid.centers, run.sensor)
    report = bound_report(probs, run.grid, run.scenario.team_size, args.alpha_domain)
    if report.dropped:
        spots = cand[list(report.dropped)]
        where = ", ".join(f"({_fmt(float(x))}, {_fmt(float(y))})" for x, y in spots)
        print(f"dropped {len(spots)} of {len(cand)} candidates (no event mass): {where}")
    print(
        f"total curvature {_fmt(report.total_curvature)} (candidate {report.worst_candidate}), "
        f"elemental curvature {_fmt(report.elemental_curvature)} "
        f"(candidate {report.worst_pair[0]}, cell {report.worst_pair[1]})"
    )
    print(
        f"guarantee from total {_fmt(report.from_total)}, "
        f"from elemental {_fmt(report.from_elemental)}, "
        f"certified {_fmt(report.certified)} for {report.team_size} agents"
    )
    if run.out:
        _write_csv(run.out / "bounds.csv", ",".join(_GUARANTEES), [_guarantees(report)])
    return 0


# the sweep parameters, each named as its flag and as its SensorModel field
_SWEPT = {"lambda": "decay", "delta": "radius"}


def _parse_sweep(text: str):
    """The swept parameter's flag name, its SensorModel field and its values."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ScenarioError(f"--sweep expects PARAM:START:STOP:STEPS, got {text!r}")
    label = parts[0]
    if label not in _SWEPT:
        raise ScenarioError(f"sweep parameter must be 'lambda' or 'delta', got {label!r}")
    try:
        start, stop = float(parts[1]), float(parts[2])
        steps = int(parts[3])
    except ValueError as exc:
        raise ScenarioError(f"bad sweep range {text!r}: {exc}") from exc
    if steps < 1:
        raise ScenarioError(f"sweep needs at least 1 step, got {steps}")
    if not (0 < start < np.inf and 0 < stop < np.inf):
        raise ScenarioError("sweep values must be finite and positive")
    return label, _SWEPT[label], np.linspace(start, stop, steps)


def _cmd_sweep(run: _Run, args) -> int:
    label, param, values = _parse_sweep(args.sweep)
    cand = run.candidates()
    cache = DetectionCache(cand, run.grid.space, run.grid.centers)
    table = sweep_bounds(
        cache, run.grid, run.scenario.team_size, run.sensor, param, values, args.alpha_domain
    )
    certified = [r.certified for _, r in table]
    print(f"swept {label} over {len(table)} values in [{_fmt(values[0])}, {_fmt(values[-1])}]")
    print(f"certified guarantee range: [{_fmt(min(certified))}, {_fmt(max(certified))}]")
    if run.out:
        rows = [(v, *_guarantees(r)) for v, r in table]
        _write_csv(run.out / "sweep.csv", ",".join(["param", *_GUARANTEES]), rows)
    return 0


def _cmd_oracle(run: _Run, args) -> int:
    cand = run.candidates()
    result = brute_force(cand, run.scenario.team_size, run.grid, run.sensor)
    print(f"optimal subset: {list(result.best_subset)}")
    print(f"optimal coverage: {_fmt(result.best_value)} "
          f"({result.subsets_evaluated} subsets evaluated)")
    if run.out:
        _write_positions(run.out / "oracle_positions.csv", cand[list(result.best_subset)])
    return 0


def _cmd_check(run: _Run, args) -> int:
    cand = run.candidates()
    seed = run.scenario.seed
    reports = (
        check_submodular(cand, run.grid, run.sensor, trials=args.trials, seed=seed),
        check_definition_equivalence(
            cand, run.grid, run.sensor, trials=max(1, args.trials // 2), seed=seed
        ),
    )
    for report in reports:
        print(report.as_text())
    if run.out:
        rows = [(r.check.replace(" ", "_"), r.trials, r.seed, r.violations, r.max_violation)
                for r in reports]
        _write_csv(run.out / "checks.csv", "check,trials,seed,violations,max_violation", rows)
    return 1 if any(r.violations for r in reports) else 0


def _cmd_heatmap(run: _Run, args) -> int:
    if args.positions_file:
        positions = _read_positions(args.positions_file, run.grid.space)
    else:
        _, refined = _run_gga(run)
        positions = refined.positions
    rows = detection_matrix(positions, run.grid.space, run.grid.centers, run.sensor)
    detect = joint_detection(rows)
    grid = run.grid
    image = detect.reshape(grid.ny, grid.nx)[::-1]  # top row = largest y
    feas = detect[grid.feasible]
    high = float(np.mean(feas >= 0.97)) if len(feas) else 0.0
    mid = float(np.mean(feas >= 0.50)) if len(feas) else 0.0
    print(f"coverage: {_fmt(grid.integrate(detect))}")
    print(f"feasible cells with detection >= 0.97: {high:.1%}")
    print(f"feasible cells with detection >= 0.50: {mid:.1%}")
    if run.out:
        _write_csv(run.out / "heatmap.csv", None, image.tolist())
        _write_pgm(run.out / "heatmap.pgm", image)
    return 0


def _write_pgm(path: Path, image: np.ndarray):
    levels = np.rint(np.clip(image, 0.0, 1.0) * 255).astype(int)
    with open(path, "w") as f:
        f.write("P2\n")
        f.write(f"# coverplan {__version__}\n")
        f.write(f"{levels.shape[1]} {levels.shape[0]}\n255\n")
        for row in levels:
            f.write(" ".join(str(v) for v in row) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
