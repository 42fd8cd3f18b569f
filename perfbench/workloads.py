"""Seeded benchmark inputs: scenario dicts and the CLI commands run on them.

Every input is a pure function of the benchmark seed, so two runs with the
same seed hand the program byte-identical scenario files.  The program only
ever sees those files, through ``coverplan.cli.main``.

Workloads
---------
certify
    ``greedy``, ``bounds`` and ``sweep --sweep lambda:...`` on the five
    bundled scenarios; the sweep range comes from the seed.  No refinement.
refine_open
    ``gga`` on obstacle-free 60 x 50 spaces whose event density is a seeded
    Gaussian mixture, with a short sensing range (decay 0.12).
refine_cluttered
    ``gga`` on bundled ``random_60x50`` plus seeded layouts of disjoint convex
    obstacles strictly inside the boundary, all with a reduced iteration cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BUNDLED = ("empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50")
WIDTH, HEIGHT = 60.0, 50.0
BOUNDARY = [[0.0, 0.0], [WIDTH, 0.0], [WIDTH, HEIGHT], [0.0, HEIGHT]]

SWEEP_STEPS = 10
# Refine passes are kept near 6-9 s (2-core x86 box, Python 3.11, numpy
# 2.4), so a 36 s run holds three to five of them and reports per-command
# medians.
OPEN_INSTANCES = 4
# Past ~30 iterations agents sit near a local optimum and backtracking halves
# the step many times, so refine time starts to depend on the seed (60
# iterations: 4.8-6.3 s per instance; 30 iterations: 2.3-2.5 s).
OPEN_MAX_ITERATIONS = 20
CLUTTERED_LAYOUTS = 2
# Vertex counts of the generated obstacles: fixed, so every layout has the
# same 22 edges and sight-line cost varies with placement only.
CLUTTERED_VERTICES = (3, 4, 5, 6, 4)
# random_60x50 spends 3-4 s per refine iteration in rescue sweeps; one
# iteration keeps a pass near 8 s.
CLUTTERED_MAX_ITERATIONS = 1
# Obstacles keep this clearance from the boundary and from each other, so no
# lattice candidate is walled into a pocket that sees no event mass.
CLEARANCE = 2.0


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload pass."""

    kind: str  # "greedy" | "bounds" | "sweep" | "gga"
    scenario: str  # scenario name, the key into Workload.files
    argv: tuple[str, ...]  # arguments after the subcommand, without --scenario/--out


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict[str, Path]  # scenario name -> JSON file the CLI reads
    ops: tuple[Op, ...]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def sweep_spec(seed: int) -> str:
    """``lambda:START:STOP:STEPS`` drawn from the seed, always SWEEP_STEPS values."""
    rng = _rng(seed, 1)
    start = round(float(rng.uniform(0.005, 0.05)), 4)
    stop = round(float(rng.uniform(0.15, 0.5)), 4)
    return f"lambda:{start}:{stop}:{SWEEP_STEPS}"


def open_scenario(seed: int, k: int) -> dict:
    """Obstacle-free 60 x 50 space with a seeded three-bump Gaussian mixture."""
    rng = _rng(seed, 2, k)
    components = [
        {
            "center": [round(float(rng.uniform(8, WIDTH - 8)), 2),
                       round(float(rng.uniform(8, HEIGHT - 8)), 2)],
            "weight": 1.0,
            "sigma": round(float(rng.uniform(5.0, 9.0)), 2),
        }
        for _ in range(3)
    ]
    return {
        "name": f"open_s{seed}_{k}",
        "boundary": BOUNDARY,
        "density": {"type": "gaussian_mixture", "baseline": 0.2, "components": components},
        "team_size": 10,
        "sensor": {"decay": 0.12, "radius": 80.0},
        "refine": {"max_iterations": OPEN_MAX_ITERATIONS},
        "seed": seed,
    }


def convex_obstacles(rng: np.random.Generator, vertices) -> list[list[list[float]]]:
    """Convex polygons with the given vertex counts, inscribed in separated circles.

    Each circle lies CLEARANCE inside the boundary and CLEARANCE away from
    every other circle, so the polygons are disjoint and strictly interior.
    """
    circles: list[tuple[float, float, float]] = []
    while len(circles) < len(vertices):
        r = float(rng.uniform(3.0, 6.0))
        cx = float(rng.uniform(r + CLEARANCE, WIDTH - r - CLEARANCE))
        cy = float(rng.uniform(r + CLEARANCE, HEIGHT - r - CLEARANCE))
        if all(math.hypot(cx - x, cy - y) >= r + q + CLEARANCE for x, y, q in circles):
            circles.append((cx, cy, r))
    polygons = []
    for (cx, cy, r), m in zip(circles, vertices):
        # evenly spaced angles with a seeded jitter and rotation keep every
        # gap below pi, so the circle center stays inside the polygon
        base = np.arange(m) * (2 * math.pi / m)
        angles = float(rng.uniform(0, 2 * math.pi)) + base + rng.uniform(-0.25, 0.25, m) * (
            2 * math.pi / m
        )
        polygons.append(
            [[round(cx + r * math.cos(a), 3), round(cy + r * math.sin(a), 3)] for a in angles]
        )
    return polygons


def cluttered_scenario(seed: int, k: int) -> dict:
    """Uniform-density 60 x 50 space holding seeded disjoint convex obstacles."""
    return {
        "name": f"cluttered_s{seed}_{k}",
        "boundary": BOUNDARY,
        "obstacles": convex_obstacles(_rng(seed, 3, k), CLUTTERED_VERTICES),
        "team_size": 10,
        "sensor": {"decay": 0.02, "radius": 80.0},
        "refine": {"max_iterations": CLUTTERED_MAX_ITERATIONS},
        "seed": seed,
    }


def bundled_path(name: str) -> Path:
    from coverplan.scenario import bundled_scenario_path

    return bundled_scenario_path(name)


def scenario_dicts(workload: str, seed: int) -> dict[str, dict]:
    """The scenarios a refine workload runs, by name, as JSON-shaped dicts."""
    if workload == "refine_open":
        return {d["name"]: d for d in (open_scenario(seed, k) for k in range(OPEN_INSTANCES))}
    if workload == "refine_cluttered":
        rnd = json.loads(bundled_path("random_60x50").read_text())
        rnd["refine"] = dict(rnd.get("refine", {}), max_iterations=CLUTTERED_MAX_ITERATIONS)
        out = {rnd["name"]: rnd}
        for k in range(CLUTTERED_LAYOUTS):
            d = cluttered_scenario(seed, k)
            out[d["name"]] = d
        return out
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, directory: Path) -> Workload:
    """Write the workload's scenario files under ``directory`` and list its commands."""
    if workload == "certify":
        # the bundled files themselves, exactly as users run them
        files = {name: bundled_path(name) for name in BUNDLED}
        sweep = ("--sweep", sweep_spec(seed))
        ops = tuple(
            Op(kind, name, argv)
            for name in files
            for kind, argv in (("greedy", ()), ("bounds", ()), ("sweep", sweep))
        )
        return Workload(workload, files, ops)
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, data in scenario_dicts(workload, seed).items():
        files[name] = directory / f"{name}.json"
        files[name].write_text(json.dumps(data, indent=1) + "\n")
    return Workload(workload, files, tuple(Op("gga", name, ()) for name in files))
