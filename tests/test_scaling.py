"""Every stage gives the same answer on a scenario scaled by a power of two.

Scaling lengths by s = 2^k and the decay by 1/s leaves every detection
probability unchanged to the bit, and multiplies the cell weights by s^2
exactly.  So greedy picks, curvature bounds and refine's whole trajectory
must match the unscaled run: positions times s, objective values times s^2,
gradient norms times s, and the same counts.
"""

import functools
import json

import numpy as np
import pytest

from coverplan import (
    bound_report,
    bundled_scenario_path,
    detection_matrix,
    greedy_place,
    refine,
    scenario_from_dict,
)

BUNDLED = ["empty_60x50", "maze_60x50", "random_60x50", "rooms_60x50", "wall_60x50"]
FACTORS = [2.0**-4, 2.0**4]


def scaled(data, s):
    """A copy of a uniform-density scenario dict with every length times s."""
    assert data.get("density", {"type": "uniform"})["type"] == "uniform"

    def ring(pts):
        return [[s * x, s * y] for x, y in pts]

    return {
        **data,
        "boundary": ring(data["boundary"]),
        "obstacles": [ring(o) for o in data.get("obstacles", [])],
        "grid_cell_size": s * data.get("grid_cell_size", 1.0),
        "candidate_spacing": s * data.get("candidate_spacing", 5.0),
        "sensor": {"decay": data["sensor"]["decay"] / s, "radius": s * data["sensor"]["radius"]},
    }


@functools.lru_cache(maxsize=None)
def _run(name, s):
    """Greedy, both bound reports and refine on a bundled scenario scaled by s."""
    data = json.loads(bundled_scenario_path(name).read_text())
    sc = scenario_from_dict(scaled(data, s))
    space, grid, sensor = sc.build_space(), sc.build_grid(), sc.build_sensor()
    cand = sc.build_candidates()
    seed = greedy_place(space, grid, sensor, cand, sc.team_size)
    probs = detection_matrix(cand, space, grid.centers, sensor)
    reports = [bound_report(probs, grid, sc.team_size, d).as_dict() for d in ("feasible", "omega")]
    result = refine(seed.positions, space, grid, sensor, **sc.refine)
    return cand, grid, seed, reports, result


def _same_bits(a, b):
    assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("s", FACTORS)
@pytest.mark.parametrize("name", BUNDLED)
def test_greedy_and_bounds_are_scale_equivariant(name, s):
    cand, grid, seed, reports, _ = _run(name, 1.0)
    cand_s, grid_s, seed_s, reports_s, _ = _run(name, s)
    assert len(cand_s) == len(cand)
    assert int(np.sum(grid_s.feasible)) == int(np.sum(grid.feasible))
    assert (seed_s.indices, seed_s.evaluations) == (seed.indices, seed.evaluations)
    _same_bits(seed_s.value / s**2, seed.value)
    assert reports_s == reports


@pytest.mark.parametrize("s", FACTORS)
@pytest.mark.parametrize("name", BUNDLED)
def test_refine_is_scale_equivariant(name, s):
    want = _run(name, 1.0)[-1]
    got = _run(name, s)[-1]
    counts = ("reason", "rows", "halvings", "rescues", "forfeits")
    assert [getattr(got, c) for c in counts] == [getattr(want, c) for c in counts]
    assert [st.iteration for st in got.steps] == [st.iteration for st in want.steps]
    for a, b in zip(got.steps, want.steps):
        _same_bits(a.positions / s, b.positions)
        _same_bits(a.value / s**2, b.value)
        _same_bits(a.grad_norms / s, b.grad_norms)
