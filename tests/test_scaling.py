"""Every stage gives the same answer on a scenario scaled by a power of two.

Scaling lengths by s = 2^k and the decay by 1/s leaves every detection
probability unchanged to the bit, and multiplies the cell weights by s^2
exactly.  So greedy picks, curvature bounds and refine's whole trajectory
must match the unscaled run: positions times s, objective values times s^2,
gradient norms times s, and the same counts.  Scaling a uniform density by
m = 2^k multiplies the cell weights by m exactly, so greedy, the bounds and
refine must match too, with objective values and gradient norms times m.
"""

import functools
import json
import re

import numpy as np
import pytest

from coverplan import (
    bound_report,
    bundled_scenario_path,
    cli,
    detection_matrix,
    greedy_place,
    refine,
    scenario_from_dict,
)

BUNDLED = ["empty_60x50", "maze_60x50", "random_60x50", "rooms_60x50", "wall_60x50"]
FACTORS = [2.0**-4, 2.0**4]
MASS_FACTORS = [2.0**-50, 2.0**10]


def scaled(data, s, m=1.0):
    """A copy of a uniform-density scenario dict, every length times s and the density times m."""
    density = data.get("density", {"type": "uniform", "value": 1.0})
    assert density["type"] == "uniform"

    def ring(pts):
        return [[s * x, s * y] for x, y in pts]

    return {
        **data,
        "boundary": ring(data["boundary"]),
        "obstacles": [ring(o) for o in data.get("obstacles", [])],
        "grid_cell_size": s * data.get("grid_cell_size", 1.0),
        "candidate_spacing": s * data.get("candidate_spacing", 5.0),
        "sensor": {"decay": data["sensor"]["decay"] / s, "radius": s * data["sensor"]["radius"]},
        "density": {"type": "uniform", "value": m * density["value"]},
    }


@functools.lru_cache(maxsize=None)
def _place(name, s, m=1.0):
    """Scenario, candidates, grid, greedy and bound report, a bundled scenario scaled by s and m."""
    data = json.loads(bundled_scenario_path(name).read_text())
    sc = scenario_from_dict(scaled(data, s, m))
    space, grid, sensor = sc.build_space(), sc.build_grid(), sc.build_sensor()
    cand = sc.build_candidates()
    seed = greedy_place(space, grid, sensor, cand, sc.team_size)
    probs = detection_matrix(cand, space, grid.centers, sensor)
    report = bound_report(probs, grid, sc.team_size).as_dict()
    return sc, cand, grid, seed, report


@functools.lru_cache(maxsize=None)
def _refined(name, s, m=1.0):
    """Refine from greedy's placement on a bundled scenario scaled by s and m."""
    sc, _, grid, seed, _ = _place(name, s, m)
    return refine(seed.positions, grid, sc.sensor, **sc.refine)


def _same_bits(a, b):
    assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("s", FACTORS)
@pytest.mark.parametrize("name", BUNDLED)
def test_greedy_and_bounds_are_scale_equivariant(name, s):
    _, cand, grid, seed, report = _place(name, 1.0)
    _, cand_s, grid_s, seed_s, report_s = _place(name, s)
    assert len(cand_s) == len(cand)
    assert int(np.sum(grid_s.feasible)) == int(np.sum(grid.feasible))
    assert (seed_s.indices, seed_s.evaluations) == (seed.indices, seed.evaluations)
    _same_bits(seed_s.value / s**2, seed.value)
    assert report_s == report


@pytest.mark.parametrize("m", MASS_FACTORS)
@pytest.mark.parametrize("name", BUNDLED)
def test_greedy_and_bounds_are_free_of_the_density_unit(name, m):
    # greedy stops only at a gain of exactly 0, so no unit of event mass is too small
    _, _, _, seed, report = _place(name, 1.0)
    _, _, _, seed_m, report_m = _place(name, 1.0, m)
    assert (seed_m.indices, seed_m.evaluations) == (seed.indices, seed.evaluations)
    _same_bits(np.array(seed_m.values) / m, seed.values)
    assert report_m == report


def _assert_same_refine(name, s, m=1.0):
    """Refine on the scenario scaled by s and m matches the unscaled run, scaled."""
    want = _refined(name, 1.0)
    got = _refined(name, s, m)
    counts = ("reason", "rows", "halvings", "rescues", "forfeits")
    assert [getattr(got, c) for c in counts] == [getattr(want, c) for c in counts]
    assert [st.iteration for st in got.steps] == [st.iteration for st in want.steps]
    for a, b in zip(got.steps, want.steps):
        _same_bits(a.positions / s, b.positions)
        _same_bits(a.value / (s**2 * m), b.value)
        _same_bits(a.grad_norms / (s * m), b.grad_norms)


@pytest.mark.parametrize("s", FACTORS)
@pytest.mark.parametrize("name", BUNDLED)
def test_refine_is_scale_equivariant(name, s):
    _assert_same_refine(name, s)


@pytest.mark.parametrize("m", MASS_FACTORS)
@pytest.mark.parametrize("name", BUNDLED)
def test_refine_is_free_of_the_density_unit(name, m):
    # the stopping tolerance scales with the mean density, as the gradient norms do
    _assert_same_refine(name, 1.0, m)


def test_refine_separates_agents_by_a_fraction_of_a_cell(tmp_path, capsys):
    # at s = 2^-25 greedy's picks lie 5 s apart, under 1e-6: an absolute
    # collision radius took them for one agent and gga exited 2
    s = 2.0**-25
    box = {
        "boundary": [[0, 0], [20, 0], [20, 10], [0, 10]],
        "obstacles": [[[8, 3], [12, 3], [12, 7], [8, 7]]],
        "team_size": 3,
        "sensor": {"decay": 0.15, "radius": 30.0},
        "candidate_spacing": 5.0,
    }
    path = tmp_path / "box.json"
    path.write_text(json.dumps(scaled(box, s)))
    assert cli.main(["gga", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    greedy, refined = (float(v) for v in re.findall(r"coverage: (\S+)", out))
    assert refined >= greedy > 0
