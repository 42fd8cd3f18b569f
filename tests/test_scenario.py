import json
from inspect import signature

import numpy as np
import pytest

from coverplan import (
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    parse_scenario,
    refine,
    save_scenario,
    scenario_from_dict,
)

BASE = {
    "name": "unit",
    "boundary": [[0, 0], [20, 0], [20, 10], [0, 10]],
    "team_size": 3,
    "sensor": {"decay": 0.1, "radius": 30.0},
}


def variant(**changes):
    d = json.loads(json.dumps(BASE))
    d.update(changes)
    return d


def test_minimal_scenario_builds():
    sc = scenario_from_dict(BASE)
    assert sc.team_size == 3
    assert sc.grid_cell_size == 1.0
    space = sc.build_space()
    grid = sc.build_grid(space)
    assert grid.cell_count == 200
    cand = sc.build_candidates(space)
    assert len(cand) > 0
    assert sc.build_sensor().decay == 0.1
    assert sc.refine == {}


def test_bundled_scenarios_parse_and_build():
    for name in ("empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50"):
        sc = parse_scenario(bundled_scenario_path(name))
        assert sc.name == name
        space = sc.build_space()
        grid = sc.build_grid(space)
        assert grid.cell_count == 3000
        assert sc.team_size == 10
    empty = parse_scenario(bundled_scenario_path("empty_60x50"))
    grid = empty.build_grid(empty.build_space())
    assert grid.feasible_count == 3000
    assert len(empty.build_candidates()) == 143


def test_bundled_path_rejects_unknown():
    with pytest.raises(ScenarioError, match="empty_60x50"):
        bundled_scenario_path("atlantis")


def test_unknown_field_rejected_with_path():
    with pytest.raises(ScenarioError, match="sensor.range"):
        scenario_from_dict(variant(sensor={"decay": 0.1, "radius": 3.0, "range": 9}))
    with pytest.raises(ScenarioError, match="colour"):
        scenario_from_dict(variant(colour="red"))


@pytest.mark.parametrize(
    "key, value",
    [("schedule", "sequential"), ("backtracking", False), ("max_halvings", 9),
     ("collision_radius", 1e-6), ("step_scale", 0.25), ("fd_epsilon", 1e-4),
     ("grad_tolerance", 0.5)],
)
def test_removed_refine_keys_are_unknown(key, value):
    with pytest.raises(ScenarioError, match=f"refine.{key}: unknown field"):
        scenario_from_dict(variant(refine={"max_iterations": 5, key: value}))


def test_refine_keys_are_refines_keyword_arguments():
    # a scenario's refine object is passed to refine() as keyword arguments
    params = signature(refine).parameters
    assert {k for k, p in params.items() if p.default is not p.empty} == {"max_iterations"}
    assert params["max_iterations"].default == 500
    options = {"max_iterations": 7}
    assert scenario_from_dict(variant(refine=options)).refine == options


def test_missing_required_fields():
    for field in ("boundary", "team_size", "sensor"):
        d = variant()
        del d[field]
        with pytest.raises(ScenarioError, match=field):
            scenario_from_dict(d)


def test_type_and_range_validation():
    with pytest.raises(ScenarioError):
        scenario_from_dict(variant(team_size=0))
    with pytest.raises(ScenarioError):
        scenario_from_dict(variant(team_size=2.5))
    with pytest.raises(ScenarioError):
        scenario_from_dict(variant(team_size=True))
    with pytest.raises(ScenarioError):
        scenario_from_dict(variant(grid_cell_size=0))
    with pytest.raises(ScenarioError):
        scenario_from_dict(variant(sensor={"decay": -0.1, "radius": 3.0}))
    with pytest.raises(ScenarioError):
        scenario_from_dict(variant(boundary=[[0, 0], [1, 0]]))
    with pytest.raises(ScenarioError, match="boundary"):
        scenario_from_dict(variant(boundary=[[0, 0], [1, 0], ["x", 1]]))


def test_obstacle_errors_name_the_obstacle():
    l_shape = [[0, 0], [12, 0], [12, 6], [6, 6], [6, 12], [0, 12]]
    square = [[1, 1], [3, 1], [3, 3], [1, 3]]
    cases = [
        (variant(obstacles=[[[30, 2], [34, 2], [32, 6]]]),  # pokes outside
         "obstacle 0 has vertex (30, 2) outside the boundary"),
        (variant(boundary=l_shape, obstacles=[[[5, 6], [7, 6], [6, 7]]]),  # through the notch
         "obstacle 0 crosses the boundary (edge 1)"),
        (variant(obstacles=[square, [[2, 2], [4, 2], [4, 4], [2, 4]]]),
         "obstacles 0 and 1 have overlapping interiors"),
    ]
    for bad, message in cases:
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(bad)
        assert str(info.value) == f"obstacles: {message}"
        assert info.value.field == "obstacles"


def test_scenario_needs_a_feasible_cell():
    # obstacle swallows the whole interior
    bad = variant(
        boundary=[[0, 0], [4, 0], [4, 4], [0, 4]],
        obstacles=[[[0.05, 0.05], [3.95, 0.05], [3.95, 3.95], [0.05, 3.95]]],
    )
    with pytest.raises(ScenarioError, match="feasible"):
        scenario_from_dict(bad)


def test_round_trip_identity(tmp_path):
    d = variant(
        obstacles=[[[5, 3], [8, 3], [8, 7], [5, 7]]],
        density={"type": "gaussian_mixture", "baseline": 0.5,
                 "components": [{"center": [4, 4], "weight": 2.0, "sigma": 3.0}]},
        grid_cell_size=0.5,
        candidate_spacing=2.0,
        refine={"max_iterations": 25},
        seed=42,
    )
    sc = scenario_from_dict(d)
    path = tmp_path / "round.json"
    save_scenario(sc, path)
    again = parse_scenario(path)
    assert again == sc
    assert again.to_dict() == sc.to_dict()


def test_parse_reports_file_problems(tmp_path):
    with pytest.raises(ScenarioError, match="missing.json"):
        parse_scenario(tmp_path / "missing.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="broken.json"):
        parse_scenario(bad)


def test_with_overrides():
    data = variant()
    out = scenario_from_dict(data, team_size=5, decay=0.7, radius=9.0, grid_cell_size=2.0)
    assert out.team_size == 5
    assert out.sensor["decay"] == 0.7
    assert out.sensor["radius"] == 9.0
    assert out.grid_cell_size == 2.0
    # untouched fields survive, None is a no-op
    assert out.boundary == scenario_from_dict(BASE).boundary
    assert scenario_from_dict(BASE, team_size=None).team_size == 3
    # the caller's dict is not mutated
    assert data == BASE


@pytest.mark.parametrize(
    "override, path",
    [
        ({"seed": -1}, "seed"),
        ({"team_size": 0}, "team_size"),
        ({"decay": -1.0}, "sensor.decay"),
    ],
)
def test_override_is_validated_as_the_field_it_sets(override, path):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(BASE, **override)
    assert info.value.field == path


def test_geometry_errors_name_the_ring_they_come_from():
    # a ring's own fault names that ring; a fault between rings names the obstacle list
    box = [[0, 0], [20, 0], [20, 20], [0, 20]]
    tri = [[2, 2], [6, 2], [4, 5]]
    cases = [
        ([[0, 0], [20, 0], [20, 0], [0, 20]], [], "boundary"),
        (box, [[[2, 2], [6, 2], [6, 2], [2, 6]]], "obstacles[0]"),
        (box, [tri, [[10, 10], [14, 14], [14, 10], [10, 14]]], "obstacles[1]"),
        (box, [tri, [[18, 18], [24, 18], [18, 24]]], "obstacles"),
    ]
    for boundary, obstacles, path in cases:
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(variant(boundary=boundary, obstacles=obstacles))
        assert info.value.field == path, str(info.value)


def test_density_variants_build():
    flat = scenario_from_dict(variant(density={"type": "uniform", "value": 2.0}))
    grid = flat.build_grid(flat.build_space())
    assert grid.total_mass() == pytest.approx(400.0)
    table = scenario_from_dict(
        variant(density={"type": "sampled", "origin": [0, 0], "spacing": 10.0,
                         "values": [[1.0, 1.0], [1.0, 1.0]]})
    )
    grid = table.build_grid(table.build_space())
    assert grid.total_mass() == pytest.approx(200.0)
    with pytest.raises(ScenarioError, match="density.type"):
        scenario_from_dict(variant(density={"type": "fractal"}))


@pytest.mark.parametrize("bad", ["a", None, float("nan")])
def test_sampled_origin_must_be_numbers(bad):
    spec = {"type": "sampled", "origin": [bad, 0], "spacing": 10.0, "values": [[1.0]]}
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(variant(density=spec))
    assert info.value.field == "density.origin[0]"


def test_scenario_is_plain_data():
    sc = scenario_from_dict(BASE)
    assert isinstance(sc.boundary, tuple)
    with pytest.raises(Exception):
        sc.team_size = 9  # frozen
    json.dumps(sc.to_dict())  # plain JSON-ready data all the way down
