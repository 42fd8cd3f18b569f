import copy
import json
import os
import random
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError
from inspect import signature
from pathlib import Path

import numpy as np
import pytest

import coverplan
import coverplan.cli
from coverplan import (
    InvalidParameterError,
    Scenario,
    ScenarioError,
    SensorModel,
    bundled_scenario_path,
    parse_scenario,
    refine,
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
    assert sc.grid.cell_size == 1.0
    space = sc.build_space()
    grid = sc.build_grid()
    assert grid.cell_count == 200
    cand = sc.build_candidates()
    assert len(cand) > 0
    assert sc.build_sensor().decay == 0.1
    assert sc.refine == {}


def test_bundled_scenarios_parse_and_build():
    for name in ("empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50"):
        sc = parse_scenario(bundled_scenario_path(name))
        assert sc.name == name
        space = sc.build_space()
        grid = sc.build_grid()
        assert grid.cell_count == 3000
        assert sc.team_size == 10
    empty = parse_scenario(bundled_scenario_path("empty_60x50"))
    grid = empty.build_grid()
    assert grid.feasible_count == 3000
    assert len(empty.build_candidates()) == 143


def test_a_scenario_builds_on_the_space_it_keeps_only():
    sc = scenario_from_dict(BASE)
    space = sc.build_space()
    assert sc.build_grid(space) is sc.build_grid()
    assert np.array_equal(sc.build_candidates(space), sc.build_candidates())
    other = scenario_from_dict(BASE).build_space()
    for build in (sc.build_grid, sc.build_candidates):
        with pytest.raises(InvalidParameterError, match="^a scenario builds only on the space"):
            build(other)


def test_the_getters_return_the_kept_objects():
    # any other space raises: test_a_scenario_builds_on_the_space_it_keeps_only
    sc = scenario_from_dict(BASE)
    assert sc.build_space() is sc.grid.space
    assert sc.build_grid() is sc.grid and sc.build_grid(sc.build_space()) is sc.grid
    assert sc.build_sensor() is sc.sensor
    with pytest.raises(FrozenInstanceError):
        sc.team_size = 9


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


def without(key):
    d = variant()
    del d[key]
    return d


def density(**spec):
    return variant(density=spec)


def mixture(**component):
    return density(type="gaussian_mixture",
                   components=[{"center": [4, 4], "weight": 1.0, "sigma": 2.0, **component}])


def table(**spec):
    return density(**{"type": "sampled", "origin": [0, 0], "spacing": 10.0,
                      "values": [[1.0, 1.0]], **spec})


TYPES = "must be one of ['gaussian_mixture', 'sampled', 'uniform']"
LONG = f"integer of more than {sys.get_int_max_str_digits()} digits"  # 10**5000 is longer

# every raise ScenarioError in scenario validation: (input, message, field)
ERROR_SITES = [
    pytest.param([BASE], "scenario root must be an object", None, id="root-not-object"),
    pytest.param(variant(colour="red"), "unknown field", "colour", id="top-unknown"),
    pytest.param(without("boundary"), "missing required field 'boundary'", "boundary",
                 id="missing-boundary"),
    pytest.param(without("team_size"), "missing required field 'team_size'", "team_size",
                 id="missing-team_size"),
    pytest.param(without("sensor"), "missing required field 'sensor'", "sensor",
                 id="missing-sensor"),
    pytest.param(variant(name=7), "expected a string", "name", id="name-not-string"),
    pytest.param(variant(boundary=[[0, 0], [1, 0]]),
                 "expected a list of at least 3 [x, y] vertices", "boundary",
                 id="boundary-two-vertices"),
    pytest.param(variant(boundary={"x": 0}),
                 "expected a list of at least 3 [x, y] vertices", "boundary",
                 id="boundary-not-list"),
    pytest.param(variant(boundary=[[0, 0], [1, 0], ["x", 1]]), "expected a number, got 'x'",
                 "boundary[2][0]", id="boundary-vertex-not-number"),
    pytest.param(variant(boundary=[[0, 0], [1], [0, 1]]), "expected an [x, y] pair",
                 "boundary[1]", id="boundary-vertex-not-pair"),
    pytest.param(variant(obstacles={}), "expected a list of polygons", "obstacles",
                 id="obstacles-not-list"),
    pytest.param(variant(obstacles=[[[1, 1], [2, 1], [2, 2]], [[1, 1], [2, 1]]]),
                 "expected a list of at least 3 [x, y] vertices", "obstacles[1]",
                 id="obstacle-two-vertices"),
    pytest.param(variant(density=[]), "expected an object", "density", id="density-not-object"),
    pytest.param(density(value=1.0), "missing required field 'type'", "density",
                 id="density-missing-type"),
    pytest.param(density(type="fractal"), f"{TYPES}, got 'fractal'", "density.type",
                 id="density-unknown-type"),
    pytest.param(density(type=["uniform"]), f"{TYPES}, got ['uniform']", "density.type",
                 id="density-list-type"),
    pytest.param(density(type={}), f"{TYPES}, got {{}}", "density.type",
                 id="density-object-type"),
    pytest.param(density(type="uniform", baseline=1.0), "unknown field", "density.baseline",
                 id="uniform-unknown"),
    pytest.param(density(type="uniform", value=-1), "must be >= 0.0, got -1", "density.value",
                 id="uniform-negative"),
    pytest.param(density(type="uniform", value=float("inf")), "must be finite, got inf",
                 "density.value", id="uniform-infinite"),
    pytest.param(density(type="uniform", value=10**400), f"must be finite, got {10**400}",
                 "density.value", id="uniform-past-float-range"),
    pytest.param(density(type="uniform", value="1"), "expected a number, got '1'",
                 "density.value", id="uniform-string"),
    pytest.param(density(type="gaussian_mixture", baseline=-0.5, components=[]),
                 "must be >= 0.0, got -0.5", "density.baseline", id="mixture-negative-baseline"),
    pytest.param(density(type="gaussian_mixture"), "expected a non-empty list",
                 "density.components", id="mixture-missing-components"),
    pytest.param(density(type="gaussian_mixture", components=[]), "expected a non-empty list",
                 "density.components", id="mixture-no-components"),
    pytest.param(density(type="gaussian_mixture", components=[[4, 4]]), "expected an object",
                 "density.components[0]", id="component-not-object"),
    pytest.param(mixture(height=3), "unknown field", "density.components[0].height",
                 id="component-unknown"),
    pytest.param(density(type="gaussian_mixture", components=[{"center": [4, 4], "weight": 1}]),
                 "missing required field 'sigma'", "density.components[0]",
                 id="component-missing-sigma"),
    pytest.param(density(type="gaussian_mixture", components=[{"weight": 1, "sigma": 2}]),
                 "missing required field 'center'", "density.components[0]",
                 id="component-missing-center"),
    pytest.param(mixture(center=[4, 4, 4]), "expected an [x, y] pair",
                 "density.components[0].center", id="component-center-not-pair"),
    pytest.param(mixture(weight=-1), "must be >= 0.0, got -1", "density.components[0].weight",
                 id="component-negative-weight"),
    pytest.param(mixture(sigma=0), "must be > 0.0, got 0", "density.components[0].sigma",
                 id="component-zero-sigma"),
    pytest.param(mixture(center=[4, -1e300]),
                 "mixture center coordinates must be >= -1e+150, got -1e+300",
                 "density", id="component-center-too-far"),
    pytest.param(density(type="uniform", value=1e308),
                 "event mass on cells of size 1.0 is not finite", "density",
                 id="uniform-mass-not-finite"),
    pytest.param(mixture(weight=1e308),
                 "event mass on cells of size 1.0 is not finite", "density",
                 id="mixture-mass-not-finite"),
    pytest.param(table(scale=2), "unknown field", "density.scale", id="sampled-unknown"),
    pytest.param(density(type="sampled", origin=[0, 0], values=[[1.0]]),
                 "missing required field 'spacing'", "density", id="sampled-missing-spacing"),
    pytest.param(density(type="sampled", spacing=1.0, values=[[1.0]]),
                 "missing required field 'origin'", "density", id="sampled-missing-origin"),
    pytest.param(table(origin=0), "expected an [x, y] pair", "density.origin",
                 id="sampled-origin-not-pair"),
    pytest.param(table(spacing=0), "must be > 0.0, got 0", "density.spacing",
                 id="sampled-zero-spacing"),
    pytest.param(table(values=[1.0, 1.0]), "expected a 2-d list of numbers", "density.values",
                 id="sampled-values-1d"),
    pytest.param(table(values=[]), "expected a 2-d list of numbers", "density.values",
                 id="sampled-values-empty"),
    pytest.param(table(values=[[1.0, 1.0], [1.0]]), "rows must have equal length",
                 "density.values[1]", id="sampled-values-ragged"),
    pytest.param(table(values=[[1.0, 1.0], 1.0]), "rows must have equal length",
                 "density.values[1]", id="sampled-values-row-not-list"),
    pytest.param(table(values=[[], []]), "values must be a non-empty 2-d table",
                 "density.values", id="sampled-values-empty-rows"),
    pytest.param(table(values=[[1.0, -2]]), "must be >= 0.0, got -2", "density.values[0][1]",
                 id="sampled-negative-value"),
    pytest.param(variant(grid_cell_size=0), "must be > 0.0, got 0", "grid_cell_size",
                 id="grid_cell_size-zero"),
    pytest.param(variant(candidate_spacing="5"), "expected a number, got '5'",
                 "candidate_spacing", id="candidate_spacing-string"),
    pytest.param(variant(team_size=0), "must be >= 1, got 0", "team_size", id="team_size-zero"),
    pytest.param(variant(team_size=2.5), "expected an integer, got 2.5", "team_size",
                 id="team_size-float"),
    pytest.param(variant(team_size=10**400), f"must be <= 2147483647, got {10**400}",
                 "team_size", id="team_size-past-float"),
    pytest.param(variant(team_size=True), "expected an integer, got True", "team_size",
                 id="team_size-bool"),
    pytest.param(variant(team_size=10**5000),
                 f"must be <= 2147483647, got an {LONG}", "team_size",
                 id="team_size-too-long-to-print"),
    pytest.param(variant(sensor=[0.1, 3.0]), "expected an object", "sensor",
                 id="sensor-not-object"),
    pytest.param(variant(sensor={"decay": 0.1, "radius": 3.0, "range": 9}), "unknown field",
                 "sensor.range", id="sensor-unknown"),
    pytest.param(variant(sensor={"radius": 3.0}), "missing required field 'decay'", "sensor",
                 id="sensor-missing-decay"),
    pytest.param(variant(sensor={"decay": 0.1}), "missing required field 'radius'", "sensor",
                 id="sensor-missing-radius"),
    pytest.param(variant(sensor={}), "missing required field 'decay'", "sensor",
                 id="sensor-empty"),
    pytest.param(variant(sensor={"decay": -0.1, "radius": 3.0}), "must be >= 0.0, got -0.1",
                 "sensor.decay", id="sensor-negative-decay"),
    pytest.param(variant(sensor={"decay": 0.1, "radius": 0}), "must be > 0.0, got 0",
                 "sensor.radius", id="sensor-zero-radius"),
    pytest.param(variant(sensor={"decay": 1e308, "radius": 3.0}),
                 "must be <= 1e+150, got 1e+308", "sensor.decay",
                 id="sensor-decay-too-large"),
    pytest.param(variant(refine=[]), "expected an object", "refine", id="refine-not-object"),
    pytest.param(variant(refine={"max_iterations": 0}), "must be >= 1, got 0",
                 "refine.max_iterations", id="refine-zero-iterations"),
    pytest.param(variant(seed=-1), "must be >= 0, got -1", "seed", id="seed-negative"),
    pytest.param(variant(seed=-10**5000),
                 f"must be >= 0, got a negative {LONG}", "seed",
                 id="seed-too-long-to-print"),
    # a wrong-typed value holding an int too long to print reads by its type
    pytest.param(variant(team_size=[10**5000]),
                 f"expected an integer, got a list holding an {LONG}", "team_size",
                 id="team_size-list-too-long-to-print"),
    pytest.param(variant(seed=[10**5000]), f"expected an integer, got a list holding an {LONG}",
                 "seed", id="seed-list-too-long-to-print"),
    pytest.param(variant(grid_cell_size=[-10**5000]),
                 f"expected a number, got a list holding an {LONG}", "grid_cell_size",
                 id="grid_cell_size-list-too-long-to-print"),
    pytest.param(density(type=[10**5000]), f"{TYPES}, got a list holding an {LONG}",
                 "density.type", id="density-type-too-long-to-print"),
    pytest.param(variant(sensor={"decay": [10**5000], "radius": 3.0}),
                 f"expected a number, got a list holding an {LONG}", "sensor.decay",
                 id="sensor-decay-list-too-long-to-print"),
    pytest.param(variant(boundary=[[0, 0], [20, [10**5000]], [20, 10], [0, 10]]),
                 f"expected a number, got a list holding an {LONG}", "boundary[1][1]",
                 id="boundary-vertex-too-long-to-print"),
    pytest.param(variant(boundary=[[0, 0], [4, 0], [4, 4], [0, 4]],
                         obstacles=[[[0.05, 0.05], [3.95, 0.05], [3.95, 3.95], [0.05, 3.95]]]),
                 "no feasible grid cell; space is fully blocked", None, id="fully-blocked"),
    pytest.param(variant(boundary=[[0, 0], [1e300, 0], [20, 10], [0, 10]]),
                 "polygon vertex coordinates must be <= 1e+150, got 1e+300",
                 "boundary", id="boundary-too-far"),
    pytest.param(variant(obstacles=[[[1e300, 3], [8, 3], [8, 7], [5, 7]]]),
                 "polygon vertex coordinates must be <= 1e+150, got 1e+300",
                 "obstacles[0]", id="obstacle-too-far"),
]


@pytest.mark.parametrize("data, message, field", ERROR_SITES)
def test_every_scenario_error_site(data, message, field):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    assert str(info.value) == (f"{field}: {message}" if field else message)
    assert info.value.field == field


@pytest.mark.parametrize("key", ["value", "baseline"])
@pytest.mark.parametrize("big", [2**64, 10**20], ids=["2**64", "10**20"])
def test_an_integer_density_number_is_taken_as_its_float(key, big):
    spec = {"type": "uniform"} if key == "value" else {
        "type": "gaussian_mixture", "components": [{"center": [4, 4], "weight": 1, "sigma": 2}]
    }
    as_int = scenario_from_dict(variant(density={**spec, key: big}))
    as_float = scenario_from_dict(variant(density={**spec, key: float(big)}))
    mass = [sc.build_grid().total_mass() for sc in (as_int, as_float)]
    assert mass[0] == mass[1] > 0


def test_a_missing_sensor_field_is_named_the_same_under_every_hash_seed(tmp_path):
    path = tmp_path / "sensorless.json"
    path.write_text(json.dumps(variant(sensor={})))
    src = str(Path(coverplan.__file__).parents[1])
    errors = set()
    for hash_seed in ("0", "1"):  # the two orders a set of both names can take
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-m", "coverplan.cli", "greedy", "--scenario", str(path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert run.returncode == 2
        errors.add(run.stderr)
    assert errors == {"error: sensor: missing required field 'decay'\n"}


NASTY = [None, True, 0, -1, 2.5, 1e300, 1e308, 1e-320, 10**20, 2**63, 10**400, float("nan"),
         "x", "uniform", [], {}, [1, 2], [[]], [[0, 0], [1, 0], [0, 1]], {"type": ["uniform"]},
         {"decay": 0.1}]
RICH = variant(
    obstacles=[[[5, 3], [8, 3], [8, 7], [5, 7]]],
    density={"type": "gaussian_mixture", "baseline": 0.5,
             "components": [{"center": [4, 4], "weight": 2, "sigma": 3.0}]},
    refine={"max_iterations": 5},
    seed=3,
)
TABLE = table(values=[[1.0, 2], [0, 3.0]])


def _nodes(node) -> list:
    """Every object and list inside ``node``, ``node`` first."""
    if not isinstance(node, (dict, list)):
        return []
    inner = node.values() if isinstance(node, dict) else node
    return [node, *(n for value in inner for n in _nodes(value))]


def mutated(rng, count):
    """``count`` copies of the sample scenarios, each with 1-3 values set, added or removed."""
    for _ in range(count):
        data = copy.deepcopy(rng.choice([BASE, RICH, TABLE]))
        for _ in range(rng.randint(1, 3)):
            node = rng.choice(_nodes(data))
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            nasty = copy.deepcopy(rng.choice(NASTY))
            if not keys or rng.random() < 0.1:  # add a value
                if isinstance(node, dict):
                    node["extra"] = nasty
                else:
                    node.append(nasty)
            elif rng.random() < 0.2:  # remove one
                del node[rng.choice(keys)]
            else:  # replace one
                node[rng.choice(keys)] = nasty
        yield data


def test_a_mutated_scenario_is_accepted_or_a_scenario_error():
    # Numbers near 1e300 once overflowed the float arithmetic of geometry and
    # density; every warning is recorded here, so none may appear.
    accepted = 0
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for data in mutated(random.Random(0), 2000):
            try:
                scenario_from_dict(data)
                accepted += 1
            except ScenarioError:
                pass
    assert 0 < accepted < 2000
    assert [str(w.message) for w in seen] == []


# the envelope's corners: past a bound, subnormal, and past the float range
CORNERS = [1e300, 1e-320, 10**400]
CORNERED = ["decay", "radius", "density", "team_size", "grid_cell_size"]


def _cornered(data, rng):
    """``data`` with an envelope corner set in one of the fields of ``CORNERED``."""
    corner, where = rng.choice(CORNERS), rng.choice(CORNERED)
    if where == "density":
        data["density"] = rng.choice([
            {"type": "uniform", "value": corner},
            {"type": "sampled", "origin": [0, 0], "spacing": 10.0,
             "values": [[1.0, corner], [0, 3.0]]},
            {"type": "gaussian_mixture",
             "components": [{"center": [4, 4], "weight": corner, "sigma": 2.0}]},
        ])
    elif where not in ("decay", "radius"):
        data[where] = corner
    elif isinstance(data.get("sensor"), dict):
        data["sensor"][where] = corner
    return data


def test_a_mutated_scenario_runs_every_command_or_exits_2(tmp_path, capsys):
    # A 1e300 event mass once overflowed refine's gradient norm: gga warned and
    # went on.  pyproject turns a RuntimeWarning into an error, which exits 1.
    rng = random.Random(0)
    path, out = tmp_path / "case.json", tmp_path / "out"
    commands = [["greedy", "--out", str(out)], ["bounds"],
                ["sweep", "--sweep", "lambda:0.05:0.5:3"], ["gga"],
                ["evaluate", "--positions-file", str(out / "greedy_positions.csv")]]
    failures, codes = [], []
    for k, data in enumerate(mutated(rng, 300)):
        if k % 2:  # every other case keeps a sample scenario's other fields valid
            data = copy.deepcopy(rng.choice([BASE, RICH, TABLE]))
        data = _cornered(data, rng)
        data["refine"] = {"max_iterations": 2}  # bounds the stage's time
        path.write_text(json.dumps(data))
        (out / "greedy_positions.csv").unlink(missing_ok=True)
        for argv in commands:
            if argv[0] == "evaluate" and not (out / "greedy_positions.csv").exists():
                continue
            code = coverplan.cli.main([*argv, "--scenario", str(path)])
            codes.append(code)
            err = capsys.readouterr().err
            if code not in (0, 2):
                failures.append((k, argv[0], code, err, data))
    assert failures == []
    assert 0 < codes.count(0) < len(codes)


@pytest.mark.parametrize(
    "data, mass",
    [
        pytest.param(mixture(center=[3.5, 5.5], weight=2, sigma=1e-200), 2.0,
                     id="sigma-squared-underflows"),
        pytest.param(mixture(center=[3.5, 5.5], weight=2, sigma=1e300), 400.0,
                     id="sigma-squared-overflows"),
        pytest.param(table(spacing=1e-320, values=[[1.0, 2.0], [3.0, 4.0]]), 800.0,
                     id="spacing-quotients-overflow"),
        pytest.param(variant(sensor={"decay": 1e150, "radius": 3.0}), 200.0,
                     id="decay-at-its-bound"),
    ],
)
def test_extreme_valid_numbers_build_without_a_warning(data, mass):
    # each once warned of an overflow or a division by zero
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        sc = scenario_from_dict(data)
        assert sc.build_grid().total_mass() == mass
    assert [str(w.message) for w in seen] == []


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


def test_parse_reports_file_problems(tmp_path):
    with pytest.raises(ScenarioError, match="missing.json"):
        parse_scenario(tmp_path / "missing.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="broken.json"):
        parse_scenario(bad)


@pytest.mark.parametrize(
    "text", [b"\xff\xfe{}", b"{\"seed\": " + b"1" * 5000 + b"}", b"[" * 100_000],
    ids=["not-utf-8", "integer-too-long", "nested-too-deep"],
)
def test_parse_reports_text_it_cannot_load(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    with pytest.raises(ScenarioError, match=f"^malformed JSON in {bad}: "):
        parse_scenario(bad)


def test_with_overrides():
    data = variant()
    out = scenario_from_dict(data, team_size=5, decay=0.7, radius=9.0, grid_cell_size=2.0)
    assert out.team_size == 5
    assert out.sensor == SensorModel(decay=0.7, radius=9.0)
    assert out.grid.cell_size == 2.0
    # untouched fields survive, None is a no-op
    base = scenario_from_dict(BASE).grid.space.boundary.vertices
    assert np.array_equal(out.grid.space.boundary.vertices, base)
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
    grid = flat.build_grid()
    assert grid.total_mass() == pytest.approx(400.0)
    table = scenario_from_dict(
        variant(density={"type": "sampled", "origin": [0, 0], "spacing": 10.0,
                         "values": [[1.0, 1.0], [1.0, 1.0]]})
    )
    grid = table.build_grid()
    assert grid.total_mass() == pytest.approx(200.0)
    with pytest.raises(ScenarioError, match="density.type"):
        scenario_from_dict(variant(density={"type": "fractal"}))


@pytest.mark.parametrize("bad", ["a", None, float("nan")])
def test_sampled_origin_must_be_numbers(bad):
    spec = {"type": "sampled", "origin": [bad, 0], "spacing": 10.0, "values": [[1.0]]}
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(variant(density=spec))
    assert info.value.field == "density.origin[0]"
