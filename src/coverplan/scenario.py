"""Scenario files: strict JSON loading, validation, and object construction.

A scenario bundles everything one optimization run needs: the mission-space
geometry, the event density, grid and candidate resolutions, the team size,
the sensor parameters, refinement settings, and a seed.  Parsing is strict:
unknown fields and malformed values are rejected with the offending field
path, and the parsed scenario is proven constructible before it is returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CoverplanError, ScenarioError
from .field import (
    GaussianMixtureDensity,
    QuadratureGrid,
    SampledDensity,
    UniformDensity,
    candidate_lattice,
)
from .geometry import MissionSpace, Polygon
from .sensing import SensorModel

_TOP_FIELDS = {
    "name",
    "boundary",
    "obstacles",
    "density",
    "grid_cell_size",
    "candidate_spacing",
    "team_size",
    "sensor",
    "refine",
    "seed",
}
_SENSOR_FIELDS = {"decay", "radius"}
_REFINE_FIELDS = {"max_iterations"}
_DENSITY_TYPES = {"uniform", "gaussian_mixture", "sampled"}


@dataclass(frozen=True)
class Scenario:
    """A fully validated run description, kept as plain JSON-shaped data.

    The space and grid built to prove a scenario constructible are kept on
    the object, so ``build_space`` and ``build_grid`` hand those back instead
    of building them again; they are no part of the data, its equality or
    its JSON form, and live exactly as long as this object.
    """

    boundary: tuple
    team_size: int
    sensor: dict
    name: str = ""
    obstacles: tuple = ()
    density: dict = field(default_factory=lambda: {"type": "uniform", "value": 1.0})
    grid_cell_size: float = 1.0
    candidate_spacing: float = 5.0
    refine: dict = field(default_factory=dict)
    seed: int = 0
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "boundary": [list(v) for v in self.boundary],
            "obstacles": [[list(v) for v in o] for o in self.obstacles],
            "density": dict(self.density),
            "grid_cell_size": self.grid_cell_size,
            "candidate_spacing": self.candidate_spacing,
            "team_size": self.team_size,
            "sensor": dict(self.sensor),
            "refine": dict(self.refine),
            "seed": self.seed,
        }

    # -- construction --------------------------------------------------------

    def build_space(self) -> MissionSpace:
        if "space" not in self._built:
            boundary = _tagged("boundary", Polygon, self.boundary)
            obstacles = [
                _tagged(f"obstacles[{k}]", Polygon, o) for k, o in enumerate(self.obstacles)
            ]
            self._built["space"] = _tagged("obstacles", MissionSpace, boundary, obstacles)
        return self._built["space"]

    def build_density(self):
        return _build_density(self.density)

    def build_grid(self, space: MissionSpace | None = None) -> QuadratureGrid:
        """The kept grid, unless ``space`` is another space than the kept one."""
        if space is not None and space is not self._built.get("space"):
            return self._grid(space)
        if "grid" not in self._built:
            self._built["grid"] = self._grid(self.build_space())
        return self._built["grid"]

    def _grid(self, space: MissionSpace) -> QuadratureGrid:
        density = self.build_density()
        return _tagged("grid_cell_size", QuadratureGrid, space, self.grid_cell_size, density)

    def build_sensor(self) -> SensorModel:
        return SensorModel(decay=float(self.sensor["decay"]), radius=float(self.sensor["radius"]))

    def build_candidates(self, space: MissionSpace | None = None) -> np.ndarray:
        space = space or self.build_space()
        return _tagged("candidate_spacing", candidate_lattice, space, self.candidate_spacing)


def _tagged(path: str, build, *args):
    """``build(*args)``, with a library error reported against the field it came from."""
    try:
        return build(*args)
    except CoverplanError as exc:
        raise ScenarioError(str(exc), field=path) from exc


def _build_density(spec: dict):
    kind = spec["type"]
    if kind == "uniform":
        return UniformDensity(spec.get("value", 1.0))
    if kind == "gaussian_mixture":
        comps = spec["components"]
        return GaussianMixtureDensity(
            centers=[c["center"] for c in comps],
            weights=[c["weight"] for c in comps],
            sigmas=[c["sigma"] for c in comps],
            baseline=spec.get("baseline", 0.0),
        )
    return SampledDensity(spec["origin"], spec["spacing"], spec["values"])


def _want_number(value, path: str, minimum=None, strict_minimum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"expected a number, got {value!r}", field=path)
    v = float(value)
    if not np.isfinite(v):
        raise ScenarioError(f"must be finite, got {value!r}", field=path)
    if minimum is not None and v < minimum:
        raise ScenarioError(f"must be >= {minimum}, got {value!r}", field=path)
    if strict_minimum is not None and v <= strict_minimum:
        raise ScenarioError(f"must be > {strict_minimum}, got {value!r}", field=path)
    return v


def _want_pair(value, path: str) -> None:
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError("expected an [x, y] pair", field=path)
    for i in (0, 1):
        _want_number(value[i], f"{path}[{i}]")


def _want_int(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"expected an integer, got {value!r}", field=path)
    if minimum is not None and value < minimum:
        raise ScenarioError(f"must be >= {minimum}, got {value!r}", field=path)
    return value


def _want_ring(value, path: str) -> tuple:
    if not isinstance(value, list) or len(value) < 3:
        raise ScenarioError("expected a list of at least 3 [x, y] vertices", field=path)
    ring = []
    for i, v in enumerate(value):
        if not isinstance(v, list) or len(v) != 2:
            raise ScenarioError("expected an [x, y] pair", field=f"{path}[{i}]")
        ring.append(
            (
                _want_number(v[0], f"{path}[{i}][0]"),
                _want_number(v[1], f"{path}[{i}][1]"),
            )
        )
    return tuple(ring)


def _check_unknown(data: dict, allowed: set, path: str):
    unknown = set(data) - allowed
    if unknown:
        name = sorted(unknown)[0]
        where = f"{path}.{name}" if path else name
        raise ScenarioError("unknown field", field=where)


def _validate_density(spec, path: str) -> dict:
    if not isinstance(spec, dict):
        raise ScenarioError("expected an object", field=path)
    if "type" not in spec:
        raise ScenarioError("missing required field 'type'", field=path)
    kind = spec["type"]
    if kind not in _DENSITY_TYPES:
        raise ScenarioError(
            f"must be one of {sorted(_DENSITY_TYPES)}, got {kind!r}", field=f"{path}.type"
        )
    if kind == "uniform":
        _check_unknown(spec, {"type", "value"}, path)
        if "value" in spec:
            _want_number(spec["value"], f"{path}.value", minimum=0.0)
    elif kind == "gaussian_mixture":
        _check_unknown(spec, {"type", "baseline", "components"}, path)
        if "baseline" in spec:
            _want_number(spec["baseline"], f"{path}.baseline", minimum=0.0)
        comps = spec.get("components")
        if not isinstance(comps, list) or not comps:
            raise ScenarioError("expected a non-empty list", field=f"{path}.components")
        for i, comp in enumerate(comps):
            cpath = f"{path}.components[{i}]"
            if not isinstance(comp, dict):
                raise ScenarioError("expected an object", field=cpath)
            _check_unknown(comp, {"center", "weight", "sigma"}, cpath)
            for key in ("center", "weight", "sigma"):
                if key not in comp:
                    raise ScenarioError(f"missing required field {key!r}", field=cpath)
            _want_pair(comp["center"], f"{cpath}.center")
            _want_number(comp["weight"], f"{cpath}.weight", minimum=0.0)
            _want_number(comp["sigma"], f"{cpath}.sigma", strict_minimum=0.0)
    else:
        _check_unknown(spec, {"type", "origin", "spacing", "values"}, path)
        for key in ("origin", "spacing", "values"):
            if key not in spec:
                raise ScenarioError(f"missing required field {key!r}", field=path)
        _want_pair(spec["origin"], f"{path}.origin")
        _want_number(spec["spacing"], f"{path}.spacing", strict_minimum=0.0)
        values = spec["values"]
        if not isinstance(values, list) or not values or not isinstance(values[0], list):
            raise ScenarioError("expected a 2-d list of numbers", field=f"{path}.values")
        width = len(values[0])
        for r, rowvals in enumerate(values):
            if not isinstance(rowvals, list) or len(rowvals) != width:
                raise ScenarioError("rows must have equal length", field=f"{path}.values[{r}]")
            for c, entry in enumerate(rowvals):
                _want_number(entry, f"{path}.values[{r}][{c}]", minimum=0.0)
    return dict(spec)


def scenario_from_dict(data: dict, **overrides) -> Scenario:
    """Validate raw JSON data and return a constructible Scenario.

    Each override that is not None replaces the field it names in a copy of
    ``data`` before validation, so it is checked, and its error named, as
    the file's field is.  ``decay`` and ``radius`` name the ``sensor`` fields.
    """
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be an object")
    data = dict(data)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _SENSOR_FIELDS:
            data[key] = value
        elif isinstance(data.get("sensor"), dict):
            data["sensor"] = {**data["sensor"], key: value}
    _check_unknown(data, _TOP_FIELDS, "")
    for key in ("boundary", "team_size", "sensor"):
        if key not in data:
            raise ScenarioError(f"missing required field {key!r}", field=key)

    name = data.get("name", "")
    if not isinstance(name, str):
        raise ScenarioError("expected a string", field="name")
    boundary = _want_ring(data["boundary"], "boundary")
    raw_obstacles = data.get("obstacles", [])
    if not isinstance(raw_obstacles, list):
        raise ScenarioError("expected a list of polygons", field="obstacles")
    obstacles = tuple(
        _want_ring(o, f"obstacles[{k}]") for k, o in enumerate(raw_obstacles)
    )
    density = _validate_density(data.get("density", {"type": "uniform", "value": 1.0}), "density")
    cell = _want_number(data.get("grid_cell_size", 1.0), "grid_cell_size", strict_minimum=0.0)
    spacing = _want_number(
        data.get("candidate_spacing", 5.0), "candidate_spacing", strict_minimum=0.0
    )
    team = _want_int(data["team_size"], "team_size", minimum=1)

    sensor = data["sensor"]
    if not isinstance(sensor, dict):
        raise ScenarioError("expected an object", field="sensor")
    _check_unknown(sensor, _SENSOR_FIELDS, "sensor")
    for key in _SENSOR_FIELDS:
        if key not in sensor:
            raise ScenarioError(f"missing required field {key!r}", field="sensor")
    _want_number(sensor["decay"], "sensor.decay", minimum=0.0)
    _want_number(sensor["radius"], "sensor.radius", strict_minimum=0.0)

    refine = data.get("refine", {})
    if not isinstance(refine, dict):
        raise ScenarioError("expected an object", field="refine")
    _check_unknown(refine, _REFINE_FIELDS, "refine")
    if "max_iterations" in refine:
        _want_int(refine["max_iterations"], "refine.max_iterations", minimum=1)

    seed = _want_int(data.get("seed", 0), "seed", minimum=0)

    scenario = Scenario(
        name=name,
        boundary=boundary,
        obstacles=obstacles,
        density=density,
        grid_cell_size=cell,
        candidate_spacing=spacing,
        team_size=team,
        sensor={"decay": float(sensor["decay"]), "radius": float(sensor["radius"])},
        refine=dict(refine),
        seed=seed,
    )
    # the space and grid built here are kept for the scenario's commands
    if not np.any(scenario.build_grid().feasible):
        raise ScenarioError("no feasible grid cell; space is fully blocked")
    return scenario


def parse_scenario(path, **overrides) -> Scenario:
    """Load and validate a scenario JSON file, with ``scenario_from_dict``'s overrides."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed JSON in {p}: {exc}") from exc
    return scenario_from_dict(data, **overrides)


def save_scenario(scenario: Scenario, path):
    Path(path).write_text(json.dumps(scenario.to_dict(), indent=2) + "\n")


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (name with or without .json)."""
    if not name.endswith(".json"):
        name = name + ".json"
    p = Path(__file__).parent / "scenarios" / name
    if not p.exists():
        available = sorted(q.stem for q in p.parent.glob("*.json"))
        raise ScenarioError(f"no bundled scenario {name!r}; available: {available}")
    return p
