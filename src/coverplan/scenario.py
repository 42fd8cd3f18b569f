"""Scenario files: strict JSON loading, validation, and object construction.

A scenario bundles everything one optimization run needs: the mission-space
geometry, the event density, grid and candidate resolutions, the team size,
the sensor parameters, refinement settings, and a seed.  Parsing is strict:
unknown fields and malformed values are rejected with the offending field
path, and the parsed scenario is proven constructible before it is returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .errors import CoverplanError, InfiniteMassError, InvalidParameterError, ScenarioError
from .field import (
    GaussianMixtureDensity,
    QuadratureGrid,
    SampledDensity,
    UniformDensity,
    candidate_lattice,
)
from .geometry import MissionSpace, Polygon
from .sensing import SensorModel

_SENSOR_FIELDS = ("decay", "radius")

# The largest team a scenario may ask for: the curvature bounds take it as a float.
MAX_TEAM_SIZE = 2**31 - 1


@dataclass(frozen=True)
class Scenario:
    """A fully validated run description, kept as plain JSON-shaped data.

    The density builder, space and grid made while proving a scenario
    constructible are kept on the object, so ``build_space`` and
    ``build_grid`` hand those back instead of building them again; they are
    no part of the data, its equality or its JSON form, and live exactly as
    long as this object.
    """

    name: str
    boundary: tuple
    obstacles: tuple
    density: dict
    grid_cell_size: float
    candidate_spacing: float
    team_size: int
    sensor: dict
    refine: dict
    seed: int
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
        if "density" not in self._built:
            self._built["density"] = _density(self.density, "density")
        return self._built["density"]()

    def build_grid(self, space: MissionSpace | None = None) -> QuadratureGrid:
        """The kept grid, on the kept space."""
        space = self._kept_space(space)
        if "grid" not in self._built:
            density = self.build_density()
            try:
                self._built["grid"] = QuadratureGrid(space, self.grid_cell_size, density)
            except CoverplanError as exc:
                field = "density" if isinstance(exc, InfiniteMassError) else "grid_cell_size"
                raise ScenarioError(str(exc), field=field) from exc
        return self._built["grid"]

    def build_sensor(self) -> SensorModel:
        return SensorModel(decay=float(self.sensor["decay"]), radius=float(self.sensor["radius"]))

    def build_candidates(self, space: MissionSpace | None = None) -> np.ndarray:
        """The candidate lattice on the kept space."""
        space = self._kept_space(space)
        return _tagged("candidate_spacing", candidate_lattice, space, self.candidate_spacing)

    def _kept_space(self, space) -> MissionSpace:
        """The kept space; ``space``, which ``perfbench`` still passes, may only be that space."""
        kept = self.build_space()
        if space is not None and space is not kept:
            raise InvalidParameterError("a scenario builds only on the space it keeps")
        return kept


_TOP_FIELDS = {f.name for f in fields(Scenario) if f.init}  # the JSON fields


def _tagged(path: str, build, *args):
    """``build(*args)``, with a library error reported against the field it came from."""
    try:
        return build(*args)
    except CoverplanError as exc:
        raise ScenarioError(str(exc), field=path) from exc


def _want_object(value, path: str, allowed, required=()) -> dict:
    """``value`` if it is an object with no field outside ``allowed`` and every ``required`` one."""
    if not isinstance(value, dict):
        raise ScenarioError("expected an object", field=path)
    unknown = set(value) - set(allowed)
    if unknown:
        name = sorted(unknown)[0]
        raise ScenarioError("unknown field", field=f"{path}.{name}" if path else name)
    for key in required:
        if key not in value:
            raise ScenarioError(f"missing required field {key!r}", field=path or key)
    return value


def _want_number(value, path: str, minimum=None, strict_minimum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"expected a number, got {value!r}", field=path)
    try:
        v = float(value)
    except OverflowError:  # an integer past the float range
        v = np.inf
    if not np.isfinite(v):
        raise ScenarioError(f"must be finite, got {value!r}", field=path)
    if minimum is not None and v < minimum:
        raise ScenarioError(f"must be >= {minimum}, got {value!r}", field=path)
    if strict_minimum is not None and v <= strict_minimum:
        raise ScenarioError(f"must be > {strict_minimum}, got {value!r}", field=path)
    return v


def _want_int(value, path: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"expected an integer, got {value!r}", field=path)
    if minimum is not None and value < minimum:
        raise ScenarioError(f"must be >= {minimum}, got {value!r}", field=path)
    if maximum is not None and value > maximum:
        raise ScenarioError(f"must be <= {maximum}, got {value!r}", field=path)
    return value


def _want_pair(value, path: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError("expected an [x, y] pair", field=path)
    return tuple(_want_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _want_ring(value, path: str) -> tuple:
    if not isinstance(value, list) or len(value) < 3:
        raise ScenarioError("expected a list of at least 3 [x, y] vertices", field=path)
    return tuple(_want_pair(v, f"{path}[{i}]") for i, v in enumerate(value))


# Each density kind validates its spec and returns a builder of the density,
# so a table that the density class rejects fails where the grid is built.


def _uniform(spec: dict, path: str):
    _want_object(spec, path, {"type", "value"})
    value = _want_number(spec.get("value", 1.0), f"{path}.value", minimum=0.0)
    return partial(UniformDensity, value)


def _gaussian_mixture(spec: dict, path: str):
    _want_object(spec, path, {"type", "baseline", "components"})
    baseline = _want_number(spec.get("baseline", 0.0), f"{path}.baseline", minimum=0.0)
    comps = spec.get("components")
    if not isinstance(comps, list) or not comps:
        raise ScenarioError("expected a non-empty list", field=f"{path}.components")
    centers, weights, sigmas = [], [], []
    keys = ("center", "weight", "sigma")
    for i, comp in enumerate(comps):
        cpath = f"{path}.components[{i}]"
        _want_object(comp, cpath, keys, keys)
        centers.append(_want_pair(comp["center"], f"{cpath}.center"))
        weights.append(_want_number(comp["weight"], f"{cpath}.weight", minimum=0.0))
        sigmas.append(_want_number(comp["sigma"], f"{cpath}.sigma", strict_minimum=0.0))
    return partial(_tagged, path, GaussianMixtureDensity, centers, weights, sigmas, baseline)


def _sampled(spec: dict, path: str):
    keys = ("origin", "spacing", "values")
    _want_object(spec, path, {"type", *keys}, keys)
    origin = _want_pair(spec["origin"], f"{path}.origin")
    spacing = _want_number(spec["spacing"], f"{path}.spacing", strict_minimum=0.0)
    values = spec["values"]
    if not isinstance(values, list) or not values or not isinstance(values[0], list):
        raise ScenarioError("expected a 2-d list of numbers", field=f"{path}.values")
    table = []
    for r, row in enumerate(values):
        if not isinstance(row, list) or len(row) != len(values[0]):
            raise ScenarioError("rows must have equal length", field=f"{path}.values[{r}]")
        table.append(
            [_want_number(v, f"{path}.values[{r}][{c}]", minimum=0.0) for c, v in enumerate(row)]
        )
    return partial(_tagged, f"{path}.values", SampledDensity, origin, spacing, table)


_DENSITIES = {"gaussian_mixture": _gaussian_mixture, "sampled": _sampled, "uniform": _uniform}


def _density(spec, path: str):
    _want_object(spec, path, spec, ("type",))  # its kind decides the other fields
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _DENSITIES:
        message = f"must be one of {sorted(_DENSITIES)}, got {kind!r}"
        raise ScenarioError(message, field=f"{path}.type")
    return _DENSITIES[kind](spec, path)


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
    _want_object(data, "", _TOP_FIELDS, ("boundary", "team_size", "sensor"))

    name = data.get("name", "")
    if not isinstance(name, str):
        raise ScenarioError("expected a string", field="name")
    boundary = _want_ring(data["boundary"], "boundary")
    obstacles = data.get("obstacles", [])
    if not isinstance(obstacles, list):
        raise ScenarioError("expected a list of polygons", field="obstacles")
    obstacles = tuple(_want_ring(o, f"obstacles[{k}]") for k, o in enumerate(obstacles))
    density = data.get("density", {"type": "uniform", "value": 1.0})
    make_density = _density(density, "density")
    cell = _want_number(data.get("grid_cell_size", 1.0), "grid_cell_size", strict_minimum=0.0)
    spacing = _want_number(
        data.get("candidate_spacing", 5.0), "candidate_spacing", strict_minimum=0.0
    )
    team = _want_int(data["team_size"], "team_size", minimum=1, maximum=MAX_TEAM_SIZE)
    sensor = _want_object(data["sensor"], "sensor", _SENSOR_FIELDS, _SENSOR_FIELDS)
    sensor = {
        "decay": _want_number(sensor["decay"], "sensor.decay", minimum=0.0),
        "radius": _want_number(sensor["radius"], "sensor.radius", strict_minimum=0.0),
    }
    _tagged("sensor.decay", SensorModel, sensor["decay"], sensor["radius"])  # bounds the decay
    refine = _want_object(data.get("refine", {}), "refine", {"max_iterations"})
    if "max_iterations" in refine:
        _want_int(refine["max_iterations"], "refine.max_iterations", minimum=1)
    seed = _want_int(data.get("seed", 0), "seed", minimum=0)

    scenario = Scenario(
        name, boundary, obstacles, dict(density), cell, spacing, team, sensor, dict(refine), seed
    )
    scenario._built["density"] = make_density
    # the space and grid built here are kept for the scenario's commands
    if not np.any(scenario.build_grid().feasible):
        raise ScenarioError("no feasible grid cell; space is fully blocked")
    return scenario


def parse_scenario(path, **overrides) -> Scenario:
    """Load and validate a scenario JSON file, with ``scenario_from_dict``'s overrides."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also not UTF-8, or too long or deep to load
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
