"""The public surface: what ``coverplan`` exports, and names that are gone."""

import dataclasses

import coverplan
from coverplan import GreedyResult, Polygon, QuadratureGrid, RefineResult, UniformDensity, geometry

REMOVED = ("Point", "is_visible", "visible_many", "point_in_polygon", "segments_intersect")


def test_every_exported_name_resolves():
    for name in coverplan.__all__:
        assert hasattr(coverplan, name), name
    namespace = {}
    exec("from coverplan import *", namespace)
    assert set(coverplan.__all__) <= set(namespace)


def test_removed_names_stay_removed(empty_rect):
    for name in REMOVED:
        assert name not in coverplan.__all__
        assert not hasattr(geometry, name)
    assert not hasattr(Polygon, "contains") and not hasattr(Polygon, "strictly_contains")
    assert "method" not in {f.name for f in dataclasses.fields(GreedyResult)}
    assert not hasattr(RefineResult, "initial_value")
    grid = QuadratureGrid(empty_rect, 2.0, UniformDensity())
    assert not hasattr(grid, "space") and not hasattr(grid, "density")
