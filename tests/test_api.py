"""The public surface: what ``coverplan`` exports, and names that are gone."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import coverplan
from coverplan import GreedyResult, Polygon, QuadratureGrid, RefineResult, UniformDensity, geometry
from coverplan.errors import ENVELOPE

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
    assert grid.space is empty_rect and not hasattr(grid, "density")


def test_the_shadow_kernel_is_imported_on_first_use_only():
    # importing the package does not compile ``coverplan.shadows``; the first
    # sight line that an obstacle can block does
    code = (
        "import sys, coverplan as c\n"
        "before = 'coverplan.shadows' in sys.modules\n"
        "space = c.MissionSpace(c.Polygon([(0, 0), (4, 0), (4, 4), (0, 4)]),"
        " [c.Polygon([(1, 1), (3, 1), (3, 3), (1, 3)])])\n"
        "c.line_of_sight_many((0, 0), [(4, 4)], space)\n"
        "print(before, 'coverplan.shadows' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(coverplan.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]


def _bound_text(bound) -> str:
    """A row's bound in the words its errors use: each side a value must keep to."""
    sides = ["finite"] if isinstance(bound.low, float) else []
    if bound.low > -math.inf:
        sides.append(f"{'>' if bound.open_low else '>='} {bound.low!r}")
    if bound.high < math.inf:
        sides.append(f"<= {bound.high!r}")
    return " and ".join(sides)


def test_the_readme_states_the_numeric_envelope_row_for_row():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Numeric envelope", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| ")]
    stated = {cells[0].strip(): [c.strip() for c in cells[1:3]] for cells in rows[1:]}
    assert stated == {name: [_bound_text(b), b.protects] for name, b in ENVELOPE.items()}
