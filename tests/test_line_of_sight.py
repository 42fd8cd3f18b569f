"""The stacked sight-line kernel against the per-polygon reference it replaced.

Every mask must match the reference bit for bit: on the bundled scenarios, on
a non-convex boundary holding obstacles, on random spaces with sources
snapped to vertices and edges, and across interleaved target sets, so the
target-side memo kept on the mission space is never stale.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coverplan import (
    MissionSpace,
    Polygon,
    QuadratureGrid,
    UniformDensity,
    bundled_scenario_path,
    candidate_lattice,
    is_visible,
    line_of_sight_many,
    parse_scenario,
    project_feasible,
)

from coverplan.geometry import _excursions

from conftest import random_space
from los_reference import _segment_excursion, reference_line_of_sight_many

BUNDLED = ("empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50")


def u_space():
    """A U-shaped boundary (notch from above) holding a square and a triangle."""
    return MissionSpace(
        Polygon([(0, 0), (30, 0), (30, 20), (20, 20), (20, 8), (10, 8), (10, 20), (0, 20)]),
        [Polygon([(2, 2), (6, 2), (6, 6), (2, 6)]), Polygon([(22, 10), (27, 12), (24, 16)])],
    )


def ring_points(space):
    """Every ring vertex and every edge midpoint of the space."""
    polys = [space.boundary] + space.obstacles
    verts = np.concatenate([p.vertices for p in polys])
    mids = np.concatenate([0.5 * (a + b) for a, b in (p.edges for p in polys)])
    return np.concatenate([verts, mids])


def projected_points(space, count, seed):
    """Random points around the space, projected onto its feasible region."""
    rng = np.random.default_rng(seed)
    xmin, ymin, xmax, ymax = space.bbox
    pts = rng.uniform((xmin - 1, ymin - 1), (xmax + 1, ymax + 1), size=(count, 2))
    return np.array([project_feasible(p, space) for p in pts])


def assert_matches_reference(sources, targets, space):
    for src in sources:
        want = reference_line_of_sight_many(src, targets, space)
        got = line_of_sight_many(src, targets, space)
        assert np.array_equal(got, want), f"source ({src[0]!r}, {src[1]!r})"


@pytest.mark.parametrize("name", BUNDLED)
def test_matches_reference_on_bundled_scenarios(name):
    sc = parse_scenario(bundled_scenario_path(name))
    space = sc.build_space()
    grid = sc.build_grid(space)
    sources = np.concatenate(
        [sc.build_candidates(space)[::2], ring_points(space), projected_points(space, 8, 1)]
    )
    assert_matches_reference(sources, grid.centers, space)


def test_matches_reference_on_nonconvex_boundary_with_obstacles():
    space = u_space()
    grid = QuadratureGrid(space, 0.5, UniformDensity())
    sources = np.concatenate(
        [candidate_lattice(space, 2.0), ring_points(space), projected_points(space, 20, 2)]
    )
    assert_matches_reference(sources, grid.centers, space)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    snap=st.sampled_from(["vertex", "edge", "free"]),
    frac=st.floats(0.0, 1.0),
)
def test_matches_reference_on_random_spaces(seed, snap, frac):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    polys = [space.boundary] + space.obstacles
    a, b = polys[int(rng.integers(len(polys)))].edges
    k = int(rng.integers(len(a)))
    if snap == "vertex":
        src = a[k]
    elif snap == "edge":
        src = a[k] + frac * (b[k] - a[k])
    else:
        src = projected_points(space, 1, seed)[0]
    grid = QuadratureGrid(space, 1.0, UniformDensity())
    on_edges = np.concatenate([a + t * (b - a) for t in (0.25, 0.5)])
    targets = np.concatenate([grid.centers, ring_points(space), on_edges, src[None, :]])
    assert_matches_reference([src], targets, space)


def test_memo_follows_the_target_set():
    space = u_space()
    grid = QuadratureGrid(space, 1.0, UniformDensity())
    other = grid.centers[::7] + 0.25
    for src in np.concatenate([ring_points(space)[::3], projected_points(space, 6, 3)]):
        for targets in (grid.centers, other, grid.centers):
            assert_matches_reference([src], targets, space)
        for t in other[:6]:
            want = bool(reference_line_of_sight_many(src, t[None, :], space)[0])
            assert is_visible(src, t, space, radius=1e9) == want
    # the same array object, changed in place, is a new target set
    targets = grid.centers.copy()
    src = np.array([15.0, 4.0])
    line_of_sight_many(src, targets, space)
    targets[:, 1] += 9.0
    assert_matches_reference([src], targets, space)


def test_no_targets():
    mask = line_of_sight_many((15.0, 4.0), np.empty((0, 2)), u_space())
    assert mask.shape == (0,) and mask.dtype == bool


def test_infeasible_source_sees_nothing():
    space = u_space()
    grid = QuadratureGrid(space, 1.0, UniformDensity())
    for src in [(4.0, 4.0), (15.0, 15.0), (-1.0, 3.0)]:  # obstacle, notch, outside
        assert not line_of_sight_many(src, grid.centers, space).any()


def test_sources_on_rings():
    space = u_space()
    grid = QuadratureGrid(space, 0.5, UniformDensity())
    # obstacle vertices, the reflex corners and walls of the notch
    sources = np.array(
        [(2, 2), (6, 6), (22, 10), (24, 16), (10, 8), (20, 8), (15, 8), (20, 14), (10, 19)],
        dtype=float,
    )
    assert_matches_reference(sources, grid.centers, space)
    assert not is_visible((2, 2), (8, 8), space, radius=50)  # diagonal through the square
    assert is_visible((2, 2), (6, 2), space, radius=50)  # slides along its edge
    assert is_visible((2, 2), (0, 2), space, radius=50)
    assert is_visible((10, 8), (15, 4), space, radius=50)
    assert is_visible((10, 8), (5, 15), space, radius=50)
    assert not is_visible((10, 8), (25, 15), space, radius=50)  # crosses the notch


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    snap=st.sampled_from(["vertex", "edge", "free"]),
    nonconvex=st.booleans(),
)
def test_batched_excursions_match_the_scalar_test(seed, snap, nonconvex):
    rng = np.random.default_rng(seed)
    space = u_space() if nonconvex else random_space(rng)
    a, b = space.edges
    k = int(rng.integers(len(a)))
    if snap == "vertex":
        src = a[k]
    elif snap == "edge":
        src = a[k] + rng.uniform() * (b[k] - a[k])
    else:
        src = projected_points(space, 1, seed)[0]
    # ring vertices and edge points (collinear contacts, shared edges), a few
    # free points, and the source itself (a zero-length segment)
    on_edges = a + rng.uniform(size=(len(a), 1)) * (b - a)
    xmin, ymin, xmax, ymax = space.bbox
    free = rng.uniform((xmin, ymin), (xmax, ymax), size=(8, 2))
    targets = np.concatenate([ring_points(space), on_edges, free, src[None, :]])
    for poly, seek_outside in [(space.boundary, True)] + [(o, False) for o in space.obstacles]:
        want = [_segment_excursion(src, t, poly, seek_outside) for t in targets]
        assert _excursions(src, targets, poly, seek_outside).tolist() == want
        assert _excursions(src, targets[:0], poly, seek_outside).shape == (0,)
