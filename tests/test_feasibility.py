"""Stacked feasibility and edge projection against the per-polygon code they replaced.

``MissionSpace.feasible_many`` decides every ring in one parity pass and
measures point-to-edge distances only where they can change the answer;
``project_feasible`` projects onto every stacked edge at once.  Both must
match the one-polygon-at-a-time references bit for bit, on vertices, on
edges, within a few EPS of edges and far away.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coverplan import (
    MissionSpace,
    Polygon,
    bundled_scenario_path,
    parse_scenario,
    project_feasible,
)
from coverplan import geometry
from coverplan.geometry import EPS, closest_point_on_segment

from problems import random_space
from los_reference import reference_feasible_many
from test_line_of_sight import BUNDLED, u_space

LSHAPE = MissionSpace(Polygon([(0, 0), (20, 0), (20, 5), (10, 5), (10, 10), (0, 10)]))
# normal offsets from an edge, in units of EPS: on it, inside the tolerance, past it
OFFSETS = np.array([-3.0, -1.0001, -1.0, -0.9999, -0.5, 0.0, 0.5, 0.9999, 1.0, 1.0001, 3.0])


def probe_points(space, rng, count):
    """Ring vertices, then points on edges, within a few EPS of edges, and far away."""
    a, b = space.edges
    k = rng.integers(len(a), size=count)
    on = a[k] + rng.uniform(size=(count, 1)) * (b[k] - a[k])
    ab = b[k] - a[k]
    normal = np.column_stack([-ab[:, 1], ab[:, 0]]) / np.linalg.norm(ab, axis=1)[:, None]
    near = on + normal * (EPS * rng.choice(OFFSETS, size=(count, 1)))
    xmin, ymin, xmax, ymax = space.bbox
    far = rng.uniform((xmin - 5, ymin - 5), (xmax + 5, ymax + 5), size=(count, 2))
    return np.concatenate([a, on, near, far])


def assert_feasible_matches(space, pts):
    want = reference_feasible_many(space, pts)
    got = space.feasible_many(pts)
    assert got.dtype == bool and got.shape == (len(pts),)
    assert np.array_equal(got, want)


def per_edge_closest(p, a, b):
    """The scalar projection onto one segment that closest_point_on_segment broadcasts."""
    ab = b - a
    denom = float(ab @ ab)
    if denom <= EPS * EPS:
        return a.copy()
    t = float((p - a) @ ab) / denom
    t = min(1.0, max(0.0, t))
    return a + t * ab


def per_edge_projection(p, space):
    """The per-edge loop project_feasible replaced: strict < keeps the first closest edge."""
    pt = np.asarray(p, dtype=float)
    if reference_feasible_many(space, pt)[0]:
        return pt.copy()
    best = None
    best_d2 = np.inf
    for poly in [space.boundary] + space.obstacles:
        a, b = poly.edges
        for i in range(len(a)):
            q = per_edge_closest(pt, a[i], b[i])
            d2 = float((q - pt) @ (q - pt))
            if d2 < best_d2 and reference_feasible_many(space, q)[0]:
                best = q
                best_d2 = d2
    return best


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), f"{got!r} != {want!r}"


@pytest.mark.parametrize("name", BUNDLED)
def test_feasible_many_matches_reference_on_bundled_scenarios(name):
    space = parse_scenario(bundled_scenario_path(name)).build_space()
    pts = probe_points(space, np.random.default_rng(7), 400)
    assert_feasible_matches(space, pts)
    for p in pts[::17]:  # T = 1, the shape of every sight-line source test
        assert_feasible_matches(space, p[None, :])


@pytest.mark.parametrize("space", [u_space(), LSHAPE], ids=["u_space", "lshape"])
def test_feasible_many_matches_reference_on_nonconvex_boundaries(space):
    pts = probe_points(space, np.random.default_rng(8), 400)
    assert_feasible_matches(space, pts)
    for p in pts[::11]:
        assert_feasible_matches(space, p[None, :])
    assert_feasible_matches(space, np.empty((0, 2)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    with_obstacle=st.booleans(),
    count=st.integers(0, 30),
)
def test_feasible_many_matches_reference_on_random_spaces(seed, with_obstacle, count):
    rng = np.random.default_rng(seed)
    space = random_space(rng, with_obstacle)
    pts = probe_points(space, rng, count)
    assert_feasible_matches(space, pts)
    assert_feasible_matches(space, pts[rng.permutation(len(pts))[:1]])
    assert_feasible_matches(space, pts[:0])


def test_only_suspect_pairs_are_measured(one_block, monkeypatch):
    measured = []
    touches = geometry._Rings.touches

    def spy(self, k, pts):
        measured.append(len(k))
        return touches(self, k, pts)

    monkeypatch.setattr(geometry._Rings, "touches", spy)
    # interior points outside the obstacle: parity decides them, no distance is taken
    interior = np.array([(1.0, 1.0), (15.0, 9.0), (4.0, 5.0), (19.5, 0.5)])
    assert one_block.feasible_many(interior).all()
    assert measured == []
    # one pair per point outside the boundary or inside the obstacle by parity
    # (the half-open rule puts the corner (20, 10) outside and the vertex (8, 3) inside)
    pts = np.array([(-1.0, 5.0), (10.0, 5.0), (12.0, 5.0), (5.0, 5.0), (20.0, 10.0), (8.0, 3.0)])
    want = reference_feasible_many(one_block, pts)
    assert np.array_equal(one_block.feasible_many(pts), want)
    assert measured == [4]


def test_closest_point_broadcasts_the_scalar_projection():
    rng = np.random.default_rng(3)
    a = rng.uniform(-5, 5, size=(200, 2))
    b = a + rng.normal(size=(200, 2)) * rng.choice([1e-12, 1e-3, 1.0, 10.0], size=(200, 1))
    p = rng.uniform(-8, 8, size=2)
    got = closest_point_on_segment(p, a, b)
    want = np.array([per_edge_closest(p, a[i], b[i]) for i in range(len(a))])
    assert_bitwise(got, want)
    for i in range(5):
        assert_bitwise(closest_point_on_segment(p, a[i], b[i]), want[i])


@pytest.mark.parametrize("name", BUNDLED)
def test_projection_matches_per_edge_loop_on_bundled_scenarios(name):
    space = parse_scenario(bundled_scenario_path(name)).build_space()
    pts = probe_points(space, np.random.default_rng(9), 60)
    for p in pts:
        assert_bitwise(project_feasible(p, space), per_edge_projection(p, space))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), nonconvex=st.booleans())
def test_projection_matches_per_edge_loop_on_random_spaces(seed, nonconvex):
    rng = np.random.default_rng(seed)
    space = u_space() if nonconvex else random_space(rng)
    for p in probe_points(space, rng, 6):
        assert_bitwise(project_feasible(p, space), per_edge_projection(p, space))


def test_projection_ties_go_to_the_first_edge(one_block):
    # the obstacle's center is 2 from each of its four edges; its edge 0 is the bottom one
    tied = [
        ((10.0, 5.0), (10.0, 3.0)),
        ((10.0, 4.0), (10.0, 3.0)),  # bottom alone is closest
        ((11.0, 5.0), (12.0, 5.0)),  # right alone is closest
        ((-1.0, -1.0), (0.0, 0.0)),  # two boundary edges meet at the corner
    ]
    for p, want in tied:
        got = project_feasible(p, one_block)
        assert_bitwise(got, per_edge_projection(p, one_block))
        assert got.tolist() == list(want)
    slab = MissionSpace(
        Polygon([(0, 0), (20, 0), (20, 10), (0, 10)]),
        [Polygon([(4, 4), (16, 4), (16, 6), (4, 6)])],
    )
    for x in (6.0, 10.0, 14.0):  # on the midline: the bottom edge beats the top one
        got = project_feasible((x, 5.0), slab)
        assert_bitwise(got, per_edge_projection((x, 5.0), slab))
        assert got.tolist() == [x, 4.0]
