"""The stacked sight-line kernel against the per-polygon reference it replaced.

Every mask must match the reference bit for bit (one pinned case aside, a
source a few EPS from a vertex): on the bundled scenarios, on a non-convex
boundary holding obstacles, around non-convex obstacles (which the kernel
cuts into ears), on obstacles that touch each other or the boundary, on
random spaces with sources snapped to vertices and edges, on rings with
collinear neighbouring edges, for stacks of sources decided in one call, and
across interleaved target sets, so the target-side memo kept on the mission
space is never stale.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from coverplan import (
    GeometryError,
    MissionSpace,
    Polygon,
    QuadratureGrid,
    UniformDensity,
    bundled_scenario_path,
    candidate_lattice,
    line_of_sight_many,
    parse_scenario,
    project_feasible,
)

from coverplan.geometry import EPS, _excursions

from conftest import TOUCHING_LAYOUTS, random_space, sees
from los_reference import _segment_excursion, reference_line_of_sight_many

BUNDLED = ("empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50")


def u_space():
    """A U-shaped boundary (notch from above) holding a square and a triangle."""
    return MissionSpace(
        Polygon([(0, 0), (30, 0), (30, 20), (20, 20), (20, 8), (10, 8), (10, 20), (0, 20)]),
        [Polygon([(2, 2), (6, 2), (6, 6), (2, 6)]), Polygon([(22, 10), (27, 12), (24, 16)])],
    )


def l_space():
    """An L-shaped boundary (top-right quarter missing), no obstacles."""
    return MissionSpace(Polygon([(0, 0), (20, 0), (20, 5), (10, 5), (10, 10), (0, 10)]))


L_OBSTACLE = [(4, 4), (12, 4), (12, 7), (7, 7), (7, 14), (4, 14)]
U_OBSTACLE = [(16, 4), (26, 4), (26, 16), (23, 16), (23, 8), (19, 8), (19, 16), (16, 16)]


def nonconvex_obstacle_space(boundary):
    """An L-shaped and a U-shaped obstacle, in a rectangle or in the U-shaped boundary."""
    if boundary == "rectangle":
        return MissionSpace(
            Polygon([(0, 0), (30, 0), (30, 20), (0, 20)]),
            [Polygon(L_OBSTACLE), Polygon(U_OBSTACLE)],
        )
    return MissionSpace(
        u_space().boundary,
        [
            Polygon([(1, 10), (8, 10), (8, 12), (3, 12), (3, 18), (1, 18)]),
            Polygon([(12, 1), (18, 1), (18, 6), (16, 6), (16, 3), (14, 3), (14, 6), (12, 6)]),
        ],
    )


def star_space(rng):
    """A rectangle holding one random star-shaped obstacle, on a quarter-unit lattice."""
    w, h = float(rng.uniform(14, 22)), float(rng.uniform(10, 16))
    m = int(rng.integers(4, 10))
    angles = (np.arange(m) + rng.uniform(-0.3, 0.3, m)) * (2 * np.pi / m) + rng.uniform(0, 6.3)
    radii = rng.uniform(1.5, 0.5 * min(w, h) - 1.0, m)
    ring = np.array([0.5 * w, 0.5 * h]) + radii[:, None] * np.c_[np.cos(angles), np.sin(angles)]
    ring = np.round(4 * ring) / 4
    try:
        return MissionSpace(Polygon([(0, 0), (w, 0), (w, h), (0, h)]), [Polygon(ring)])
    except GeometryError:  # rounding folded the ring
        return None


def collinear_space():
    """A notched boundary and an obstacle whose rings hold collinear neighbouring edges."""
    return MissionSpace(
        Polygon(
            [(0, 0), (5, 0), (10, 0), (10, 4), (12, 4), (14, 4), (14, 0), (20, 0),
             (20, 10), (15, 10), (10, 10), (0, 10), (0, 5)]
        ),
        [Polygon([(3, 6), (5, 6), (7, 6), (7, 8), (5, 8), (3, 8), (3, 7)])],
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
            assert sees(src, t, space) == want
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
    assert not sees((2, 2), (8, 8), space)  # diagonal through the square
    assert sees((2, 2), (6, 2), space)  # slides along its edge
    assert sees((2, 2), (0, 2), space)
    assert sees((10, 8), (15, 4), space)
    assert sees((10, 8), (5, 15), space)
    assert not sees((10, 8), (25, 15), space)  # crosses the notch


@pytest.mark.parametrize("boundary", ["rectangle", "u_space"])
def test_matches_reference_around_nonconvex_obstacles(boundary):
    space = nonconvex_obstacle_space(boundary)
    grid = QuadratureGrid(space, 1.0, UniformDensity())
    ring = ring_points(space)
    sources = np.concatenate(
        [candidate_lattice(space, 3.0), ring, projected_points(space, 20, 4)]
    )
    assert_matches_reference(sources, np.concatenate([grid.centers, ring]), space)


def test_nonconvex_obstacles_block_only_through_their_interiors():
    space = nonconvex_obstacle_space("rectangle")
    assert sees((21, 18), (21, 9), space)  # down into the U's slot
    assert not sees((21, 18), (21, 2), space)  # on through its floor
    assert sees((10, 10), (10, 16), space)  # inside the L's elbow
    assert not sees((10, 10), (2, 10), space)  # through the L's upright
    assert not sees((4, 14), (7, 7), space)  # the L's diagonal runs inside it
    assert sees((7, 14), (12, 7), space)  # across the elbow's mouth


@pytest.mark.parametrize("case", sorted(TOUCHING_LAYOUTS))
def test_matches_reference_on_touching_obstacles(case):
    boundary, obstacles = TOUCHING_LAYOUTS[case]
    space = MissionSpace(Polygon(boundary), [Polygon(o) for o in obstacles])
    grid = QuadratureGrid(space, 0.5, UniformDensity())
    ring = ring_points(space)
    sources = np.concatenate([ring, projected_points(space, 10, 5)])
    assert_matches_reference(sources, np.concatenate([grid.centers, ring]), space)


def test_shared_edge_blocks_only_across_it():
    boundary, obstacles = TOUCHING_LAYOUTS["shared full edge"]
    space = MissionSpace(Polygon(boundary), [Polygon(o) for o in obstacles])
    assert sees((4, 0), (4, 6), space)  # along the shared edge
    assert sees((4, 1), (4, 4), space)
    assert not sees((0.5, 2), (8, 2), space)  # through both squares
    assert not sees((4, 1), (7, 4), space)  # from the shared edge into the right square


def star_case(seed, snap, frac):
    """A star-shaped space, a source snapped to a vertex, an edge or nowhere, and targets."""
    rng = np.random.default_rng(seed)
    space = star_space(rng)
    if space is None:
        return None
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
    return space, src, targets


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    snap=st.sampled_from(["vertex", "edge", "free"]),
    frac=st.floats(0.0, 1.0),
)
def test_matches_reference_around_star_shaped_obstacles(seed, snap, frac):
    case = star_case(seed, snap, frac)
    assume(case is not None)
    space, src, targets = case
    # the EPS contract: a source lies on a ring vertex or well away from it;
    # the two tests below pin sources in between
    vertices = np.concatenate([p.vertices for p in [space.boundary] + space.obstacles])
    gap = np.hypot(*(vertices - src).T).min()
    assume(gap <= EPS or gap >= 1e-6)
    assert_matches_reference([src, space.obstacles[0].vertices[0]], targets, space)


def test_a_ring_decides_its_own_points_for_a_source_a_few_eps_from_a_vertex():
    # the source lies 2.7e-9 from a vertex of the star, on one of its edges;
    # the ear at that vertex would hide points of the next edge
    space, src, targets = star_case(632739, "edge", 1e-9)
    assert_matches_reference([src], targets, space)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="outside the EPS contract: see the precondition in the los_reference docstring",
)
def test_a_source_a_few_eps_from_a_vertex_can_disagree_with_the_reference():
    # 4.5e-9 from a vertex, neither on it within EPS nor well apart from it:
    # a grid center on the line of the edge at that vertex is blocked by the
    # shadow test and cleared by the reference's per-edge test
    space, src, targets = star_case(500, "edge", 1e-9)
    assert_matches_reference([src], targets, space)


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
    # one source per row: this one and a second, random ring vertex
    sources = np.stack([src, a[int(rng.integers(len(a)))]])
    p = np.repeat(sources, len(targets), axis=0)
    q = np.tile(targets, (len(sources), 1))
    for poly, seek_outside in [(space.boundary, True)] + [(o, False) for o in space.obstacles]:
        want = [_segment_excursion(s, t, poly, seek_outside) for s, t in zip(p, q)]
        assert _excursions(p, q, poly, seek_outside).tolist() == want
        assert _excursions(p[:0], q[:0], poly, seek_outside).shape == (0,)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["random", "random_open", "u", "l"]),
    k=st.integers(0, 6),
    no_targets=st.booleans(),
)
def test_stacked_rows_match_reference(seed, shape, k, no_targets):
    rng = np.random.default_rng(seed)
    space = {
        "random": lambda: random_space(rng),
        "random_open": lambda: random_space(rng, with_obstacle=False),
        "u": u_space,
        "l": l_space,
    }[shape]()
    a, b = space.edges
    xmin, ymin, xmax, ymax = space.bbox
    infeasible = [(xmin - 1.0, 0.5 * (ymin + ymax)), (15.0, 15.0)]  # outside; the U's notch
    infeasible += [obs.vertices.mean(axis=0) for obs in space.obstacles]
    pool = np.concatenate(
        [a, a + rng.uniform(size=(len(a), 1)) * (b - a), projected_points(space, 4, seed),
         np.array(infeasible)]
    )
    sources = pool[rng.integers(len(pool), size=k)]
    if k >= 2:
        sources[-1] = sources[0]  # a duplicate source
    grid = QuadratureGrid(space, 1.0, UniformDensity())
    targets = np.concatenate([grid.centers, ring_points(space)])[: 0 if no_targets else None]
    got = line_of_sight_many(sources, targets, space)
    assert got.shape == (k, len(targets)) and got.dtype == bool
    for row, src in zip(got, sources):
        assert np.array_equal(row, reference_line_of_sight_many(src, targets, space))
        assert np.array_equal(row, line_of_sight_many(src, targets, space))


def test_stack_shapes():
    space = u_space()
    targets = QuadratureGrid(space, 1.0, UniformDensity()).centers
    one = np.array([15.0, 4.0])
    assert line_of_sight_many(one, targets, space).shape == (len(targets),)
    assert line_of_sight_many(one[None, :], targets, space).shape == (1, len(targets))
    assert line_of_sight_many(np.empty((0, 2)), targets, space).shape == (0, len(targets))
    assert line_of_sight_many([(15.0, 4.0), (4.0, 4.0)], targets[:0], space).shape == (2, 0)
    both = line_of_sight_many([(15.0, 4.0), (4.0, 4.0)], targets, space)
    assert np.array_equal(both[0], line_of_sight_many(one, targets, space))
    assert not both[1].any()  # inside the square obstacle
    assert np.array_equal(line_of_sight_many((15.0, 4.0), targets, space), both[0])
    assert np.array_equal(line_of_sight_many([(15.0, 4.0)], targets, space), both[:1])
    with pytest.raises(GeometryError):
        line_of_sight_many([(15.0, 4.0), (4.0,)], targets, space)


def test_collinear_neighbouring_edges_match_reference():
    # sight lines sliding along runs of collinear edges, from and to the
    # vertices that split them: the kernel takes no contact from a parallel
    # edge, the reference collects its endpoints, and the two must agree
    space = collinear_space()
    grid = QuadratureGrid(space, 0.5, UniformDensity())
    ring = ring_points(space)
    assert_matches_reference(ring, np.concatenate([grid.centers, ring]), space)
    pts = np.concatenate([ring, [(2.0, 0.0), (16.0, 0.0), (11.0, 4.0), (0.0, 8.0), (4.0, 6.0)]])
    p = np.repeat(pts, len(pts), axis=0)
    q = np.tile(pts, (len(pts), 1))
    for poly, seek_outside in [(space.boundary, True), (space.obstacles[0], False)]:
        want = [_segment_excursion(s, t, poly, seek_outside) for s, t in zip(p, q)]
        assert _excursions(p, q, poly, seek_outside).tolist() == want


def test_a_ring_decides_sight_lines_between_its_own_points():
    # a source on the block's bottom edge, 1.5e-9 from its corner: the
    # block's shadow hides the left edge behind that corner, but a target on
    # the ring the source lies on is left to that ring's exact test
    space = MissionSpace(
        Polygon([(0, 0), (20, 0), (20, 10), (0, 10)]),
        [Polygon([(8, 3), (12, 3), (12, 7), (8, 7)])],
    )
    src = np.array([8 + 1.5e-9, 3.0])
    targets = np.array([(8, 4), (8, 5), (8, 7), (9, 3), (10, 7), (12, 5)], dtype=float)
    assert_matches_reference([src], targets, space)
    assert line_of_sight_many(src, targets, space).tolist() == [True] * 4 + [False] * 2


def test_boundary_whose_only_reflex_turn_is_below_eps():
    # a reflex turn within EPS of straight is straight, so the ring is
    # convex and no sight line leaves it
    boundary = Polygon([(0, 0), (10, 0), (10, 5), (5, 5 - 1e-11), (0, 5)])
    assert boundary.is_convex
    space = MissionSpace(boundary)
    targets = np.concatenate([QuadratureGrid(space, 0.5, UniformDensity()).centers, ring_points(space)])
    sources = np.concatenate([ring_points(space), [(1.0, 1.0), (9.0, 4.0)]])
    assert_matches_reference(sources, targets, space)
    assert line_of_sight_many(sources, targets, space).all()


@pytest.mark.parametrize("s, d", [(1.0, 5e-3), (1e-5, 5e-8)])
def test_a_notch_50_eps_deep_is_reflex_at_any_scale(s, d):
    # the notch's turn is d in length units at both scales, so the verdicts
    # cannot depend on s: the boundary blocks, and an obstacle edge that
    # leaves it across the notch is rejected
    boundary = Polygon([(0, 0), (s, 0), (s, s), (s / 2, s - d), (0, s)])
    assert not boundary.is_convex
    space = MissionSpace(boundary)
    src, tgt = np.array([[0.05 * s, s - 0.1 * d]]), np.array([[0.95 * s, s - 0.1 * d]])
    assert_matches_reference(src, tgt, space)
    assert not line_of_sight_many(src, tgt, space).any()
    top = s - 0.8 * d
    with pytest.raises(GeometryError, match="obstacle 0 crosses the boundary"):
        MissionSpace(boundary, [Polygon([(0.7 * s, top), (0.5 * s, 0.5 * s), (0.3 * s, top)])])


def test_a_block_found_by_the_exact_test_survives_later_rings():
    # the diagonal through the square touches it only at vertices, so only
    # the exact test sees it pass through the interior; the same line then
    # grazes the triangle's apex, which the exact test of that ring clears
    space = MissionSpace(
        Polygon([(0, 0), (12, 0), (12, 12), (0, 12)]),
        [Polygon([(5, 5), (7, 5), (7, 7), (5, 7)]), Polygon([(8.5, 8.5), (9.5, 8), (9, 7)])],
    )
    sources = np.array([[1.0, 1.0], [2.0, 2.0], [8.0, 8.0]])
    targets = np.array([[9.9, 9.9], [10.5, 10.5], [3.0, 3.0]])
    assert_matches_reference(sources, targets, space)
    assert line_of_sight_many(sources, targets, space).tolist() == [
        [False, False, True],
        [False, False, True],
        [True, True, False],
    ]
