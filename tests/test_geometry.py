import importlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coverplan import GeometryError, MissionSpace, Polygon, geometry, is_feasible
from coverplan.scenario import bundled_scenario_path, parse_scenario, scenario_from_dict
from coverplan.geometry import EPS, closest_point_on_segment, line_of_sight_many

from los_reference import reference_line_of_sight_many
from problems import TOUCHING_LAYOUTS, sees
from validation_reference import validate_reference


def winding_inside(p, verts):
    """Signed-angle winding test, the independent containment oracle."""
    total = 0.0
    n = len(verts)
    for i in range(n):
        a = verts[i] - p
        b = verts[(i + 1) % n] - p
        total += np.arctan2(a[0] * b[1] - a[1] * b[0], a @ b)
    return abs(total) > np.pi


CONVEX = [(0, 0), (10, 0), (13, 6), (5, 11), (-2, 5)]
CONCAVE = [(0, 0), (12, 0), (12, 9), (7, 9), (7, 4), (4, 4), (4, 9), (0, 9)]


def test_polygon_area_and_convexity():
    square = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    assert square.area == pytest.approx(16.0)
    assert square.is_convex
    concave = Polygon(CONCAVE)
    assert not concave.is_convex
    assert concave.area == pytest.approx(12 * 9 - 3 * 5)


def error_text(build, *args) -> str:
    with pytest.raises(GeometryError) as info:
        build(*args)
    return str(info.value)


def test_polygon_rejects_bad_rings():
    assert error_text(Polygon, [(0, 0), (1, 0)]) == "polygon needs at least 3 vertices, got 2"
    # coordinates past 1e150 would overflow the squares of their differences
    for far in (1.0000000000000002e150, -1e300, np.inf, np.nan):
        assert (
            error_text(Polygon, [(0, 0), (4, 0), (far, 3)])
            == "polygon vertex coordinates must be finite and at most 1e+150 in magnitude"
        )
    assert Polygon([(-1e150, -1e150), (1e150, -1e150), (0, 1e150)]).area == pytest.approx(2e300)
    assert (
        error_text(Polygon, [(0, 0), (4, 0), (4, 0), (0, 4)])
        == "polygon has a zero-length edge (repeated vertex)"
    )
    # a sliver whose short edges fall under EPS is caught as a repeated vertex
    assert (
        error_text(Polygon, [(0, 0), (6, 0), (6, 1e-15), (0, 1e-15)])
        == "polygon has a zero-length edge (repeated vertex)"
    )
    # jittered collinear points whose computed area is exactly 0
    sliver = [(16.0000000005, 16.0000000001), (16.000000001, 15.99999999), (15.9999999995, 16.0)]
    assert error_text(Polygon, sliver) == "polygon has zero area"
    # the area rule is relative to the longest edge, so small triangles pass
    for s in (1e-6, 2**-20):
        assert Polygon([(0, 0), (s, 0), (0, s)]).area == 0.5 * s * s
    # a spur folds back along an edge
    assert (
        error_text(Polygon, [(0, 0), (4, 0), (2, 0), (2, 4)])
        == "polygon folds back on itself at vertex (4, 0)"
    )
    assert (
        error_text(Polygon, [(0, 0), (4, 4), (4, 0), (0, 4)])  # bowtie
        == "polygon is self-intersecting (edges 0 and 2 touch)"
    )


def test_polygon_accepts_explicitly_closed_ring():
    ring = [(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)]
    assert len(Polygon(ring).vertices) == 4
    assert len(Polygon(ring[:-1] + [(0, 0.5 * EPS)]).vertices) == 4


def test_far_from_origin_ring_keeps_every_vertex():
    # a relative closeness test would take the last vertex, 3 units from the
    # first, for a closing copy of it
    ring = [(500000, 4000000), (500060, 4000000), (500060, 4000050), (500003, 4000020)]
    assert np.array_equal(Polygon(ring).vertices, np.array(ring, dtype=float))


@pytest.mark.parametrize("verts", [CONVEX, CONCAVE])
def test_containment_matches_winding_oracle(verts):
    poly = Polygon(verts)
    v = poly.vertices
    xmin, ymin, xmax, ymax = poly.bbox
    rng = np.random.default_rng(7)
    pts = rng.uniform((xmin - 2, ymin - 2), (xmax + 2, ymax + 2), size=(10_000, 2))
    near_boundary = poly.on_boundary_many(pts, tol=1e-7)
    got = poly.contains_many(pts)
    for p, near, g in zip(pts, near_boundary, got):
        if near:
            continue  # oracle is ambiguous on the boundary itself
        assert g == winding_inside(p, v)


def test_boundary_points_count_as_inside():
    poly = Polygon(CONCAVE)
    # vertices, edge midpoints, and a point on the reentrant edge
    a, b = poly.edges
    mids = 0.5 * (a + b)
    assert poly.contains_many(poly.vertices).all()
    assert poly.contains_many(mids).all()
    assert not poly.strictly_contains_many(mids).any()
    assert poly.contains_many([(7, 6)])[0]  # on the notch edge x=7
    assert not poly.strictly_contains_many([(7, 6)])[0]


def test_ring_edge_pairs_touch_or_not():
    # crossing: (0,0)-(4,4) and (0,4)-(4,0)
    assert (
        error_text(Polygon, [(0, 0), (4, 4), (0, 4), (4, 0)])
        == "polygon is self-intersecting (edges 0 and 2 touch)"
    )
    # collinear overlap: (0,0)-(4,0) and (6,0)-(2,0)
    assert (
        error_text(Polygon, [(0, 0), (4, 0), (5, -1), (6, 0), (2, 0), (1, 3)])
        == "polygon is self-intersecting (edges 0 and 3 touch)"
    )
    # shared endpoint: (0,0)-(2,2) and (4,5)-(2,2), which are not neighbours
    assert (
        error_text(Polygon, [(0, 0), (2, 2), (4, 0), (4, 5), (2, 2), (0, 5)])
        == "polygon is self-intersecting (edges 0 and 3 touch)"
    )
    # parallel, apart: (0,0)-(4,0) and (4,1)-(0,1)
    Polygon([(0, 0), (4, 0), (4, 1), (0, 1)])
    # collinear, apart: (0,0)-(1,0) and (3,0)-(5,0)
    Polygon([(0, 0), (1, 0), (2, -1), (3, 0), (5, 0), (5, 2), (0, 2)])


def notch(h):
    """A square whose top is pushed down to a tip h above the bottom edge."""
    return [(0, 0), (4, 0), (4, 4), (2, h), (0, 4)]


def test_a_notch_tip_touches_the_edge_below_within_eps_and_blocks_past_it():
    for h in (1e-10, 1e-9):
        assert error_text(Polygon, notch(h)) == "polygon is self-intersecting (edges 0 and 2 touch)"
    space = MissionSpace(Polygon(notch(2e-9)))
    src, target = (1, 1.5), np.array([[3, 1.5]])
    assert not line_of_sight_many(src, target, space)[0]
    assert not reference_line_of_sight_many(src, target, space)[0]


def test_a_fold_through_the_closing_pair_names_vertex_0():
    # edge 3, from (0,0) to (4,0), runs back over edge 0
    ring = [(4, 0), (2, 0), (2, 4), (0, 0)]
    assert error_text(Polygon, ring) == "polygon folds back on itself at vertex (4, 0)"
    s = 2.0**-17
    assert (
        error_text(Polygon, [(x * s, y * s) for x, y in ring])
        == f"polygon folds back on itself at vertex ({4 * s:g}, 0)"
    )


def ring_verdict(ring, scale):
    """The scaled ring's verdict: accepted, or its error with a fold's vertex named by index."""
    scaled = [(x * scale, y * scale) for x, y in ring]
    try:
        Polygon(scaled)
    except GeometryError as exc:
        msg = str(exc)
        folds = [k for k, (x, y) in enumerate(scaled) if msg.endswith(f"vertex ({x:g}, {y:g})")]
        return f"folds back at vertex {folds[0]}" if folds else msg
    return "accepted"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=7))
def test_a_lattice_ring_gets_one_verdict_at_every_scale(ring):
    want = ring_verdict(ring, 1.0)
    for e in range(-16, 11):
        assert ring_verdict(ring, 2.0**e) == want, 2.0**e


def test_closest_point_on_segment():
    assert closest_point_on_segment((5, 5), (0, 0), (10, 0)).tolist() == [5, 0]
    assert closest_point_on_segment((-3, 2), (0, 0), (10, 0)).tolist() == [0, 0]
    assert closest_point_on_segment((14, -2), (0, 0), (10, 0)).tolist() == [10, 0]


SQUARE_12 = [(0, 0), (12, 0), (12, 12), (0, 12)]
L_12 = [(0, 0), (12, 0), (12, 6), (6, 6), (6, 12), (0, 12)]
# a third of its perimeter runs through the L's notch, yet every vertex is on
# the boundary and no edge properly crosses a boundary edge
NOTCH_TRIANGLE = [(5, 6), (7, 6), (6, 7)]


@st.composite
def probe_points(draw, verts):
    """Points on a ring's vertices and edges, 0.5 to 2 EPS off its edges, or far away."""
    v = np.array(verts, dtype=float)
    e = draw(st.integers(0, len(v) - 1))
    a, b = v[e], v[(e + 1) % len(v)]
    kind = draw(st.sampled_from(["vertex", "edge", "off edge", "far"]))
    if kind == "vertex":
        return a
    if kind == "far":  # at least 20 beyond the vertex in x, outside every ring's box
        dx = draw(st.sampled_from([-1, 1])) * draw(st.floats(20, 1e3))
        return a + np.array([dx, draw(st.floats(-1e3, 1e3))])
    p = a + draw(st.floats(0, 1)) * (b - a)
    if kind == "edge":
        return p
    normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
    return p + draw(st.sampled_from([-2, -1, -0.5, 0.5, 1, 2])) * EPS * normal


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([CONVEX, L_12, CONCAVE]).flatmap(
    lambda verts: st.tuples(st.just(verts), st.lists(probe_points(verts), max_size=12))
))
def test_containment_equals_the_dense_edge_test(case):
    # convex, L and U rings; every example also checks its first point alone
    # and no point at all
    verts, points = case
    poly = Polygon(verts)
    probe = np.array(points, dtype=float).reshape(-1, 2)
    for pts in (probe, probe[:1], probe[:0]):
        parity = poly._parity(pts)
        on_edge = poly.on_boundary_many(pts)
        assert np.array_equal(poly.contains_many(pts), parity | on_edge)
        assert np.array_equal(poly.strictly_contains_many(pts), parity & ~on_edge)


def space_error(boundary, *obstacles) -> str:
    return error_text(MissionSpace, Polygon(boundary), [Polygon(o) for o in obstacles])


def test_mission_space_validation():
    boundary = [(0, 0), (10, 0), (10, 10), (0, 10)]
    assert (
        space_error(boundary, [(8, 8), (14, 8), (14, 12), (8, 12)])
        == "obstacle 0 has vertex (14, 8) outside the boundary"
    )
    # every vertex inside the L, one edge through its notch
    assert (
        space_error(L_12, [(1, 1), (11, 3), (3, 11)])
        == "obstacle 0 crosses the boundary (edge 1)"
    )
    assert (
        space_error(L_12, [(3, 11), (1, 1), (11, 3)])
        == "obstacle 0 crosses the boundary (edge 2)"
    )
    square = [(1, 1), (5, 1), (5, 5), (1, 5)]
    overlaps = {
        "identical": [square, square],
        "identical, one with a collinear extra vertex": [
            square,
            [(1, 1), (3, 1), (5, 1), (5, 5), (1, 5)],
        ],
        "strictly nested": [[(1, 1), (9, 1), (9, 9), (1, 9)], [(3, 3), (6, 3), (6, 6), (3, 6)]],
        "nested, sharing an edge": [square, [(1, 1), (3, 1), (3, 3), (1, 3)]],
        "proper crossing": [square, [(4, 4), (8, 4), (8, 8), (4, 8)]],
    }
    for case, obstacles in overlaps.items():
        assert space_error(boundary, *obstacles) == (
            "obstacles 0 and 1 have overlapping interiors"
        ), case
        # the message names the pair, in order
        clear = [(9.2, 9.2), (9.8, 9.2), (9.8, 9.8)]
        assert space_error(boundary, clear, *obstacles) == (
            "obstacles 1 and 2 have overlapping interiors"
        ), case


def test_touching_obstacles_are_accepted():
    for case, (boundary, obstacles) in TOUCHING_LAYOUTS.items():
        space = MissionSpace(Polygon(boundary), [Polygon(o) for o in obstacles])
        assert len(space.obstacles) == len(obstacles), case


def test_obstacle_through_the_notch_is_rejected():
    # the triangles the replaced check let through on fuzzed lattice layouts:
    # every vertex on the boundary, one edge across the notch
    crossings = {
        "obstacle 0 crosses the boundary (edge 1)": [
            NOTCH_TRIANGLE,
            [(4, 6), (8, 6), (6, 8)],
            [(3, 6), (9, 6), (6, 9)],
            [(6, 6), (9, 6), (6, 9)],
            [(6, 6), (10, 6), (6, 10)],
        ],
        "obstacle 0 crosses the boundary (edge 2)": [
            [(6, 8), (6, 4), (8, 6)],
            [(6, 9), (6, 3), (9, 6)],
        ],
    }
    boundary = Polygon(L_12)
    for message, triangles in crossings.items():
        for triangle in triangles:
            obstacles = [Polygon(triangle)]
            validate_reference(boundary, obstacles)
            assert error_text(MissionSpace, boundary, obstacles) == message, triangle


def spy_excursions(monkeypatch):
    """Record the (segment starts, ring) of every ``_excursions`` call from now on."""
    calls = []
    excursions = geometry._excursions

    def spy(p, q, poly, seek_outside):
        calls.append((p, poly))
        return excursions(p, q, poly, seek_outside)

    monkeypatch.setattr(geometry, "_excursions", spy)
    return calls


def box_gap(p, q) -> float:
    """How far apart two polygons' bounding boxes lie on their farther-apart axis."""
    (a0, a1, a2, a3), (b0, b1, b2, b3) = p.bbox, q.bbox
    return max(b0 - a2, a0 - b2, b1 - a3, a1 - b3)


def pair_calls(calls, space):
    """The obstacle pairs (k, m) that ``_excursions`` calls tested, one entry per call."""
    owner = {id(obs.vertices): k for k, obs in enumerate(space.obstacles)}
    ring = {id(obs): k for k, obs in enumerate(space.obstacles)}
    return [(owner[id(p)], ring[id(poly)]) for p, poly in calls if id(poly) in ring]


def test_validation_skips_pairs_whose_boxes_lie_apart(monkeypatch):
    # the bundled scenarios and the benchmark's cluttered layouts keep every
    # obstacle pair metres apart
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    workloads = importlib.import_module("perfbench.workloads")
    builds = [lambda n=n: parse_scenario(bundled_scenario_path(n)) for n in workloads.BUNDLED]
    builds += [
        lambda seed=seed, k=k: scenario_from_dict(workloads.cluttered_scenario(seed, k))
        for seed in (1, 2, 3)
        for k in range(workloads.CLUTTERED_LAYOUTS)
    ]
    pairs = 0
    for build in builds:
        calls = spy_excursions(monkeypatch)
        sc = build()  # a parsed scenario keeps the space it validated
        space = sc.build_space()
        n = len(space.obstacles)
        pairs += n * (n - 1) // 2
        tested = pair_calls(calls, space)
        assert all(box_gap(space.obstacles[k], space.obstacles[m]) <= EPS for k, m in tested)
    assert pairs == 3 + 10 + 6 + 6 * 10  # maze, random, rooms, six cluttered layouts


def gap_cases() -> dict:
    """Obstacle pairs whose boxes touch or nearly do, with the verdict of the
    check that tested every pair.  Each gap is exact: one side lies on an axis."""
    left = [(-5, -5), (0, -5), (0, 5), (-5, 5)]
    corner = [(-5, -5), (0, -5), (0, 0), (-5, 0)]
    tri = [(0, 0), (4, 0), (0, 4)]
    overlap = "obstacles 0 and 1 have overlapping interiors"
    cases = {
        "shared edge": ([left, [(0, -5), (5, -5), (5, 5), (0, 5)]], None),
        "shared corner": ([left, [(0, 5), (5, 5), (5, 8), (0, 8)]], None),
        "hypotenuse overlap": ([tri, [(4, 4), (-1, 4), (4, -1)]], overlap),
    }
    for k in (0, 0.5, 1, 2):
        g = k * EPS
        cases[f"{k} EPS apart in x"] = ([left, [(g, -2), (5, -2), (5, 2), (g, 2)]], None)
        cases[f"{k} EPS apart at a corner"] = ([corner, [(g, g), (5, g), (5, 5), (g, 5)]], None)
        cases[f"{k} EPS overlap in x"] = (
            [left, [(-g, -2), (5, -2), (5, 2), (-g, 2)]], overlap if k == 2 else None
        )
        cases[f"{k} EPS off a shared hypotenuse"] = ([tri, [(4, 4), (g, 4), (4, g)]], None)
    return cases


GAP_CASES = gap_cases()


@pytest.mark.parametrize("case", sorted(GAP_CASES))
def test_pairs_whose_boxes_touch_keep_their_verdict(monkeypatch, case):
    obstacles, want = GAP_CASES[case]
    polys = [Polygon(o) for o in obstacles]
    calls = spy_excursions(monkeypatch)
    try:
        MissionSpace(Polygon([(-10, -10), (10, -10), (10, 10), (-10, 10)]), polys)
        got = None
    except GeometryError as exc:
        got = str(exc)
    assert got == want
    # boxes that overlap, share an edge or a corner, or lie at most EPS apart
    # are tested; only the pairs 2 EPS apart are not
    tested = any(poly is q for _, poly in calls for q in polys)
    assert tested == (not case.startswith("2 EPS apart"))


def test_eps_outside_obstacle_on_a_convex_boundary():
    # every vertex lies within EPS of the bottom edge (their squared distance
    # rounds to EPS^2), so the vertex check accepts them; on a convex
    # boundary that settles it, while on the L the excursion test still
    # decides, and its probe midpoint measures a hair over EPS
    triangle = [(8, -1e-9), (8, 0.6), (7.4, -1e-9)]
    space = MissionSpace(Polygon(SQUARE_12), [Polygon(triangle)])
    assert len(space.obstacles) == 1
    assert space_error(L_12, triangle) == "obstacle 0 crosses the boundary (edge 2)"


def test_feasibility_semantics(one_block):
    # closed boundary is feasible, obstacle interior is not, obstacle edge is
    assert is_feasible((0, 0), one_block)
    assert is_feasible((20, 10), one_block)
    assert is_feasible((8, 5), one_block)  # on the obstacle's left edge
    assert not is_feasible((10, 5), one_block)  # obstacle center
    assert not is_feasible((-0.5, 5), one_block)
    assert not is_feasible((20.001, 5), one_block)


def test_los_blocked_through_interior(one_block):
    # straight through the block
    assert not sees((2, 5), (18, 5), one_block)
    # around it
    assert sees((2, 5), (18, 5), MissionSpace(one_block.boundary))
    assert sees((2, 1), (18, 1), one_block)


def test_los_grazing_does_not_block(one_block):
    # segment sliding exactly along the obstacle's bottom edge y=3
    assert sees((2, 3), (18, 3), one_block)
    # segment through a single corner (8,3): passes to the outside of the block
    assert sees((6, 1), (10, 5), one_block) is False  # enters interior past corner
    assert sees((4, 3), (8, 3), one_block)  # endpoint at the corner itself
    # diagonal grazing exactly at the corner, interior on one side only
    assert sees((6, 1), (12, 7), one_block) is False  # the diagonal crosses inside
    assert sees((7, 2), (9, 4), one_block) is False


def test_los_vertex_graze_visible():
    # a triangle whose apex touches the segment's line from below
    space = MissionSpace(
        Polygon([(0, 0), (20, 0), (20, 10), (0, 10)]),
        [Polygon([(8, 2), (12, 2), (10, 5)])],
    )
    # passes exactly through the apex (10,5) but never into the interior
    assert sees((0, 5), (20, 5), space)
    # drop the line slightly: now it cuts through the triangle
    assert not sees((0, 4.9), (20, 4.9), space)


def test_los_outside_boundary_blocked(lshape):
    # both endpoints feasible, but the straight segment leaves the L through the notch
    assert not sees((5, 9), (15, 2), lshape)
    assert sees((5, 2), (15, 2), lshape)
    # exactly through the reflex corner (10,5): grazes the closed region, stays visible
    assert sees((5, 8), (15, 2), lshape)
    # target outside the closed boundary is never sighted
    assert not sees((5, 2), (15, 8), lshape)


def test_los_sampling_oracle(one_block):
    # dense sampling along random segments agrees with the analytic test
    rng = np.random.default_rng(11)
    ts = np.linspace(0, 1, 2001)[1:-1]
    hits = 0
    for _ in range(300):
        a = rng.uniform((0, 0), (20, 10))
        b = rng.uniform((0, 0), (20, 10))
        if not (is_feasible(a, one_block) and is_feasible(b, one_block)):
            continue
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        sampled_clear = not one_block.obstacles[0].strictly_contains_many(pts).any()
        got = bool(line_of_sight_many(a, b[None, :], one_block)[0])
        assert got == sampled_clear
        hits += 1
    assert hits > 150  # the rejection loop must leave a real sample


def test_los_source_on_obstacle_edge(one_block):
    # source sits on the obstacle edge; target on the far side through the interior
    assert not sees((8, 5), (14, 5), one_block)
    # source on the edge looking away from the block
    assert sees((8, 5), (2, 5), one_block)
    # both endpoints on the same obstacle edge: slides along the boundary
    assert sees((8, 3.5), (8, 6.5), one_block)
    # opposite corners of the block: the diagonal runs through the interior
    assert not sees((8, 3), (12, 7), one_block)


def test_zero_length_segment_is_visible(one_block):
    assert sees((8, 3), (8, 3), one_block)


# lattice shapes, rotated by quarter turns, scaled and placed on the lattice
SHAPES = [
    [(0, 0), (1, 0), (1, 1), (0, 1)],
    [(0, 0), (2, 0), (1, 1)],
    [(0, 0), (1, 0), (0, 1)],
]


@st.composite
def lattice_layouts(draw):
    """A square or L boundary and 1-5 lattice-snapped obstacles, some shifted or nudged by EPS."""
    boundary = Polygon(draw(st.sampled_from([SQUARE_12, L_12])))
    obstacles = []
    for _ in range(draw(st.integers(1, 5))):
        shape = np.array(draw(st.sampled_from(SHAPES)), dtype=float)
        for _ in range(draw(st.integers(0, 3))):
            shape = shape @ np.array([[0.0, 1.0], [-1.0, 0.0]])
        size = draw(st.integers(1, 4)) * draw(st.sampled_from([1.0, 0.3]))
        corner = np.array([draw(st.integers(0, 12)), draw(st.integers(0, 12))], dtype=float)
        verts = corner + size * shape
        # a shift of the whole obstacle leaves gaps of 0.5 to 2 EPS between
        # lattice edges, where the bounding-box test decides which pairs to test
        shift = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0]))
        verts[:, draw(st.integers(0, 1))] += shift * EPS
        nudges = st.tuples(
            st.integers(0, len(verts) - 1), st.integers(0, 1), st.sampled_from([-EPS, EPS])
        )
        for v, axis, d in draw(st.lists(nudges, max_size=2)):
            verts[v, axis] += d
        obstacles.append(Polygon(verts))
    return boundary, obstacles


def verdict(check, boundary, obstacles):
    """None if ``check`` accepts, else what it names: (k,) or (k, m)."""
    try:
        check(boundary, obstacles)
    except GeometryError as exc:
        named = re.match(r"obstacles? (\d+)(?: and (\d+))?", str(exc)).groups()
        return tuple(int(n) for n in named if n)
    return None


def check_order(name):
    """Every obstacle is checked against the boundary before any pair."""
    return (len(name), name)


def edge_points(poly) -> np.ndarray:
    ts = np.linspace(0.0, 1.0, 2001)[:, None, None]
    a, b = poly.edges
    return (a + ts * (b - a)).reshape(-1, 2)


def shown_invalid(name, boundary, obstacles, depth) -> bool:
    """Dense points show the named obstacle or pair invalid, deeper than ``depth``.

    An obstacle is invalid when a point of its edges lies farther than
    ``depth`` outside the boundary; a pair when a point of one's edges lies
    farther than ``depth`` inside the other, or a grid point does in both.
    """
    def beyond(poly, pts, inside=True):
        return (poly._parity(pts) == inside) & ~poly.on_boundary_many(pts, tol=depth)

    if len(name) == 1:
        return bool(beyond(boundary, edge_points(obstacles[name[0]]), inside=False).any())
    k, m = (obstacles[i] for i in name)
    xmin, ymin, xmax, ymax = k.bbox
    gx, gy = np.meshgrid(np.linspace(xmin, xmax, 41), np.linspace(ymin, ymax, 41))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    return bool(
        beyond(m, edge_points(k)).any()
        or beyond(k, edge_points(m)).any()
        or (beyond(k, grid) & beyond(m, grid)).any()
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lattice_layouts())
def test_validation_matches_the_reference(layout):
    """The exact check agrees with the replaced one wherever the geometry is clear.

    Each check names the first obstacle or pair it rejects.  Where the two
    differ, the one the new check names must be shown invalid by dense
    points deeper than EPS / 2, and one the reference names before the new
    check gets to it must be no deeper than 10 EPS.  Between the two
    depths either verdict stands: the layouts nudge vertices by exactly
    EPS, so a point can sit at EPS from an edge and rounding decides, and
    the reference's proper-crossing test flags edges that dip EPS into a
    neighbour they share an edge with.
    """
    boundary, obstacles = layout
    want = verdict(validate_reference, boundary, obstacles)
    got = verdict(MissionSpace, boundary, obstacles)
    if got == want:
        return
    if got is not None:
        assert shown_invalid(got, boundary, obstacles, EPS / 2), (got, want)
    if want is not None and (got is None or check_order(want) < check_order(got)):
        assert not shown_invalid(want, boundary, obstacles, 10 * EPS), (got, want)
