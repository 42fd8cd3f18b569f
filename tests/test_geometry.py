import numpy as np
import pytest

from coverplan import GeometryError, MissionSpace, Point, Polygon, is_feasible, is_visible
from coverplan.geometry import (
    EPS,
    closest_point_on_segment,
    line_of_sight_many,
    segments_intersect,
    visible_many,
)


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


def test_point_construction():
    p = Point(1.5, -2.0)
    assert p.as_array().tolist() == [1.5, -2.0]
    with pytest.raises(GeometryError):
        Point(float("nan"), 0.0)
    with pytest.raises(GeometryError):
        Point(0.0, float("inf"))


def test_polygon_area_and_convexity():
    square = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    assert square.area == pytest.approx(16.0)
    assert square.is_convex
    concave = Polygon(CONCAVE)
    assert not concave.is_convex
    assert concave.area == pytest.approx(12 * 9 - 3 * 5)


def test_polygon_rejects_bad_rings():
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (1, 0)])
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (4, 0), (4, 0), (0, 4)])  # repeated vertex
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (4, 4), (4, 0), (0, 4)])  # bowtie
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (4, 0), (2, 0), (2, 4)])  # spur folds back along an edge
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (6, 0), (6, 1e-15), (0, 1e-15)])  # zero area


def test_polygon_accepts_explicitly_closed_ring():
    ring = [(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)]
    assert len(Polygon(ring).vertices) == 4


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
    assert poly.contains((7, 6))  # on the notch edge x=7
    assert not poly.strictly_contains((7, 6))


def test_segments_intersect_basics():
    assert segments_intersect((0, 0), (4, 4), (0, 4), (4, 0))
    assert segments_intersect((0, 0), (4, 0), (2, 0), (6, 0))  # collinear overlap
    assert segments_intersect((0, 0), (4, 0), (4, 0), (6, 3))  # shared endpoint
    assert not segments_intersect((0, 0), (4, 0), (0, 1), (4, 1))
    assert not segments_intersect((0, 0), (1, 0), (3, 0), (5, 0))  # collinear, apart


def test_closest_point_on_segment():
    assert closest_point_on_segment((5, 5), (0, 0), (10, 0)).tolist() == [5, 0]
    assert closest_point_on_segment((-3, 2), (0, 0), (10, 0)).tolist() == [0, 0]
    assert closest_point_on_segment((14, -2), (0, 0), (10, 0)).tolist() == [10, 0]


def test_mission_space_validation():
    boundary = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    with pytest.raises(GeometryError, match="obstacle 0"):
        MissionSpace(boundary, [Polygon([(8, 8), (14, 8), (14, 12), (8, 12)])])
    with pytest.raises(GeometryError, match="overlap"):
        MissionSpace(
            boundary,
            [
                Polygon([(1, 1), (5, 1), (5, 5), (1, 5)]),
                Polygon([(4, 4), (8, 4), (8, 8), (4, 8)]),
            ],
        )
    # touching at a corner is fine: interiors stay disjoint
    MissionSpace(
        boundary,
        [
            Polygon([(1, 1), (5, 1), (5, 5), (1, 5)]),
            Polygon([(5, 5), (8, 5), (8, 8), (5, 8)]),
        ],
    )
    # obstacle nested inside another is an overlap of interiors
    with pytest.raises(GeometryError, match="overlap"):
        MissionSpace(
            boundary,
            [
                Polygon([(1, 1), (9, 1), (9, 9), (1, 9)]),
                Polygon([(3, 3), (6, 3), (6, 6), (3, 6)]),
            ],
        )


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
    assert not is_visible((2, 5), (18, 5), one_block, radius=50)
    # around it
    assert is_visible((2, 5), (18, 5), MissionSpace(one_block.boundary), radius=50)
    assert is_visible((2, 1), (18, 1), one_block, radius=50)


def test_los_grazing_does_not_block(one_block):
    # segment sliding exactly along the obstacle's bottom edge y=3
    assert is_visible((2, 3), (18, 3), one_block, radius=50)
    # segment through a single corner (8,3): passes to the outside of the block
    assert is_visible((6, 1), (10, 5), one_block, radius=50) is False  # enters interior past corner
    assert is_visible((4, 3), (8, 3), one_block, radius=50)  # endpoint at the corner itself
    # diagonal grazing exactly at the corner, interior on one side only
    assert is_visible((6, 1), (12, 7), one_block, radius=50) is False  # the diagonal crosses inside
    assert is_visible((7, 2), (9, 4), one_block, radius=50) is False


def test_los_vertex_graze_visible():
    # a triangle whose apex touches the segment's line from below
    space = MissionSpace(
        Polygon([(0, 0), (20, 0), (20, 10), (0, 10)]),
        [Polygon([(8, 2), (12, 2), (10, 5)])],
    )
    # passes exactly through the apex (10,5) but never into the interior
    assert is_visible((0, 5), (20, 5), space, radius=50)
    # drop the line slightly: now it cuts through the triangle
    assert not is_visible((0, 4.9), (20, 4.9), space, radius=50)


def test_los_outside_boundary_blocked(lshape):
    # both endpoints feasible, but the straight segment leaves the L through the notch
    assert not is_visible((5, 9), (15, 2), lshape, radius=50)
    assert is_visible((5, 2), (15, 2), lshape, radius=50)
    # exactly through the reflex corner (10,5): grazes the closed region, stays visible
    assert is_visible((5, 8), (15, 2), lshape, radius=50)
    # target outside the closed boundary is never sighted
    assert not is_visible((5, 2), (15, 8), lshape, radius=50)


def test_los_range_limit(empty_rect):
    assert is_visible((0, 0), (3, 4), empty_rect, radius=5.0)  # exactly at range
    assert not is_visible((0, 0), (3, 4.01), empty_rect, radius=5.0)


def test_visible_many_matches_scalar(block_problem):
    space, grid, sensor, cand = block_problem
    rng = np.random.default_rng(3)
    for _ in range(20):
        src = rng.uniform((0, 0), (20, 10))
        if not is_feasible(src, space):
            continue
        mask = visible_many(src, grid.centers, space, sensor.radius)
        sample = rng.integers(0, len(grid.centers), size=40)
        for t in sample:
            assert mask[t] == is_visible(src, grid.centers[t], space, sensor.radius)


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
    assert not is_visible((8, 5), (14, 5), one_block, radius=50)
    # source on the edge looking away from the block
    assert is_visible((8, 5), (2, 5), one_block, radius=50)
    # both endpoints on the same obstacle edge: slides along the boundary
    assert is_visible((8, 3.5), (8, 6.5), one_block, radius=50)
    # opposite corners of the block: the diagonal runs through the interior
    assert not is_visible((8, 3), (12, 7), one_block, radius=50)


def test_zero_length_segment_is_visible(one_block):
    assert is_visible((8, 3), (8, 3), one_block, radius=1.0)


def loop_interior_samples(poly, rng, count=16):
    """Rejection sampling one pair at a time, stopping at the count-th acceptance."""
    xmin, ymin, xmax, ymax = poly.bbox
    picked = []
    for _ in range(200 * count):
        p = rng.uniform((xmin, ymin), (xmax, ymax))
        if poly.strictly_contains(p):
            picked.append(p)
            if len(picked) == count:
                break
    if not picked:
        a, b = poly.edges
        picked = [0.5 * (a[i] + b[i]) for i in range(len(a))]
    return np.asarray(picked)


def test_interior_samples_match_the_rejection_loop():
    # full acceptance, a sliver that accepts fewer than count tries, and one
    # that accepts none (edge midpoints instead); one stream runs through
    # every polygon, as in the overlap check
    polys = [
        Polygon(CONVEX),
        Polygon(CONCAVE),
        Polygon([(0, 0), (10, 10), (10, 10.05)]),
        Polygon([(0, 0), (10, 10), (10, 10.0005)]),
    ]
    counts = set()
    for seed in range(2):
        for count in (16, 3):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for poly in polys:
                got = MissionSpace._interior_samples(poly, got_rng, count)
                want = loop_interior_samples(poly, want_rng, count)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                counts.add(len(got) if poly.strictly_contains_many(got).all() else 0)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert 0 in counts and 16 in counts and any(0 < c < 16 for c in counts - {3})
