import tracemalloc

import numpy as np
import pytest

from coverplan import (
    DetectionCache,
    InvalidParameterError,
    MissionSpace,
    Polygon,
    QuadratureGrid,
    SensorModel,
    UniformDensity,
    bundled_scenario_path,
    coverage,
    coverage_from_rows,
    detection_matrix,
    detection_row,
    joint_detection,
    line_of_sight_many,
    marginal_gain,
    miss_product,
    parse_scenario,
)
from coverplan import sensing
from coverplan.geometry import EPS

from problems import fresh, make_problem, sees


def test_sensor_model_validation():
    SensorModel(decay=0.0, radius=1.0)
    with pytest.raises(InvalidParameterError):
        SensorModel(decay=-0.1, radius=1.0)
    with pytest.raises(InvalidParameterError):
        SensorModel(decay=0.1, radius=0.0)
    with pytest.raises(InvalidParameterError):
        SensorModel(decay=float("nan"), radius=1.0)


def test_detection_row_values(empty_rect):
    grid, _, _ = make_problem(empty_rect)
    sensor = SensorModel(decay=0.3, radius=100.0)
    pos = np.array([3.0, 4.0])
    row = detection_row(pos, empty_rect, grid.centers, sensor)
    d = np.linalg.norm(grid.centers - pos, axis=1)
    assert np.allclose(row, np.exp(-0.3 * d))


def test_detection_row_respects_radius_and_occlusion(one_block):
    grid, _, _ = make_problem(one_block)
    sensor = SensorModel(decay=0.1, radius=6.0)
    pos = np.array([2.0, 5.0])
    row = detection_row(pos, one_block, grid.centers, sensor)
    d = np.linalg.norm(grid.centers - pos, axis=1)
    assert np.all(row[d > 6.0 + 1e-9] == 0.0)
    # the cell behind the block is occluded even though it is within a larger radius
    far = SensorModel(decay=0.1, radius=50.0)
    row = detection_row(pos, one_block, grid.centers, far)
    hidden = np.array([15.5, 5.5])
    k = int(np.argmin(np.linalg.norm(grid.centers - hidden, axis=1)))
    assert not sees(pos, grid.centers[k], one_block)
    assert row[k] == 0.0


def test_range_is_closed(empty_rect):
    sensor = SensorModel(decay=0.1, radius=5.0)
    row = detection_row((0, 0), empty_rect, [(3, 4), (3, 4.01), (5.01, 0)], sensor)
    assert row.tolist() == [np.exp(-0.1 * 5.0), 0.0, 0.0]


def test_joint_detection_independence():
    rows = np.array([[0.5, 0.0, 1.0], [0.5, 0.25, 0.2]])
    assert np.allclose(miss_product(rows), [0.25, 0.75, 0.0])
    assert np.allclose(joint_detection(rows), [0.75, 0.25, 1.0])


def test_coverage_monotone_in_agents(block_problem):
    _, grid, sensor, cand = block_problem
    rng = np.random.default_rng(5)
    picks = cand[rng.choice(len(cand), size=4, replace=False)]
    values = [coverage(picks[:k], grid, sensor) for k in range(5)]
    assert values[0] == 0.0
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12
    assert values[-1] <= grid.total_mass() + 1e-9


def test_coverage_upper_bound_single_agent(empty_rect):
    # one agent cannot beat the integral of its own detection row
    grid, sensor, _ = make_problem(empty_rect)
    pos = np.array([[10.0, 5.0]])
    row = detection_row(pos[0], empty_rect, grid.centers, sensor)
    assert coverage(pos, grid, sensor) == pytest.approx(grid.integrate(row))


def test_quadrature_refinement_oracle(one_block):
    # H on the default grid agrees with a 4x finer grid to quadrature accuracy
    sensor = SensorModel(decay=0.15, radius=30.0)
    coarse = QuadratureGrid(one_block, 1.0, UniformDensity())
    fine = QuadratureGrid(one_block, 0.25, UniformDensity())
    pos = np.array([[4.0, 2.0], [16.0, 8.0]])
    h_coarse = coverage(pos, coarse, sensor)
    h_fine = coverage(pos, fine, sensor)
    assert h_coarse == pytest.approx(h_fine, rel=0.02)


def test_marginal_gain_is_objective_difference(block_problem):
    # the dot-product shortcut equals H(S + new) - H(S) computed from scratch
    space, grid, sensor, cand = block_problem
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = int(rng.integers(0, 5))
        base_idx = rng.choice(len(cand), size=k, replace=False)
        new_idx = int(rng.integers(0, len(cand)))
        base_rows = detection_matrix(cand[base_idx], space, grid.centers, sensor)
        new_row = detection_row(cand[new_idx], space, grid.centers, sensor)
        miss = miss_product(base_rows) if k else np.ones(grid.cell_count)
        fast = marginal_gain(grid.weights * miss, new_row)
        slow = coverage_from_rows(grid, np.vstack([base_rows, new_row[None, :]])) - (
            coverage_from_rows(grid, base_rows) if k else 0.0
        )
        assert fast == pytest.approx(slow, abs=1e-9)


def test_detection_cache_matches_direct(block_problem):
    space, grid, sensor, cand = block_problem
    cache = DetectionCache(cand, space, grid.centers)
    direct = detection_matrix(cand, space, grid.centers, sensor)
    assert np.array_equal(cache.probs(sensor), direct)
    # a different sensor reuses the geometry
    other = SensorModel(decay=0.45, radius=7.0)
    assert np.array_equal(
        cache.probs(other), detection_matrix(cand, space, grid.centers, other)
    )


def test_empty_positions_cover_nothing(empty_rect):
    grid, sensor, _ = make_problem(empty_rect)
    assert coverage([], grid, sensor) == 0.0
    # a team of no rows misses every cell, so its joint detection integrates to exactly 0
    assert coverage_from_rows(grid, np.empty((0, grid.cell_count))) == 0.0


def reference_row(pos, space, pts, sensor):
    """Detection row by norm over the coordinate axis and a boolean-index exp."""
    d = np.linalg.norm(pts - pos[None, :], axis=1)
    vis = line_of_sight_many(pos, pts, space) & (d <= sensor.radius + EPS)
    row = np.zeros(len(pts))
    row[vis] = np.exp(-sensor.decay * d[vis])
    return row


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "name", ["empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50"]
)
def test_detection_paths_match_reference_rows(name):
    # rows, matrices and cache probabilities all equal the reference bit for
    # bit; each path runs on a fresh space, so none reads rows another kept
    sc = parse_scenario(bundled_scenario_path(name))
    space = sc.build_space()
    pts = sc.build_grid().centers
    xmin, ymin, xmax, ymax = space.bbox
    off = np.random.default_rng(5).uniform((xmin, ymin), (xmax, ymax), size=(40, 2))
    src = np.vstack([sc.build_candidates()[::5], off[space.feasible_many(off)][:8]])
    base = sc.build_sensor()
    exact = float(np.linalg.norm(pts[len(pts) // 2] - src[0]))
    sensors = [
        base,
        SensorModel(decay=0.0, radius=base.radius),
        SensorModel(decay=0.3, radius=exact),  # a cell sits exactly at the cutoff
    ]
    cache = DetectionCache(src, fresh(space), pts)
    for sensor in sensors:
        ref_space, row_space = fresh(space), fresh(space)
        ref = np.array([reference_row(p, ref_space, pts, sensor) for p in src])
        for p, r in zip(src, ref):
            assert_same_bits(detection_row(p, row_space, pts, sensor), r)
        assert_same_bits(detection_matrix(src, fresh(space), pts, sensor), ref)
        assert_same_bits(cache.probs(sensor), ref)


@pytest.mark.parametrize(
    "name", ["empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50"]
)
def test_stacked_rows_equal_single_rows(name):
    # matrices and cache probabilities take their sight lines from one stacked
    # call; every row must equal the single-source row, infeasible sources too.
    # Each side runs on a fresh space, so the single rows are decided one
    # source per call and not read from the stack's kept rows
    sc = parse_scenario(bundled_scenario_path(name))
    space = sc.build_space()
    pts = sc.build_grid().centers
    verts = np.concatenate([p.vertices for p in [space.boundary] + space.obstacles])
    xmin, ymin, xmax, ymax = space.bbox
    off = np.random.default_rng(6).uniform((xmin - 2, ymin - 2), (xmax + 2, ymax + 2), size=(12, 2))
    src = np.vstack([sc.build_candidates(), verts, off])
    sensor = sc.build_sensor()
    single = fresh(space)
    rows = np.array([detection_row(p, single, pts, sensor) for p in src])
    assert_same_bits(detection_matrix(src, fresh(space), pts, sensor), rows)
    assert_same_bits(DetectionCache(src, fresh(space), pts).probs(sensor), rows)


@pytest.mark.parametrize(
    "obstacles",
    [[], [[(20, 10), (40, 10), (40, 20), (30, 20), (30, 35), (20, 35)]]],
    ids=["open", "non-convex obstacle"],
)
def test_blocked_matrix_equals_stacked_rows(obstacles):
    # matrices build their rows a block at a time; stacks that end before,
    # on and after a block's edge equal rows taken one by one, and an
    # infeasible source's row is all zero wherever it sits in the stack; each
    # side runs on a fresh space, so neither reads the other's kept rows
    space = MissionSpace(
        Polygon([(0, 0), (60, 0), (60, 50), (0, 50)]), [Polygon(o) for o in obstacles]
    )
    pts = QuadratureGrid(space, 1.0, UniformDensity()).centers
    sensor = SensorModel(decay=0.12, radius=40.0)
    block = sensing._block_rows(len(pts))
    assert block >= 2
    off = np.random.default_rng(9).uniform((0, 0), (60, 50), size=(60, 2))
    feasible = off[space.feasible_many(off)]
    assert len(feasible) > 2 * block
    outside = (25.0, 15.0) if obstacles else (70.0, 25.0)
    assert not space.feasible_many(np.array([outside]))[0]
    for n in (1, block - 1, block, block + 1, 2 * block + 1):
        for src in (feasible[:n], np.insert(feasible[: n - 1], n // 2, outside, axis=0)):
            single = fresh(space)
            rows = np.array([detection_row(p, single, pts, sensor) for p in src])
            assert_same_bits(detection_matrix(src, fresh(space), pts, sensor), rows)
        assert not rows[n // 2].any()


def target_layouts(centers):
    """One target set in four layouts: C-ordered, Fortran-ordered, a
    negative-stride view, and a strided slice of ``centers`` itself."""
    strided = centers[::3]
    c_order = np.ascontiguousarray(strided)
    reversed_view = np.ascontiguousarray(c_order[::-1])[::-1]
    assert reversed_view.strides[0] < 0 and not strided.flags.c_contiguous
    return {
        "C": c_order,
        "Fortran": np.asfortranarray(c_order),
        "negative stride": reversed_view,
        "strided slice": strided,
    }


@pytest.mark.parametrize("name", ["wall_60x50", "random_60x50", "rooms_60x50"])
def test_results_do_not_depend_on_the_target_layout(name):
    sc = parse_scenario(bundled_scenario_path(name))
    space = sc.build_space()
    sensor = sc.build_sensor()
    src = sc.build_candidates()[::4]
    results = {}
    for layout, pts in target_layouts(sc.build_grid().centers).items():
        # a fresh space, so its sight memo is built from this layout
        own = fresh(space)
        cache = DetectionCache(src, own, pts)
        results[layout] = [
            line_of_sight_many(src, pts, own),
            line_of_sight_many(src[0], pts, own),
            np.array([detection_row(p, own, pts, sensor) for p in src]),
            detection_matrix(src, own, pts, sensor),
            cache.dist,
            cache.probs(sensor),
        ]
    for layout, got in results.items():
        for a, b in zip(got, results["C"]):
            assert np.array_equal(a, b), layout


def test_a_second_target_set_of_the_same_shape_rebuilds_the_sight_memo():
    sc = parse_scenario(bundled_scenario_path("random_60x50"))
    centers = sc.build_grid().centers
    space = MissionSpace(sc.build_space().boundary, sc.build_space().obstacles)
    src = sc.build_candidates()[::6]
    first, second = centers[0::2], centers[1::2][: len(centers[0::2])]
    assert first.shape == second.shape
    line_of_sight_many(src, first, space)
    memo = space._sight
    line_of_sight_many(src, np.asfortranarray(first), space)
    assert space._sight is memo  # the same targets in another layout reuse it
    got = line_of_sight_many(src, second, space)
    assert space._sight is not memo
    assert np.array_equal(space._sight.xy, second[space._sight.idx].T)
    assert np.array_equal(got, line_of_sight_many(src, second, fresh(space)))


@pytest.mark.parametrize(
    "name", ["empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50"]
)
def test_detection_bits_equal_the_pairwise_differences(name):
    # distances from the (T, 2) differences, with the same operations in the
    # same order, give the matrix and the cache bit for bit
    sc = parse_scenario(bundled_scenario_path(name))
    space = sc.build_space()
    pts = sc.build_grid().centers
    src = sc.build_candidates()
    sensor = sc.build_sensor()
    d = pts[None, :, :] - src[:, None, :]
    los = line_of_sight_many(src, pts, space)
    expected = sensor.detect(np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]), los)
    assert np.array_equal(detection_matrix(src, space, pts, sensor), expected)
    assert np.array_equal(DetectionCache(src, space, pts).probs(sensor), expected)


@pytest.mark.parametrize(
    "name", ["empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50"]
)
def test_probabilities_fill_a_given_buffer_bit_for_bit(name):
    # against the rule as a masked exponential, along decays and radii that
    # change back and forth, into a buffer holding stale values
    sc = parse_scenario(bundled_scenario_path(name))
    space = sc.build_space()
    pts = sc.build_grid().centers
    src = sc.build_candidates()
    cache = DetectionCache(src, space, pts)
    buf = np.full(cache.dist.shape, np.nan)
    for decay, radius in [(0.02, 80.0), (0.3, 80.0), (0.3, 12.0), (0.0, 12.0), (0.02, 80.0)]:
        sensor = SensorModel(decay=decay, radius=radius)
        reach = cache.los & (cache.dist <= radius + EPS)
        want = np.exp(-decay * cache.dist, out=np.zeros(cache.dist.shape), where=reach)
        assert cache.probs(sensor, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert cache.probs(sensor).tobytes() == want.tobytes()
    rows = detection_matrix(src[:7], space, pts, sensor)
    assert rows.tobytes() == want[:7].tobytes()


def test_detection_cache_holds_no_pairwise_difference_array():
    # the (n, T) distances and one (n, T) temporary, not an (n, T, 2) difference
    sc = parse_scenario(bundled_scenario_path("random_60x50"))
    space = sc.build_space()
    pts = sc.build_grid().centers
    src = sc.build_candidates()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = DetectionCache(src, space, pts)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert cache.dist.shape == (len(src), len(pts))
    assert peak <= 2.5 * cache.dist.nbytes
