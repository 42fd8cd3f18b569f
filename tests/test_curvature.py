import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from coverplan import (
    DegenerateCandidateError,
    DetectionCache,
    InvalidParameterError,
    MissionSpace,
    Polygon,
    QuadratureGrid,
    SensorModel,
    UniformDensity,
    bound_from_elemental,
    bound_from_total,
    bound_report,
    detection_matrix,
    elemental_curvature,
    sweep_bounds,
    total_curvature,
)
from coverplan.curvature import _elemental_curvature_argmin, _ground_set, _leave_one_out_miss
from coverplan.scenario import bundled_scenario_path, parse_scenario


def naive_total_bound(c, n):
    # plain-arithmetic rendering of the guarantee, no expm1 tricks
    return (1.0 - ((n - c) / n) ** n) / c


def naive_elemental_bound(alpha, n):
    ratio = (alpha - alpha**n) / (1.0 - alpha**n)
    return 1.0 - ratio**n


def test_known_bound_values():
    assert bound_from_elemental(1.0, 10) == pytest.approx(0.6513, abs=5e-5)
    assert bound_from_elemental(0.5, 2) == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert bound_from_total(1.0, 10) == pytest.approx(1.0 - 0.9**10, abs=1e-12)


def test_bounds_match_naive_formulas():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        c = float(rng.uniform(0.05, 1.0))
        a = float(rng.uniform(0.05, 0.95))
        assert bound_from_total(c, n) == pytest.approx(naive_total_bound(c, n), rel=1e-10)
        assert bound_from_elemental(a, n) == pytest.approx(
            naive_elemental_bound(a, n), rel=1e-10
        )


def test_bounds_agree_at_curvature_one():
    for n in range(1, 51):
        assert abs(bound_from_total(1.0, n) - bound_from_elemental(1.0, n)) <= 1e-12


def test_bounds_at_zero_curvature_are_one():
    for n in (1, 2, 7, 40):
        assert bound_from_total(0.0, n) == 1.0
        assert bound_from_elemental(0.0, n) == 1.0


def test_single_agent_needs_no_bound():
    assert bound_from_total(0.73, 1) == 1.0
    assert bound_from_elemental(0.73, 1) == 1.0


def test_bounds_never_drop_below_classic_ratio():
    floor = 1.0 - 1.0 / np.e
    for n in range(2, 60):
        for x in np.linspace(0.0, 1.0, 21):
            assert bound_from_total(float(x), n) >= floor - 1e-12
            assert bound_from_elemental(float(x), n) >= floor - 1e-12


def test_bounds_monotone_in_curvature_and_team_size():
    xs = np.linspace(0.0, 1.0, 41)
    for n in (2, 5, 12):
        t = [bound_from_total(float(x), n) for x in xs]
        e = [bound_from_elemental(float(x), n) for x in xs]
        assert np.all(np.diff(t) <= 1e-12)
        assert np.all(np.diff(e) <= 1e-12)
    for x in (0.3, 0.8, 1.0):
        t = [bound_from_total(x, n) for n in range(1, 40)]
        assert np.all(np.diff(t) <= 1e-12)
    # the elemental guarantee is monotone in team size only at full curvature;
    # below it the (ratio)^n term dies off and the bound climbs back toward 1
    e = [bound_from_elemental(1.0, n) for n in range(1, 40)]
    assert np.all(np.diff(e) <= 1e-12)
    e = [bound_from_elemental(0.3, n) for n in range(3, 40)]
    assert np.all(np.diff(e) >= -1e-12)


def test_bound_input_validation():
    with pytest.raises(InvalidParameterError):
        bound_from_total(1.5, 3)
    with pytest.raises(InvalidParameterError):
        bound_from_total(-0.2, 3)
    with pytest.raises(InvalidParameterError):
        bound_from_total(0.5, 0)
    with pytest.raises(InvalidParameterError):
        bound_from_elemental(float("nan"), 3)


def test_bounds_reject_a_bool_team_size():
    for bound in (bound_from_total, bound_from_elemental):
        with pytest.raises(InvalidParameterError, match="positive integer, got True"):
            bound(0.5, True)


@pytest.mark.parametrize("bound", [bound_from_total, bound_from_elemental])
def test_bounds_reject_a_team_size_past_its_row(bound):
    # the bounds take the team size as a float; 10**400 once raised an OverflowError
    assert bound(0.5, 2**31 - 1) > 0
    for team in (2**31, 10**400):
        with pytest.raises(InvalidParameterError) as info:
            bound(0.5, team)
        assert str(info.value) == f"team size must be <= 2147483647, got {team}"


def test_disjoint_candidates_have_zero_total_curvature(empty_rect):
    # coverage footprints that never overlap leave each candidate undiscounted
    grid = QuadratureGrid(empty_rect, 1.0, UniformDensity())
    sensor = SensorModel(decay=0.5, radius=2.0)
    cand = np.array([[2.0, 5.0], [18.0, 5.0]])
    probs = detection_matrix(cand, empty_rect, grid.centers, sensor)
    assert total_curvature(probs, grid) == 0.0


def test_perfect_sensor_has_zero_elemental_curvature(empty_rect):
    grid = QuadratureGrid(empty_rect, 1.0, UniformDensity())
    sensor = SensorModel(decay=0.0, radius=100.0)
    probs = detection_matrix(np.array([[10.0, 5.0]]), empty_rect, grid.centers, sensor)
    assert elemental_curvature(probs, grid) == 0.0


def test_blind_spot_drives_elemental_curvature_to_one(one_block):
    # the obstacle shadows part of the region from a single corner candidate
    grid = QuadratureGrid(one_block, 1.0, UniformDensity())
    sensor = SensorModel(decay=0.01, radius=100.0)
    probs = detection_matrix(np.array([[1.0, 5.0]]), one_block, grid.centers, sensor)
    assert elemental_curvature(probs, grid) == 1.0


def test_single_candidate_has_zero_total_curvature(empty_rect):
    grid = QuadratureGrid(empty_rect, 1.0, UniformDensity())
    sensor = SensorModel(decay=0.2, radius=30.0)
    probs = detection_matrix(np.array([[10.0, 5.0]]), empty_rect, grid.centers, sensor)
    assert total_curvature(probs, grid) == 0.0


def test_elemental_curvature_closed_form_no_obstacles(empty_rect):
    # with sight of everything, only the largest candidate-to-cell distance matters
    grid = QuadratureGrid(empty_rect, 1.0, UniformDensity())
    cand = np.array([[3.0, 3.0], [15.0, 8.0]])
    decay = 0.11
    sensor = SensorModel(decay=decay, radius=50.0)
    probs = detection_matrix(cand, empty_rect, grid.centers, sensor)
    d = np.linalg.norm(grid.centers[None, :, :] - cand[:, None, :], axis=-1)
    d_max = d[:, grid.feasible].max()
    assert elemental_curvature(probs, grid) == pytest.approx(
        1.0 - np.exp(-decay * d_max), abs=1e-12
    )


def test_curvatures_lie_in_unit_interval(block_problem):
    space, grid, sensor, cand = block_problem
    probs = detection_matrix(cand, space, grid.centers, sensor)
    c = total_curvature(probs, grid)
    a = elemental_curvature(probs, grid)
    assert 0.0 <= c <= 1.0
    assert 0.0 <= a <= 1.0


def test_degenerate_candidate_rejected(empty_rect):
    grid = QuadratureGrid(empty_rect, 1.0, UniformDensity())
    # radius too small to reach any cell center
    sensor = SensorModel(decay=0.1, radius=0.2)
    probs = detection_matrix(np.array([[1.0, 1.0]]), empty_rect, grid.centers, sensor)
    with pytest.raises(DegenerateCandidateError, match="candidate 0"):
        total_curvature(probs, grid)


def test_zero_mass_candidates_leave_the_ground_set(block_problem):
    space, grid, sensor, cand = block_problem
    probs = detection_matrix(cand, space, grid.centers, sensor)
    blind = np.zeros((1, grid.cell_count))
    plain = bound_report(probs, grid, 4)
    report = bound_report(np.vstack([blind, probs, blind]), grid, 4)
    assert report.dropped == (0, len(cand) + 1) and plain.dropped == ()
    assert report.total_curvature == plain.total_curvature
    assert report.elemental_curvature == plain.elemental_curvature
    assert report.certified == plain.certified
    # indices keep numbering the rows of the full matrix
    assert report.worst_candidate == plain.worst_candidate + 1
    assert report.worst_pair == (plain.worst_pair[0] + 1, plain.worst_pair[1])
    with pytest.raises(DegenerateCandidateError, match="candidate 0"):
        bound_report(np.vstack([blind, blind]), grid, 4)


def test_total_curvature_handles_certain_detection(empty_rect):
    # decay zero makes every in-range probability exactly 1; the leave-one-out
    # products must survive without dividing by zero
    grid = QuadratureGrid(empty_rect, 1.0, UniformDensity())
    sensor = SensorModel(decay=0.0, radius=100.0)
    cand = np.array([[5.0, 5.0], [10.0, 5.0], [15.0, 5.0]])
    probs = detection_matrix(cand, empty_rect, grid.centers, sensor)
    assert total_curvature(probs, grid) == 1.0


def test_bound_report_fields(block_problem):
    space, grid, sensor, cand = block_problem
    probs = detection_matrix(cand, space, grid.centers, sensor)
    report = bound_report(probs, grid, 4)
    assert report.total_curvature == total_curvature(probs, grid)
    assert report.elemental_curvature == elemental_curvature(probs, grid)
    assert report.from_total == bound_from_total(report.total_curvature, 4)
    assert report.from_elemental == bound_from_elemental(report.elemental_curvature, 4)
    assert report.certified == max(report.from_total, report.from_elemental)
    assert report.team_size == 4
    assert 0 <= report.worst_candidate < len(cand)
    j, k = report.worst_pair
    assert 0 <= j < len(cand) and 0 <= k < grid.cell_count
    assert probs[j, k] == np.min(probs[:, grid.feasible])
    d = report.as_dict()
    assert d["certified"] == report.certified and d["worst_pair"] == [j, k]


def test_sweep_bounds_tracks_single_reports(block_problem):
    space, grid, sensor, cand = block_problem
    cache = DetectionCache(cand, space, grid.centers)
    decays = [0.05, 0.2, 0.8]
    rows = sweep_bounds(cache, grid, 5, sensor, "decay", decays)
    assert [v for v, _ in rows] == decays
    for v, report in rows:
        probe = SensorModel(decay=v, radius=sensor.radius)
        probs = detection_matrix(cand, space, grid.centers, probe)
        assert report.total_curvature == total_curvature(probs, grid)
        assert report.elemental_curvature == elemental_curvature(probs, grid)
    with pytest.raises(InvalidParameterError):
        sweep_bounds(cache, grid, 5, sensor, "wavelength", decays)
    with pytest.raises(InvalidParameterError, match="got a list holding an integer of more than"):
        sweep_bounds(cache, grid, 5, sensor, [10**5000], decays)


def test_radius_sweep_tracks_single_reports(block_problem):
    space, grid, sensor, cand = block_problem
    cache = DetectionCache(cand, space, grid.centers)
    radii = [2.5, 6.0, 30.0]
    rows = sweep_bounds(cache, grid, 5, sensor, "radius", radii)
    assert [v for v, _ in rows] == radii
    for v, report in rows:
        probe = SensorModel(decay=sensor.decay, radius=v)
        probs = detection_matrix(cand, space, grid.centers, probe)
        assert report == bound_report(probs, grid, 5)


def test_elemental_curvature_rises_with_decay(block_problem):
    # weaker long-range detection can only worsen the worst cell
    space, grid, sensor, cand = block_problem
    cache = DetectionCache(cand, space, grid.centers)
    rows = sweep_bounds(cache, grid, 5, sensor, "decay", [0.02, 0.1, 0.3, 0.9])
    alphas = [r.elemental_curvature for _, r in rows]
    assert np.all(np.diff(alphas) >= -1e-12)


def stacked_leave_one_out_miss(probs, out=None):
    """The leave-one-out products as built before they were written in place.

    Takes the library's ``out`` buffer too, and copies the products into it.
    """
    q = 1.0 - probs
    n, m = q.shape
    prefix = np.vstack([np.ones((1, m)), np.cumprod(q, axis=0)[:-1]])
    suffix = np.vstack([np.cumprod(q[::-1], axis=0)[::-1][1:], np.ones((1, m))])
    if out is None:
        return prefix * suffix
    return np.multiply(prefix, suffix, out=out)


@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_leave_one_out_miss_matches_stacked_products(n):
    rng = np.random.default_rng(n)
    probs = rng.uniform(size=(n, 40))
    probs[rng.uniform(size=probs.shape) < 0.2] = 0.0
    probs[rng.uniform(size=probs.shape) < 0.2] = 1.0
    probs[0, :5] = 1.0  # certain detection in the first row, which every other row multiplies
    got = _leave_one_out_miss(probs)
    want = stacked_leave_one_out_miss(probs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    grid = QuadratureGrid(MissionSpace(Polygon([(0, 0), (8, 0), (8, 5), (0, 5)])), 1.0, UniformDensity())
    alone = probs @ grid.weights
    keep = alone > 0
    if keep.any():
        on_top = (probs * want) @ grid.weights
        c = float(np.max(1.0 - on_top[keep] / alone[keep]))
        assert total_curvature(probs, grid) == min(1.0, max(0.0, c))


BUNDLED = ["empty_60x50", "maze_60x50", "random_60x50", "rooms_60x50", "wall_60x50"]


def bundled_problem(name):
    sc = parse_scenario(bundled_scenario_path(name))
    space, grid = sc.build_space(), sc.build_grid()
    return sc, space, grid, sc.build_candidates()


def stacked_report(monkeypatch, probs, grid, team_size):
    """The bound report with the leave-one-out products built as before."""
    with monkeypatch.context() as m:
        m.setattr("coverplan.curvature._leave_one_out_miss", stacked_leave_one_out_miss)
        return bound_report(probs, grid, team_size)


def assert_same_report(got, want):
    # repr prints each float to its shortest round trip, so equal reprs
    # mean every field is equal bit for bit
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", BUNDLED)
def test_bound_report_matches_stacked_products_on_bundled_scenarios(monkeypatch, name):
    sc, space, grid, cand = bundled_problem(name)
    probs = detection_matrix(cand, space, grid.centers, sc.build_sensor())
    got = bound_report(probs, grid, sc.team_size)
    assert_same_report(got, stacked_report(monkeypatch, probs, grid, sc.team_size))


@pytest.mark.parametrize(
    "parameter, values",
    [("decay", np.linspace(0.01, 0.5, 10)), ("radius", np.linspace(5.0, 60.0, 7))],
)
def test_bound_report_matches_stacked_products_along_sweeps(monkeypatch, parameter, values):
    sc, space, grid, cand = bundled_problem("random_60x50")
    cache = DetectionCache(cand, space, grid.centers)
    sensor = sc.build_sensor()
    table = sweep_bounds(cache, grid, sc.team_size, sensor, parameter, values)
    assert len(table) == len(values)
    for v, got in table:
        probs = cache.probs(replace(sc.sensor, **{parameter: v}))
        assert_same_report(got, stacked_report(monkeypatch, probs, grid, sc.team_size))


def test_bound_report_holds_one_matrix_of_temporaries():
    sc, space, grid, cand = bundled_problem("random_60x50")
    probs = detection_matrix(cand, space, grid.centers, sc.build_sensor())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bound_report(probs, grid, sc.team_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 1.2 * probs.nbytes


def test_sweep_holds_two_matrices_of_temporaries():
    # one probability buffer and one leave-one-out buffer across the sweep
    sc, space, grid, cand = bundled_problem("random_60x50")
    cache = DetectionCache(cand, space, grid.centers)
    sensor = sc.build_sensor()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sweep_bounds(cache, grid, sc.team_size, sensor, "decay", np.linspace(0.01, 0.5, 6))
        sweep_bounds(cache, grid, sc.team_size, sensor, "radius", np.linspace(5.0, 60.0, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 2.5 * cache.dist.nbytes


def copied_elemental_argmin(probs, keep, mask):
    """The elemental argmin over a copy of the kept rows and masked columns."""
    cols = np.nonzero(mask)[0]
    sub = probs[np.ix_(keep, cols)]
    j, k = np.unravel_index(int(np.argmin(sub)), sub.shape)
    return 1.0 - float(sub[j, k]), (int(keep[j]), int(cols[k]))


@pytest.mark.parametrize("cells", ["feasible"])
@pytest.mark.parametrize("seed", range(8))
def test_elemental_argmin_matches_the_copied_block(cells, seed):
    # an L boundary holding a square: cells outside the boundary and inside
    # the obstacle sit outside the grid mask named by ``cells``, the one the
    # minimum runs over
    space = MissionSpace(
        Polygon([(0, 0), (20, 0), (20, 5), (10, 5), (10, 10), (0, 10)]),
        [Polygon([(2, 2), (5, 2), (5, 5), (2, 5)])],
    )
    grid = QuadratureGrid(space, 1.0, UniformDensity())
    mask = getattr(grid, cells)
    rng = np.random.default_rng(seed)
    # few distinct values, so the minimum ties across rows and columns
    probs = rng.choice([0.25, 0.5, 0.75, 1.0], size=(9, grid.cell_count))
    probs[:, ~mask] = 0.125  # below every masked entry: must be ignored
    probs[rng.integers(9, size=2)] = 0.0  # rows covering no mass are dropped
    probs = probs.clip(max=np.where(grid.weights > 0, 1.0, 0.0))
    probs[rng.integers(9), rng.choice(np.flatnonzero(mask), 3)] = 0.0
    probs, _, keep = _ground_set(probs, grid)
    got = _elemental_curvature_argmin(probs, keep, grid)
    want = copied_elemental_argmin(probs, keep, mask)
    assert got[0] == want[0] and got[1] == want[1]
    report = bound_report(probs, grid, 3)
    assert (report.elemental_curvature, report.worst_pair) == want
