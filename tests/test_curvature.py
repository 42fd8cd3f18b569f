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


def test_domain_choice_changes_elemental_curvature(one_block):
    # obstacle-interior cells are invisible to everyone, so the wider domain
    # can only increase the curvature
    grid = QuadratureGrid(one_block, 1.0, UniformDensity())
    sensor = SensorModel(decay=0.01, radius=100.0)
    cand = np.array([[1.0, 1.0], [19.0, 9.0]])
    probs = detection_matrix(cand, one_block, grid.centers, sensor)
    a_feasible = elemental_curvature(probs, grid, domain="feasible")
    a_omega = elemental_curvature(probs, grid, domain="omega")
    assert a_omega >= a_feasible
    assert a_omega == 1.0
    with pytest.raises(InvalidParameterError):
        elemental_curvature(probs, grid, domain="everywhere")


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


def test_elemental_curvature_rises_with_decay(block_problem):
    # weaker long-range detection can only worsen the worst cell
    space, grid, sensor, cand = block_problem
    cache = DetectionCache(cand, space, grid.centers)
    rows = sweep_bounds(cache, grid, 5, sensor, "decay", [0.02, 0.1, 0.3, 0.9])
    alphas = [r.elemental_curvature for _, r in rows]
    assert np.all(np.diff(alphas) >= -1e-12)
