import numpy as np
import pytest

from coverplan import (
    InvalidParameterError,
    MissionSpace,
    Polygon,
    QuadratureGrid,
    RefineConfig,
    SensorModel,
    UniformDensity,
    coverage,
    is_feasible,
    objective_gradient,
    project_feasible,
    refine,
)

from conftest import make_problem


def secant_directional(positions, i, direction, space, grid, sensor, t=1e-4):
    """Two-sided secant of the full objective along one direction."""
    direction = np.asarray(direction) / np.linalg.norm(direction)
    plus = positions.copy()
    minus = positions.copy()
    plus[i] = positions[i] + t * direction
    minus[i] = positions[i] - t * direction
    h_plus = coverage(plus, space, grid, sensor)
    h_minus = coverage(minus, space, grid, sensor)
    return (h_plus - h_minus) / (2.0 * t)


def test_gradient_matches_full_objective_secant(empty_rect):
    grid, sensor, _ = make_problem(empty_rect)
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 20:
        pos = np.column_stack(
            [rng.uniform(2.0, 18.0, size=3), rng.uniform(2.0, 8.0, size=3)]
        )
        i = int(rng.integers(0, 3))
        grad = objective_gradient(pos, i, empty_rect, grid, sensor)
        if np.linalg.norm(grad) < 1e-6:
            continue
        along = secant_directional(pos, i, grad, empty_rect, grid, sensor)
        assert along == pytest.approx(np.linalg.norm(grad), rel=0.01)
        checked += 1


def test_gradient_zero_at_symmetric_center():
    boundary = Polygon([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
    space = MissionSpace(boundary)
    grid = QuadratureGrid(space, 1.0, UniformDensity())
    sensor = SensorModel(decay=0.2, radius=100.0)
    grad = objective_gradient(np.array([[5.0, 5.0]]), 0, space, grid, sensor)
    assert np.linalg.norm(grad) < 1e-9


def test_gradient_points_toward_uncovered_mass(empty_rect):
    # a lone agent near the left wall should want to move right
    grid, sensor, _ = make_problem(empty_rect)
    grad = objective_gradient(np.array([[2.0, 5.0]]), 0, empty_rect, grid, sensor)
    assert grad[0] > 0.0
    assert abs(grad[1]) < abs(grad[0])


def test_gradient_zero_when_out_of_reach(empty_rect):
    grid, _, _ = make_problem(empty_rect)
    sensor = SensorModel(decay=0.1, radius=0.2)
    # integer coordinates sit between cell centers, over 0.2 away from each
    grad = objective_gradient(np.array([[10.0, 5.0]]), 0, empty_rect, grid, sensor)
    assert np.array_equal(grad, np.zeros(2))


def test_gradient_validation(empty_rect):
    grid, sensor, _ = make_problem(empty_rect)
    with pytest.raises(InvalidParameterError):
        objective_gradient(np.array([[2.0, 5.0]]), 3, empty_rect, grid, sensor)
    with pytest.raises(InvalidParameterError):
        objective_gradient(np.array([[50.0, 5.0]]), 0, empty_rect, grid, sensor)


def test_project_feasible_cases(one_block):
    # already feasible: returned untouched
    p = project_feasible((2.0, 2.0), one_block)
    assert np.array_equal(p, [2.0, 2.0])
    # inside the block (8,3)-(12,7): nearest edge is the bottom one
    p = project_feasible((10.0, 3.4), one_block)
    assert np.allclose(p, [10.0, 3.0])
    # outside the boundary: clipped back to the wall
    p = project_feasible((25.0, 5.0), one_block)
    assert np.allclose(p, [20.0, 5.0])
    # outside a corner: snapped to the corner vertex
    p = project_feasible((-3.0, -4.0), one_block)
    assert np.allclose(p, [0.0, 0.0])
    for q in [p, project_feasible((10.0, 3.4), one_block)]:
        assert is_feasible(q, one_block)


def test_refine_config_validation():
    RefineConfig()
    with pytest.raises(InvalidParameterError):
        RefineConfig(step_scale=0.0)
    with pytest.raises(InvalidParameterError):
        RefineConfig(fd_epsilon=-1.0)
    with pytest.raises(InvalidParameterError):
        RefineConfig(max_iterations=0)
    with pytest.raises(InvalidParameterError):
        RefineConfig(schedule="parallel")
    with pytest.raises(InvalidParameterError):
        RefineConfig(collision_radius=-1e-3)


def test_refine_improves_and_stays_feasible(one_block):
    grid, sensor, _ = make_problem(one_block, decay=0.3)
    start = np.array([[3.0, 2.0], [3.5, 7.5], [17.0, 5.0]])
    result = refine(start, one_block, grid, sensor, RefineConfig(max_iterations=40))
    assert result.value >= result.initial_value
    values = [s.value for s in result.steps]
    assert np.all(np.diff(values) >= -1e-12)
    for step in result.steps:
        for p in step.positions:
            assert is_feasible(p, one_block)
    assert result.reason in ("converged", "max_iterations", "no_improvement")
    assert result.value == pytest.approx(
        coverage(result.positions, one_block, grid, sensor), abs=1e-9
    )


def test_refine_schedules_both_improve(empty_rect):
    grid, sensor, _ = make_problem(empty_rect, decay=0.3)
    start = np.array([[4.0, 4.0], [5.0, 6.0]])
    for schedule in ("synchronous", "sequential"):
        cfg = RefineConfig(max_iterations=30, schedule=schedule)
        result = refine(start, empty_rect, grid, sensor, cfg)
        assert result.value > result.initial_value


def test_refine_huge_tolerance_converges_in_place(empty_rect):
    grid, sensor, _ = make_problem(empty_rect)
    start = np.array([[4.0, 4.0], [15.0, 6.0]])
    result = refine(start, empty_rect, grid, sensor, RefineConfig(grad_tolerance=1e9))
    assert result.reason == "converged"
    assert np.array_equal(result.positions, start)
    assert len(result.steps) == 1


def test_refine_single_sweep_cap(empty_rect):
    grid, sensor, _ = make_problem(empty_rect, decay=0.3)
    start = np.array([[4.0, 4.0], [15.0, 6.0]])
    result = refine(start, empty_rect, grid, sensor, RefineConfig(max_iterations=1))
    assert len(result.steps) <= 2


def test_refine_trace_rows_shape(empty_rect):
    grid, sensor, _ = make_problem(empty_rect, decay=0.3)
    start = np.array([[4.0, 4.0], [15.0, 6.0]])
    result = refine(start, empty_rect, grid, sensor, RefineConfig(max_iterations=5))
    rows = list(result.trace_rows())
    assert len(rows) == 2 * len(result.steps)
    iters = sorted({r[0] for r in rows})
    assert iters == [s.iteration for s in result.steps]
    # rows carry finite numbers only
    flat = np.array([r[2:] for r in rows], dtype=float)
    assert np.all(np.isfinite(flat))


def test_refine_rejects_bad_start(empty_rect):
    grid, sensor, _ = make_problem(empty_rect)
    with pytest.raises(InvalidParameterError, match="position 1"):
        refine(
            np.array([[4.0, 4.0], [50.0, 5.0]]), empty_rect, grid, sensor, RefineConfig()
        )
    with pytest.raises(InvalidParameterError):
        refine(np.empty((0, 2)), empty_rect, grid, sensor, RefineConfig())
    with pytest.raises(InvalidParameterError, match="distinct"):
        refine(
            np.array([[4.0, 4.0], [4.0, 4.0]]), empty_rect, grid, sensor, RefineConfig()
        )


def test_refine_agents_never_merge(empty_rect):
    # two agents pulled toward the same optimum must keep their spacing
    grid, sensor, _ = make_problem(empty_rect, decay=0.4)
    start = np.array([[9.9, 5.0], [10.1, 5.0]])
    cfg = RefineConfig(max_iterations=50, collision_radius=1e-6)
    result = refine(start, empty_rect, grid, sensor, cfg)
    for step in result.steps:
        d = np.linalg.norm(step.positions[0] - step.positions[1])
        assert d >= 1e-6


@pytest.mark.parametrize("schedule", ["synchronous", "sequential"])
def test_refine_without_backtracking_takes_full_steps(empty_rect, schedule):
    # every move that is neither projected nor blocked covers exactly step_scale
    grid, sensor, _ = make_problem(empty_rect, decay=0.3)
    start = np.array([[4.0, 4.0], [15.0, 6.0], [10.0, 2.0]])
    cfg = RefineConfig(max_iterations=8, backtracking=False, step_scale=0.75, schedule=schedule)
    result = refine(start, empty_rect, grid, sensor, cfg)
    assert result.reason == "max_iterations"
    full = 0
    for before, after in zip(result.steps, result.steps[1:]):
        for i, (p, q) in enumerate(zip(before.positions, after.positions)):
            interior = 0.0 < q[0] < 20.0 and 0.0 < q[1] < 10.0
            if after.grad_norms[i] > 0 and interior:
                assert np.linalg.norm(q - p) == pytest.approx(cfg.step_scale, rel=1e-12)
                full += 1
    assert full == 3 * cfg.max_iterations
