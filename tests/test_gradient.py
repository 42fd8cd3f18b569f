import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from coverplan import (
    GaussianMixtureDensity,
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
    greedy_place,
    is_feasible,
    line_of_sight_many,
    marginal_gain,
    miss_product,
    objective_gradient,
    parse_scenario,
    project_feasible,
    refine,
)
from coverplan import gradient
from coverplan.sensing import _distances

from problems import make_problem


def secant_directional(positions, i, direction, grid, sensor, t=1e-4):
    """Two-sided secant of the full objective along one direction."""
    direction = np.asarray(direction) / np.linalg.norm(direction)
    plus = positions.copy()
    minus = positions.copy()
    plus[i] = positions[i] + t * direction
    minus[i] = positions[i] - t * direction
    h_plus = coverage(plus, grid, sensor)
    h_minus = coverage(minus, grid, sensor)
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
        grad = objective_gradient(pos, i, grid, sensor)
        if np.linalg.norm(grad) < 1e-6:
            continue
        along = secant_directional(pos, i, grad, grid, sensor)
        assert along == pytest.approx(np.linalg.norm(grad), rel=0.01)
        checked += 1


def test_gradient_zero_at_symmetric_center():
    boundary = Polygon([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
    space = MissionSpace(boundary)
    grid = QuadratureGrid(space, 1.0, UniformDensity())
    sensor = SensorModel(decay=0.2, radius=100.0)
    grad = objective_gradient(np.array([[5.0, 5.0]]), 0, grid, sensor)
    assert np.linalg.norm(grad) < 1e-9


def test_gradient_points_toward_uncovered_mass(empty_rect):
    # a lone agent near the left wall should want to move right
    grid, sensor, _ = make_problem(empty_rect)
    grad = objective_gradient(np.array([[2.0, 5.0]]), 0, grid, sensor)
    assert grad[0] > 0.0
    assert abs(grad[1]) < abs(grad[0])


def test_gradient_zero_when_out_of_reach(empty_rect):
    grid, _, _ = make_problem(empty_rect)
    sensor = SensorModel(decay=0.1, radius=0.2)
    # integer coordinates sit between cell centers, over 0.2 away from each
    grad = objective_gradient(np.array([[10.0, 5.0]]), 0, grid, sensor)
    assert np.array_equal(grad, np.zeros(2))


def test_gradient_validation(empty_rect):
    grid, sensor, _ = make_problem(empty_rect)
    with pytest.raises(InvalidParameterError):
        objective_gradient(np.array([[2.0, 5.0]]), 3, grid, sensor)
    with pytest.raises(InvalidParameterError):
        objective_gradient(np.array([[50.0, 5.0]]), 0, grid, sensor)


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


def test_gradients_reject_decay_times_mass_past_its_bound(empty_rect):
    # a gradient component is at most decay times event mass, and refine squares it for a norm
    grid = QuadratureGrid(empty_rect, 1.0, UniformDensity(2.5e147))  # mass 5e149
    within, past = SensorModel(decay=1.5, radius=30.0), SensorModel(decay=2.5, radius=30.0)
    assert 1.5 * grid.total_mass() <= 1e150 < 2.5 * grid.total_mass()
    start = np.array([[5.0, 5.0]])
    assert np.isfinite(objective_gradient(start, 0, grid, within)).all()
    assert refine(start, grid, within, max_iterations=1).steps
    for call in (lambda: objective_gradient(start, 0, grid, past),
                 lambda: refine(start, grid, past)):
        with pytest.raises(InvalidParameterError) as info:
            call()
        assert str(info.value) == (
            f"decay times event mass must be <= 1e+150, got {2.5 * grid.total_mass()}"
        )


@pytest.mark.parametrize("cap", [0, True, 2.5])
def test_refine_rejects_a_max_iterations_that_is_no_positive_integer(empty_rect, cap):
    grid, sensor, _ = make_problem(empty_rect)
    rule = ">= 1" if cap == 0 else "a positive integer"
    with pytest.raises(InvalidParameterError, match=f"^max_iterations must be {rule}, got {cap}$"):
        refine(np.array([[4.0, 4.0]]), grid, sensor, max_iterations=cap)


def test_refine_takes_a_numpy_integer_max_iterations(empty_rect):
    grid, sensor, _ = make_problem(empty_rect, decay=0.3)
    start = np.array([[4.0, 4.0], [15.0, 6.0]])
    result = refine(start, grid, sensor, max_iterations=np.int64(3))
    assert (result.reason, len(result.steps)) == ("max_iterations", 4)
    assert_same_result(result, refine(start, grid, sensor, max_iterations=3))


def test_refine_improves_and_stays_feasible(one_block):
    grid, sensor, _ = make_problem(one_block, decay=0.3)
    start = np.array([[3.0, 2.0], [3.5, 7.5], [17.0, 5.0]])
    result = refine(start, grid, sensor, max_iterations=40)
    assert result.value >= result.steps[0].value
    values = [s.value for s in result.steps]
    assert np.all(np.diff(values) >= -1e-12)
    for step in result.steps:
        for p in step.positions:
            assert is_feasible(p, one_block)
    assert result.reason in ("converged", "max_iterations", "no_improvement")
    assert result.value == pytest.approx(
        coverage(result.positions, grid, sensor), abs=1e-9
    )


def test_refine_improves_a_close_pair(empty_rect):
    grid, sensor, _ = make_problem(empty_rect, decay=0.3)
    start = np.array([[4.0, 4.0], [5.0, 6.0]])
    result = refine(start, grid, sensor, max_iterations=30)
    assert result.value > result.steps[0].value


def test_refine_converges_in_place_where_no_row_sees_mass(empty_rect):
    grid, _, _ = make_problem(empty_rect)
    sensor = SensorModel(decay=0.1, radius=0.2)
    # integer coordinates sit between cell centers, over 0.2 away from each
    start = np.array([[4.0, 4.0], [15.0, 6.0]])
    result = refine(start, grid, sensor)
    assert result.reason == "converged"
    assert np.array_equal(result.positions, start)
    assert len(result.steps) == 1


def test_refine_single_sweep_cap(empty_rect):
    grid, sensor, _ = make_problem(empty_rect, decay=0.3)
    start = np.array([[4.0, 4.0], [15.0, 6.0]])
    result = refine(start, grid, sensor, max_iterations=1)
    assert len(result.steps) <= 2


def test_refine_trace_rows_shape(empty_rect):
    grid, sensor, _ = make_problem(empty_rect, decay=0.3)
    start = np.array([[4.0, 4.0], [15.0, 6.0]])
    result = refine(start, grid, sensor, max_iterations=5)
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
        refine(np.array([[4.0, 4.0], [50.0, 5.0]]), grid, sensor)
    with pytest.raises(InvalidParameterError):
        refine(np.empty((0, 2)), grid, sensor)
    with pytest.raises(InvalidParameterError, match="distinct"):
        refine(np.array([[4.0, 4.0], [4.0, 4.0]]), grid, sensor)


def test_refine_agents_never_merge(empty_rect):
    # two agents pulled toward the same optimum must keep their spacing
    grid, sensor, _ = make_problem(empty_rect, decay=0.4)
    start = np.array([[9.9, 5.0], [10.1, 5.0]])
    result = refine(start, grid, sensor, max_iterations=50)
    for step in result.steps:
        d = np.linalg.norm(step.positions[0] - step.positions[1])
        assert d >= 1e-6 * grid.cell_size


def others_miss(rows, i):
    """Oracle: per-cell probability that every agent except i misses."""
    return miss_product(np.delete(rows, i, 0))


def rule_distances(pos, grid):
    """|x - s| from each of the (k, 2) sources to every cell, as the detection rule measures it."""
    return _distances(np.asarray(pos, dtype=float), np.ascontiguousarray(grid.centers.T))


def agent_gradient(pos, weighted_miss, row, grid, sensor, dist=None):
    """Oracle: the area-term gradient of one agent, computed on its own.

    Each cell x adds decay * w * Π_{j≠i}(1 - p_j) * p_i * (x - s_i) / |x - s_i|;
    a cell centred on the agent adds nothing.  |x - s_i| is ``dist`` when
    given, else the detection rule's distance.
    """
    d = grid.centers - pos
    if dist is None:
        dist = rule_distances(np.reshape(pos, (1, 2)), grid)[0]
    pull = np.divide(weighted_miss * row, dist, out=np.zeros_like(dist), where=dist > 0)
    return sensor.decay * (pull @ d)


def central_difference(pos, miss, grid, sensor, fd_epsilon):
    """Oracle: central differences of the agent's part of the objective.

    Probes outside the feasible region are projected back into it; a component
    is zero when both probes along its axis are infeasible.
    """
    grad = np.zeros(2)
    for d in range(2):
        offset = fd_epsilon * np.eye(2)[d]
        plus, minus = pos + offset, pos - offset
        space = grid.space
        if not is_feasible(plus, space) and not is_feasible(minus, space):
            continue
        h_plus, h_minus = (
            marginal_gain(
                grid.weights * miss,
                detection_row(project_feasible(p, space), space, grid.centers, sensor),
            )
            for p in (plus, minus)
        )
        grad[d] = (h_plus - h_minus) / (2.0 * fd_epsilon)
    return grad


def _check_against_oracle(pos, i, grid, sensor):
    """The analytic gradient equals central differences at both probe sizes.

    The gap is measured against decay * sum(w * miss * p), the total size of
    the per-cell terms and a bound on the gradient's norm, so cancelling
    terms do not blow it up.  A cell at distance r from the agent puts a
    truncation error of order (fd / r)^2 into the oracle, so agents keep
    0.1 from every cell centre.
    """
    assume(float(np.min(np.linalg.norm(grid.centers - pos[i], axis=1))) >= 0.1)
    rows = detection_matrix(pos, grid.space, grid.centers, sensor)
    miss = others_miss(rows, i)
    wm = grid.weights * miss
    analytic = agent_gradient(pos[i], wm, rows[i], grid, sensor)
    assert np.array_equal(analytic, objective_gradient(pos, i, grid, sensor))
    every = [agent_gradient(p, grid.weights * others_miss(rows, k), rows[k], grid, sensor)
             for k, p in enumerate(pos)]
    assert np.array_equal(gradient._gradients(pos, rows, grid, sensor), every)
    scale = sensor.decay * float(wm @ rows[i])
    for eps in (1e-3, 5e-4):
        oracle = central_difference(pos[i], miss, grid, sensor, eps)
        assert np.linalg.norm(analytic - oracle) <= 1e-5 * scale


_coordinate = st.floats(0.05, 0.95)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=4, unique=True),
       st.data())
def test_gradient_matches_central_difference_without_obstacles(empty_rect, unit, data):
    pos = np.array(unit) * [20.0, 10.0]
    i = data.draw(st.integers(0, len(pos) - 1))
    density = GaussianMixtureDensity(
        centers=[(5.0, 3.0), (14.0, 7.0)], weights=[2.0, 1.0], sigmas=[2.5, 4.0], baseline=0.2
    )
    for dens in (UniformDensity(), density):
        grid = QuadratureGrid(empty_rect, 1.0, dens)
        sensor = SensorModel(decay=data.draw(st.sampled_from([0.05, 0.12, 0.4])), radius=30.0)
        _check_against_oracle(pos, i, grid, sensor)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(),
       st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=3, unique=True),
       st.data())
def test_gradient_matches_central_difference_where_no_sight_line_flips(
    one_block, lshape, use_block, unit, data
):
    space = one_block if use_block else lshape
    grid, sensor, _ = make_problem(space, decay=0.12)
    pos = np.array(unit) * [20.0, 10.0]
    assume(bool(np.all(space.feasible_many(pos))))
    i = data.draw(st.integers(0, len(pos) - 1))
    offsets = 1e-3 * np.array([[0.0, 0.0], [1, 0], [0, 1], [-1, 0], [0, -1]])
    probes = pos[i] + np.concatenate([offsets, offsets / 2])
    assume(bool(np.all(space.feasible_many(probes))))
    masks = line_of_sight_many(probes, grid.centers, space)
    assume(bool(np.all(masks == masks[0])))
    _check_against_oracle(pos, i, grid, sensor)


def test_cell_centred_on_the_agent_adds_nothing(empty_rect):
    grid, sensor, _ = make_problem(empty_rect, decay=0.12)
    pos = np.array([[3.5, 4.5], [12.0, 6.0]])  # agent 0 sits on a cell centre
    assert np.any(np.all(grid.centers == pos[0], axis=1))
    rows = detection_matrix(pos, empty_rect, grid.centers, sensor)
    wm = grid.weights * others_miss(rows, 0)
    with np.errstate(all="raise"):
        got = agent_gradient(pos[0], wm, rows[0], grid, sensor)
        assert np.array_equal(got, objective_gradient(pos, 0, grid, sensor))
    others = np.any(grid.centers != pos[0], axis=1)
    d = grid.centers[others] - pos[0]
    dist = np.linalg.norm(d, axis=1)
    want = sensor.decay * ((wm * rows[0])[others] / dist) @ d
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def _spy_scales(monkeypatch):
    """Every step length a line search of refine yields, in order."""
    scales = []
    line_search = gradient._scales

    def spy(h, tally):
        for scale in line_search(h, tally):
            scales.append(scale)
            yield scale

    monkeypatch.setattr(gradient, "_scales", spy)
    return scales


def test_line_search_stops_halving_at_fd_epsilon(one_block, monkeypatch):
    # a full step is half a cell and the floor a thousandth of one
    grid, sensor, _ = make_problem(one_block, cell_size=4.0, decay=0.3)
    start = np.array([[3.0, 2.0], [3.5, 7.5], [17.0, 5.0]])
    scales = _spy_scales(monkeypatch)
    result = refine(start, grid, sensor, max_iterations=30)
    assert min(scales) >= 4e-3
    assert set(scales) <= {2.0 * 0.5**k for k in range(9)}
    assert 2.0**-7 in scales  # the search did reach the floor
    # every halved scale a search yields is one halving, in either sweep
    halved = sum(s < 2.0 for s in scales)
    assert 0 < result.halvings == halved


@pytest.mark.parametrize(
    "step, floor, halvings",
    [(0.5, 1e-3, 8), (2.0**-5, 6.25e-5, 8), (8.0, 0.016, 8), (0.15, 3e-4, 8)],
)
def test_scales_halve_down_to_fd_epsilon(step, floor, halvings):
    # a line search over cells of size h = 2 * step halves down to floor = h / 1000
    tally = {"halvings": 0}
    scales = list(gradient._scales(2 * step, tally))
    assert scales == [step * 0.5**k for k in range(halvings + 1)]
    assert scales[-1] >= floor > scales[-1] / 2
    assert tally["halvings"] == halvings


def test_rows_counts_every_row_refine_asks_for(one_block, monkeypatch):
    grid, sensor, _ = make_problem(one_block, decay=0.3)
    start = np.array([[3.0, 2.0], [3.5, 7.5], [17.0, 5.0]])
    asked = [0]
    row, matrix = gradient.detection_row, gradient.detection_matrix

    def spy_row(*args):
        asked[0] += 1
        return row(*args)

    def spy_matrix(positions, *rest):
        asked[0] += len(positions)
        return matrix(positions, *rest)

    monkeypatch.setattr(gradient, "detection_row", spy_row)
    monkeypatch.setattr(gradient, "detection_matrix", spy_matrix)
    result = refine(start, grid, sensor, max_iterations=20)
    assert result.rows == asked[0] > len(start)


def test_refine_decides_each_sight_line_once(monkeypatch):
    # greedy's lattice call decides the seed's sight lines, and a vetoed joint
    # step every proposal the rescue makes again, bit for bit: the space keeps
    # their rows, so no source reaches the shadow pass twice
    from coverplan.shadows import Shadows

    sc = parse_scenario(bundled_scenario_path("random_60x50"))
    space = sc.build_space()
    grid, sensor, cand = sc.build_grid(), sc.build_sensor(), sc.build_candidates()
    shadowed = []
    lines = Shadows.lines

    def spy_lines(self, src):
        shadowed.extend(p.tobytes() for p in src)
        return lines(self, src)

    monkeypatch.setattr(Shadows, "lines", spy_lines)
    seed = greedy_place(space, grid, sensor, cand, sc.team_size)
    result = refine(seed.positions, grid, sensor, max_iterations=1)
    assert result.rescues == 1
    assert len(shadowed) == len(set(shadowed))
    # past greedy's lattice, fewer sources than refine's rows beyond its seed
    assert len(shadowed) - len(cand) < result.rows - sc.team_size


# Rows refine computed with a finite-difference gradient and no step floor, on
# each bundled scenario at its own settings: 1440 / 7260 / 7270 / 6918 / 8104
# in its sweeps, plus the 10 starting rows.
PARENT_ROWS = {
    "empty_60x50": 1450,
    "wall_60x50": 7270,
    "maze_60x50": 7280,
    "random_60x50": 6928,
    "rooms_60x50": 8114,
}


@functools.lru_cache(maxsize=None)
def _bundled(name):
    """A bundled scenario's problem and refine settings, and its greedy seed."""
    sc = parse_scenario(bundled_scenario_path(name))
    space = sc.build_space()
    grid = sc.build_grid()
    sensor = sc.build_sensor()
    seed = greedy_place(space, grid, sensor, sc.build_candidates(), sc.team_size)
    return (seed.positions, grid, sensor), sc.refine, seed


@functools.lru_cache(maxsize=None)
def _bundled_refine(name):
    problem, options, seed = _bundled(name)
    return seed, refine(*problem, **options)


@pytest.mark.parametrize("name", sorted(PARENT_ROWS))
def test_refine_rows_guard_on_bundled_scenarios(name):
    seed, result = _bundled_refine(name)
    assert result.value >= seed.value
    assert result.rows <= PARENT_ROWS[name]


@pytest.mark.parametrize("name", ["wall_60x50", "random_60x50"])
@pytest.mark.parametrize("n", [1, 2, 12])
def test_every_agents_gradient_equals_the_per_agent_oracle(name, n):
    # the running prefix of the others' miss and the stacked product give
    # each agent the oracle's gradient to the bit, for teams past the
    # hypothesis tests' four agents too
    (_, grid, sensor), _, _ = _bundled(name)
    space = grid.space
    xmin, ymin, xmax, ymax = space.bbox
    off = np.random.default_rng(n).uniform((xmin, ymin), (xmax, ymax), size=(100, 2))
    pos = off[space.feasible_many(off)][:n]
    assert len(pos) == n
    rows = detection_matrix(pos, space, grid.centers, sensor)
    every = [agent_gradient(p, grid.weights * others_miss(rows, i), rows[i], grid, sensor)
             for i, p in enumerate(pos)]
    got = gradient._gradients(pos, rows, grid, sensor)
    assert np.array_equal(got, every) and np.all(np.any(got != 0, axis=1))


def test_the_gradient_measures_distances_as_the_detection_rule_does(empty_rect):
    # off the lattice np.hypot rounds some |x - s| otherwise than the rule's
    # sqrt(dx*dx + dy*dy), and the gradient follows the rule to the bit
    grid, sensor, _ = make_problem(empty_rect, decay=0.12)
    pos = np.array([[3.3, 4.7], [12.1, 6.9], [17.77, 2.123], [0.4, 9.31]])
    d = grid.centers - pos[:, None]
    hypot = np.hypot(d[..., 0], d[..., 1])
    assert np.any(hypot != rule_distances(pos, grid), axis=1).all()
    rows = detection_matrix(pos, empty_rect, grid.centers, sensor)
    wm = [grid.weights * others_miss(rows, i) for i in range(len(pos))]
    got = gradient._gradients(pos, rows, grid, sensor)
    rule = [agent_gradient(p, wm[i], rows[i], grid, sensor) for i, p in enumerate(pos)]
    assert got.tobytes() == np.array(rule).tobytes()
    by_hypot = [agent_gradient(p, wm[i], rows[i], grid, sensor, hypot[i])
                for i, p in enumerate(pos)]
    assert np.any(got != by_hypot)


def reference_refine(initial, grid, sensor, max_iterations):
    """Refine as it was before the joint step was stacked.

    Each iteration takes the agents' gradients one at a time from the oracle,
    and the joint step proposes, projects and collision-tests one agent at a
    time, with one ``detection_row`` per changed agent.  The rescue sweep is
    the library's own: it was already sequential.
    """
    pos = np.array(initial, dtype=float)
    n = len(pos)
    rows = detection_matrix(pos, grid.space, grid.centers, sensor)
    tally = {"rows": n, "halvings": 0, "rescues": 0, "forfeits": 0}
    value = coverage_from_rows(grid, rows)
    steps = [gradient.RefineStep(0, pos.copy(), value, np.zeros(n))]
    reason = "max_iterations"
    mean_density = grid.total_mass() / (grid.feasible_count * grid.cell_size**2)
    for it in range(1, max_iterations + 1):
        grads = np.zeros((n, 2))
        for i in range(n):
            grads[i] = agent_gradient(
                pos[i], grid.weights * others_miss(rows, i), rows[i], grid, sensor
            )
        norms = np.linalg.norm(grads, axis=1)
        if it == 1:
            steps[0].grad_norms = norms.copy()
        if float(np.max(norms)) <= 1e-3 * grid.cell_size * mean_density:
            reason = "converged"
            break
        moved, pos, rows, value = _reference_joint_step(
            pos, rows, value, grid, sensor, tally, grads
        )
        steps.append(gradient.RefineStep(it, pos.copy(), value, norms))
        if not moved:
            reason = "no_improvement"
            break
    return gradient.RefineResult(steps, reason, **tally)


def _reference_propose(pos, i, direction, scale, grid):
    q = project_feasible(pos[i] + scale * direction, grid.space)
    others = np.delete(pos, i, 0)
    if len(others) and np.min(np.linalg.norm(others - q[None, :], axis=1)) < 1e-6 * grid.cell_size:
        return None
    return q


def _reference_joint_step(pos, rows, value, grid, sensor, tally, grads):
    norms = np.linalg.norm(grads, axis=1)
    moving = np.nonzero(norms > 0)[0]
    if len(moving) == 0:
        return False, pos, rows, value
    dirs = np.zeros_like(grads)
    dirs[moving] = grads[moving] / norms[moving, None]
    for scale in gradient._scales(grid.cell_size, tally):
        cand = pos.copy()
        for i in moving:
            q = _reference_propose(cand, i, dirs[i], scale, grid)
            if q is None:
                tally["forfeits"] += 1
            else:
                cand[i] = q
        changed = np.nonzero(np.any(cand != pos, axis=1))[0]
        if len(changed) == 0:
            return False, pos, rows, value
        new_rows = rows.copy()
        for i in changed:
            new_rows[i] = detection_row(cand[i], grid.space, grid.centers, sensor)
        tally["rows"] += len(changed)
        new_value = coverage_from_rows(grid, new_rows)
        if new_value > value:
            return True, cand, new_rows, new_value
    return gradient._agent_sweep(pos, rows, value, grid, sensor, tally, dirs)


def assert_same_result(got, want):
    """Two RefineResults agree to the bit: every array's bytes, value, reason and counts."""
    counts = ("reason", "rows", "halvings", "rescues", "forfeits")
    assert [getattr(got, c) for c in counts] == [getattr(want, c) for c in counts]
    assert len(got.steps) == len(want.steps)
    for a, b in zip(got.steps, want.steps):
        assert a.iteration == b.iteration
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.grad_norms.tobytes() == b.grad_norms.tobytes()
        assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()


@pytest.mark.parametrize("name", sorted(PARENT_ROWS))
def test_refine_matches_the_per_agent_reference_on_bundled_scenarios(name):
    problem, options, _ = _bundled(name)
    assert_same_result(_bundled_refine(name)[1], reference_refine(*problem, **options))


@pytest.fixture()
def branches(monkeypatch):
    """Counts of projected proposals and of collision forfeits while the test runs."""
    counts = {"projected": 0, "forfeits": 0}
    project, collides = gradient.project_feasible, gradient._collides

    def spy_project(p, space):
        counts["projected"] += not is_feasible(p, space)
        return project(p, space)

    def spy_collides(*args):
        hit = collides(*args)
        counts["forfeits"] += hit
        return hit

    monkeypatch.setattr(gradient, "project_feasible", spy_project)
    monkeypatch.setattr(gradient, "_collides", spy_collides)
    return counts


def _peaked(space, centres):
    # event mass piled up on both sides of a corner, so the pull of an agent
    # half a cell from the corner points into it and a full step overshoots
    density = GaussianMixtureDensity(centers=centres, weights=[1.0] * len(centres),
                                     sigmas=[1.0] * len(centres), baseline=0.01)
    return QuadratureGrid(space, 1.0, density)


@pytest.mark.parametrize(
    "shape, peak, start",
    [
        # the obstacle's lower left corner
        ("one_block", [(7.5, 6.5), (11.5, 2.5)], [[7.7, 2.7], [3.0, 8.0]]),
        # the obstacle's upper right corner
        ("one_block", [(12.5, 3.5), (8.5, 7.5)], [[12.3, 7.3], [3.0, 2.0]]),
        # the reflex corner
        ("lshape", [(9.5, 8.5), (14.5, 4.5)], [[9.8, 4.8], [3.0, 2.0]]),
    ],
)
def test_refine_matches_the_reference_where_steps_hug_a_wall(request, branches, shape, peak, start):
    space = request.getfixturevalue(shape)
    grid = _peaked(space, peak)
    sensor = SensorModel(decay=0.3, radius=30.0)
    result = refine(np.array(start), grid, sensor, max_iterations=10)
    assert branches["projected"] > 0
    assert_same_result(result, reference_refine(start, grid, sensor, max_iterations=10))


@pytest.mark.parametrize(
    "peak, start, stays",
    [
        (None, [[1.0, 0.5], [1.5, 0.5]], 0),  # agent 0 steps onto agent 1
        (4.5, [[4.0, 0.5], [5.0, 0.5]], 1),  # agent 1 steps onto agent 0's new place
    ],
)
def test_refine_matches_the_reference_when_a_mover_forfeits(branches, peak, start, stays):
    # in a one-cell-high corridor every direction is exactly along x, so a
    # full step of 0.5 lands exactly on the spot named above
    corridor = MissionSpace(Polygon([(0, 0), (20, 0), (20, 1), (0, 1)]))
    grid, sensor, _ = make_problem(corridor, decay=0.3)
    if peak is not None:
        grid = QuadratureGrid(corridor, 1.0, GaussianMixtureDensity(
            centers=[(peak, 0.5)], weights=[1.0], sigmas=[0.5], baseline=0.01))
    start = np.array(start)
    result = refine(start, grid, sensor, max_iterations=5)
    assert result.forfeits == branches["forfeits"] > 0
    first = result.steps[1].positions
    assert first[stays, 0] == start[stays, 0] and first[1 - stays, 0] != start[1 - stays, 0]
    assert_same_result(result, reference_refine(start, grid, sensor, max_iterations=5))


def test_refine_counts_its_rescue_sweeps(monkeypatch):
    problem, options, _ = _bundled("wall_60x50")
    sweeps = [0]
    agent_sweep = gradient._agent_sweep

    def spy(*args):
        sweeps[0] += 1
        return agent_sweep(*args)

    monkeypatch.setattr(gradient, "_agent_sweep", spy)
    result = refine(*problem, **options)
    assert result.rescues == sweeps[0] > 0
    assert result.forfeits == 0  # greedy's lattice spreads the agents apart


def _spy_joint_step(monkeypatch):
    """Record, from this call on, feasibility calls made outside detection matrices,
    the size of each detection matrix and the number of detection rows."""
    calls = {"feasible": [], "matrix": [], "row": 0}
    decide, matrix, row = MissionSpace.feasible_many, gradient.detection_matrix, gradient.detection_row
    in_matrix = [False]

    def spy_feasible(self, points):
        if not in_matrix[0]:
            calls["feasible"].append(len(points))
        return decide(self, points)

    def spy_matrix(positions, *rest):
        calls["matrix"].append(len(positions))
        in_matrix[0] = True
        try:
            return matrix(positions, *rest)
        finally:
            in_matrix[0] = False

    def spy_row(*args):
        calls["row"] += 1
        return row(*args)

    monkeypatch.setattr(MissionSpace, "feasible_many", spy_feasible)
    monkeypatch.setattr(gradient, "detection_matrix", spy_matrix)
    monkeypatch.setattr(gradient, "detection_row", spy_row)
    return calls


@pytest.mark.parametrize("n", [1, 3, 10])
def test_joint_step_decides_and_builds_in_one_call_each(empty_rect, monkeypatch, n):
    grid, sensor, _ = make_problem(empty_rect, decay=0.3)
    # a lopsided huddle: every agent has room to spread and none lands on another
    start = np.array([[6.3 + 1.5 * (k % 5), 3.7 + 2.1 * (k // 5)] for k in range(n)])
    joint_step_calls = _spy_joint_step(monkeypatch)
    result = refine(start, grid, sensor, max_iterations=1)
    assert (result.reason, len(result.steps)) == ("max_iterations", 2)  # the step was taken
    changed = int(np.sum(np.any(result.positions != start, axis=1)))
    assert changed == n
    # the start check, then every mover's target at the one scale
    assert joint_step_calls["feasible"] == [n, n]
    # the starting matrix, then one matrix of the changed agents
    assert joint_step_calls["matrix"] == [n, changed]
    assert joint_step_calls["row"] == 0
    assert result.rows == n + changed


def _sweep_state(empty_rect, start):
    grid, sensor, _ = make_problem(empty_rect)
    pos = np.array(start, dtype=float)
    rows = detection_matrix(pos, grid.space, grid.centers, sensor)
    tally = {"rows": len(pos), "halvings": 0, "rescues": 0, "forfeits": 0}
    return grid, sensor, pos, rows, coverage_from_rows(grid, rows), tally


def test_the_rescue_skips_a_still_agent_and_forfeits_a_step_onto_another(empty_rect):
    # agent 0 has no direction; agent 1's first step lands on it, each halving gains nothing
    grid, sensor, pos, rows, value, tally = _sweep_state(empty_rect, [[5, 5], [5.5, 5]])
    dirs = np.array([[0.0, 0.0], [-1.0, 0.0]])
    moved, new_pos, _, new_value = gradient._agent_sweep(
        pos, rows, value, grid, sensor, tally, dirs
    )
    assert not moved and new_value == value
    assert new_pos.tobytes() == pos.tobytes()
    assert tally == {"rows": 10, "halvings": 8, "rescues": 1, "forfeits": 1}


def test_the_joint_proposal_forfeits_a_step_onto_another_agent(empty_rect):
    grid, _, _ = make_problem(empty_rect)
    pos = np.array([[5.0, 5.0], [5.5, 5.0]])
    tally = {"forfeits": 0}
    cand = gradient._joint_proposal(pos, [0], np.array([[1.0, 0.0], [0.0, 0.0]]), 0.5,
                                    grid, tally)
    assert cand.tobytes() == pos.tobytes()
    assert tally == {"forfeits": 1}


def test_the_joint_step_stops_when_every_mover_is_projected_back_in_place(empty_rect):
    # the gradient points out of the box through the edge the agent sits on
    grid, sensor, pos, rows, value, tally = _sweep_state(empty_rect, [[10, 0]])
    grads = np.array([[0.0, -3.0]])
    moved, new_pos, new_rows, new_value = gradient._synchronous_sweep(
        pos, rows, value, grid, sensor, tally, grads, np.linalg.norm(grads, axis=1)
    )
    assert not moved and new_value == value
    assert new_pos is pos and new_rows is rows
    assert tally == {"rows": 1, "halvings": 0, "rescues": 0, "forfeits": 0}
