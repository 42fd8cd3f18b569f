import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverplan.greedy as greedy_mod
from coverplan import (
    EmptyCandidateSetError,
    InvalidParameterError,
    MissionSpace,
    Polygon,
    QuadratureGrid,
    SensorModel,
    UniformDensity,
    bundled_scenario_path,
    candidate_lattice,
    coverage,
    greedy_place,
    marginal_gain,
    parse_scenario,
)

from problems import make_problem, random_space


def test_greedy_matches_exhaustive_small(block_problem):
    space, grid, sensor, cand = block_problem
    result = greedy_place(space, grid, sensor, cand, 3, method="eager")
    assert len(result.indices) == 3
    assert len(set(result.indices)) == 3
    # positions are the selected candidates, in selection order
    assert np.array_equal(result.positions, cand[list(result.indices)])
    # reported value equals a from-scratch evaluation
    assert result.value == pytest.approx(
        coverage(result.positions, grid, sensor), abs=1e-9
    )


def test_gains_are_nonincreasing(block_problem):
    space, grid, sensor, cand = block_problem
    result = greedy_place(space, grid, sensor, cand, 6)
    gains = np.asarray(result.gains)
    assert np.all(np.diff(gains) <= 1e-9)
    assert np.allclose(np.cumsum(gains), result.values)


def test_lazy_and_eager_agree(block_problem):
    space, grid, sensor, cand = block_problem
    lazy = greedy_place(space, grid, sensor, cand, 5, method="lazy")
    eager = greedy_place(space, grid, sensor, cand, 5, method="eager")
    assert lazy.indices == eager.indices
    assert np.allclose(lazy.gains, eager.gains)
    assert lazy.value == eager.value


def test_lazy_and_eager_agree_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(10):
        space = random_space(rng)
        grid = QuadratureGrid(space, 1.0, UniformDensity())
        cand = candidate_lattice(space, 3.0)
        if len(cand) < 4:
            continue
        sensor = SensorModel(decay=float(rng.uniform(0.05, 0.5)), radius=30.0)
        lazy = greedy_place(space, grid, sensor, cand, 4, method="lazy")
        eager = greedy_place(space, grid, sensor, cand, 4, method="eager")
        assert lazy.indices == eager.indices
        assert lazy.value == eager.value


def test_lazy_skips_evaluations(empty_rect):
    # with fast-decaying sensors most gains are local, so the heap pays off
    grid, _, cand = make_problem(empty_rect, spacing=2.0)
    sensor = SensorModel(decay=0.8, radius=30.0)
    lazy = greedy_place(empty_rect, grid, sensor, cand, 5, method="lazy")
    eager = greedy_place(empty_rect, grid, sensor, cand, 5, method="eager")
    assert lazy.evaluations < eager.evaluations
    # eager scans every untaken candidate each round
    assert eager.evaluations == 5 * len(cand) - (0 + 1 + 2 + 3 + 4)


def test_tie_break_picks_lowest_index():
    # coincident candidates have bit-identical gains; the lowest index must win
    boundary = Polygon([(0.0, 0.0), (10.0, 0.0), (10.0, 4.0), (0.0, 4.0)])
    space = MissionSpace(boundary)
    grid = QuadratureGrid(space, 1.0, UniformDensity())
    sensor = SensorModel(decay=0.2, radius=50.0)
    cand = np.array([[3.0, 2.0], [3.0, 2.0], [3.0, 2.0]])
    for method in ("eager", "lazy"):
        result = greedy_place(space, grid, sensor, cand, 2, method=method)
        assert list(result.indices) == [0, 1]


def test_early_stop_when_nothing_left(empty_rect):
    # radius so large and decay zero that one agent saturates every cell
    grid, _, cand = make_problem(empty_rect)
    sensor = SensorModel(decay=0.0, radius=100.0)
    result = greedy_place(empty_rect, grid, sensor, cand, 4)
    assert result.stopped_early
    assert len(result.indices) == 1
    assert result.value == pytest.approx(grid.total_mass())


def test_team_size_validation(block_problem):
    space, grid, sensor, cand = block_problem
    with pytest.raises(InvalidParameterError):
        greedy_place(space, grid, sensor, cand, 0)
    with pytest.raises(InvalidParameterError):
        greedy_place(space, grid, sensor, cand, 2, method="clever")
    with pytest.raises(InvalidParameterError, match="got a list holding an integer of more than"):
        greedy_place(space, grid, sensor, cand, 2, method=[10**5000])
    with pytest.raises(EmptyCandidateSetError):
        greedy_place(space, grid, sensor, np.empty((0, 2)), 1)


def test_team_size_rejects_a_bool(block_problem):
    space, grid, sensor, cand = block_problem
    with pytest.raises(InvalidParameterError, match="positive integer, got True"):
        greedy_place(space, grid, sensor, cand, True)


def test_greedy_refuses_a_space_the_grid_was_not_built_on():
    # on empty_60x50's space sight lines cross wall_60x50's wall, so with the
    # wall's grid greedy would score past what it reaches on the wall (2937.37)
    empty, wall = (parse_scenario(bundled_scenario_path(name))
                   for name in ("empty_60x50", "wall_60x50"))
    grid = wall.build_grid()
    with pytest.raises(InvalidParameterError, match="the space the grid was built on"):
        greedy_place(empty.build_space(), grid, wall.build_sensor(), wall.build_candidates(),
                     wall.team_size)
    result = greedy_place(grid.space, grid, wall.build_sensor(), wall.build_candidates(),
                          wall.team_size)
    assert result.value == pytest.approx(2937.37, abs=0.01)


def test_oversized_team_takes_every_candidate(empty_rect):
    grid, _, _ = make_problem(empty_rect)
    sensor = SensorModel(decay=0.6, radius=5.0)
    cand = np.array([[2.0, 5.0], [10.0, 5.0], [18.0, 5.0]])
    result = greedy_place(empty_rect, grid, sensor, cand, 7)
    assert result.constraint_slack
    assert sorted(result.indices) == [0, 1, 2]
    normal = greedy_place(empty_rect, grid, sensor, cand, 3)
    assert not normal.constraint_slack
    assert normal.value == result.value


def test_value_monotone_in_team_size(block_problem):
    space, grid, sensor, cand = block_problem
    prev = 0.0
    for n in range(1, 6):
        value = greedy_place(space, grid, sensor, cand, n).value
        assert value >= prev - 1e-12
        prev = value


TINY = MissionSpace(Polygon([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0)]))
TINY_GRID = QuadratureGrid(TINY, 1.0, UniformDensity())


@st.composite
def synthetic_rows(draw):
    """Rows over a few cell values, so gains tie exactly; rows repeat and may be zero."""
    cells = TINY_GRID.cell_count
    value = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    kinds = draw(st.lists(st.lists(value, min_size=cells, max_size=cells), min_size=1, max_size=4))
    if draw(st.booleans()):
        kinds.append([0.0] * cells)
    picks = draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=8))
    return np.array([kinds[k] for k in picks])


@settings(max_examples=200, deadline=None)
@given(rows=synthetic_rows(), data=st.data())
def test_eager_and_lazy_share_one_selection(rows, data):
    n = len(rows)
    team = data.draw(st.integers(1, n + 2))
    cand = np.arange(2.0 * n).reshape(n, 2)
    sensor = SensorModel(decay=0.1, radius=10.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy_mod, "detection_matrix", lambda *args: rows)
        eager = greedy_place(TINY, TINY_GRID, sensor, cand, team, method="eager")
        lazy = greedy_place(TINY, TINY_GRID, sensor, cand, team, method="lazy")
    assert (lazy.indices, lazy.gains, lazy.values) == (eager.indices, eager.gains, eager.values)
    assert lazy.stopped_early == eager.stopped_early
    assert np.array_equal(eager.positions, cand[eager.indices])
    # eager scans every remaining candidate in each round it runs
    rounds_run = len(eager.indices) + eager.stopped_early
    assert eager.evaluations == sum(n - k for k in range(rounds_run))
    assert lazy.evaluations <= eager.evaluations
    # replay: each pick is the lowest-index best gain, and the run stops
    # exactly when the best gain left is 0
    miss = np.ones(TINY_GRID.cell_count)
    left = list(range(n))
    for k in range(min(team, n)):
        gains = [marginal_gain(TINY_GRID.weights * miss, rows[j]) for j in left]
        best = max(gains)
        if best == 0.0:
            assert eager.stopped_early and len(eager.indices) == k
            break
        j = left[gains.index(best)]
        assert (eager.indices[k], eager.gains[k]) == (j, best)
        left.remove(j)
        miss *= 1.0 - rows[j]
    else:
        assert not eager.stopped_early and len(eager.indices) == min(team, n)


@pytest.mark.parametrize("method", ["eager", "lazy"])
def test_evaluations_count_every_marginal_gain_call(block_problem, monkeypatch, method):
    # every gain goes through sensing.marginal_gain, so the count a run
    # reports is the number of those calls
    space, grid, sensor, cand = block_problem
    calls = []

    def counted(weighted_miss, row):
        calls.append(1)
        return marginal_gain(weighted_miss, row)

    monkeypatch.setattr(greedy_mod, "marginal_gain", counted)
    result = greedy_place(space, grid, sensor, cand, 5, method=method)
    assert result.evaluations == len(calls) > 0
