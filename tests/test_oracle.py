import sys

import numpy as np
import pytest

from coverplan import (
    InstanceTooLargeError,
    InvalidParameterError,
    PropertyReport,
    SensorModel,
    brute_force,
    check_definition_equivalence,
    check_submodular,
    coverage,
    greedy_place,
    oracle,
)

from problems import make_problem


def test_brute_force_counts_subsets(empty_rect):
    grid, sensor, _ = make_problem(empty_rect, spacing=8.0)
    cand = np.array([[2.0, 2.0], [10.0, 2.0], [18.0, 2.0], [6.0, 8.0], [14.0, 8.0]])
    result = brute_force(cand, 2, grid, sensor)
    assert result.subsets_evaluated == 10
    assert len(result.best_subset) == 2
    assert result.best_subset == tuple(sorted(result.best_subset))


def test_brute_force_full_team_is_whole_set(empty_rect):
    grid, sensor, _ = make_problem(empty_rect)
    cand = np.array([[4.0, 5.0], [10.0, 5.0], [16.0, 5.0]])
    result = brute_force(cand, 3, grid, sensor)
    assert result.best_subset == (0, 1, 2)
    assert result.subsets_evaluated == 1
    assert result.best_value == pytest.approx(
        coverage(cand, grid, sensor), abs=1e-9
    )


def test_brute_force_matches_direct_evaluation(block_problem):
    _, grid, sensor, cand = block_problem
    sub = cand[:8]
    result = brute_force(sub, 2, grid, sensor)
    best = -1.0
    arg = None
    for i in range(8):
        for j in range(i + 1, 8):
            v = coverage(sub[[i, j]], grid, sensor)
            if v > best + 1e-12:
                best = v
                arg = (i, j)
    assert result.best_subset == arg
    assert result.best_value == pytest.approx(best, abs=1e-9)


def test_brute_force_dominates_greedy(block_problem):
    space, grid, sensor, cand = block_problem
    sub = cand[:10]
    greedy = greedy_place(space, grid, sensor, sub, 3)
    exact = brute_force(sub, 3, grid, sensor)
    assert exact.best_value >= greedy.value - 1e-9


def test_brute_force_value_grows_with_team(block_problem):
    _, grid, sensor, cand = block_problem
    sub = cand[:9]
    values = [brute_force(sub, n, grid, sensor).best_value for n in (1, 2, 3)]
    assert values[0] <= values[1] + 1e-12
    assert values[1] <= values[2] + 1e-12


def test_brute_force_cap(empty_rect):
    grid, sensor, cand = make_problem(empty_rect, spacing=2.0)
    with pytest.raises(InstanceTooLargeError) as info:
        brute_force(cand, 4, grid, sensor, cap=100)
    err = info.value
    assert err.subset_count > 100
    assert err.cap == 100
    with pytest.raises(InvalidParameterError):
        brute_force(cand, 0, grid, sensor)
    with pytest.raises(InvalidParameterError):
        brute_force(cand, len(cand) + 1, grid, sensor)


def test_brute_force_rejects_a_bool_team_size(empty_rect):
    grid, sensor, cand = make_problem(empty_rect, spacing=5.0)
    with pytest.raises(InvalidParameterError, match="got True"):
        brute_force(cand, True, grid, sensor)


@pytest.mark.parametrize("team_size", [2.0, 0, -1, np.int64(0)])
def test_brute_force_takes_a_positive_integer_team_size(empty_rect, team_size):
    grid, sensor, cand = make_problem(empty_rect, spacing=5.0)
    # a non-integer is no integer at all; an integer below 1 misses the team-size row
    rule = "a positive integer" if isinstance(team_size, float) else ">= 1"
    with pytest.raises(InvalidParameterError, match=f"^team size must be {rule}, got {team_size}$"):
        brute_force(cand, team_size, grid, sensor)
    assert brute_force(cand, np.int64(1), grid, sensor).subsets_evaluated == len(cand)


@pytest.mark.parametrize("check", [check_submodular, check_definition_equivalence])
@pytest.mark.parametrize("trials", [True, 2.5, np.float64(3.0), "4"])
def test_checks_take_a_positive_integer_trial_count(block_problem, check, trials):
    _, grid, sensor, cand = block_problem
    message = f"trials must be a positive integer, got {trials}$"
    with pytest.raises(InvalidParameterError, match=message):
        check(cand, grid, sensor, trials=trials)
    assert check(cand, grid, sensor, trials=np.int64(2)).trials == 2


def test_a_trial_count_too_long_to_print_reads_by_its_type(block_problem):
    _, grid, sensor, cand = block_problem
    long = f"a list holding an integer of more than {sys.get_int_max_str_digits()} digits"
    message = f"^trials must be a positive integer, got {long}$"
    with pytest.raises(InvalidParameterError, match=message):
        check_submodular(cand, grid, sensor, trials=[10**5000])


def test_coverage_passes_submodularity_check(block_problem):
    _, grid, sensor, cand = block_problem
    report = check_submodular(cand, grid, sensor, trials=400, seed=7)
    assert report.trials == 400
    assert report.seed == 7
    assert report.violations == 0
    assert report.counts == (("gain", 0), ("monotonicity", 0))
    assert "0 gain violations" in report.as_text()


def test_a_property_report_reads_each_count_in_order():
    counts = (("set-form", 1), ("gain-form", 3))
    report = PropertyReport("definition equivalence", 8, 2, counts, 0.5)
    assert report.violations == 4
    assert report.as_text() == (
        "definition equivalence check: 8 trials, seed 2: "
        "1 set-form violations, 3 gain-form violations (max magnitude 5.000e-01)"
    )


def test_coverage_passes_equivalence_check(block_problem):
    _, grid, sensor, cand = block_problem
    report = check_definition_equivalence(cand, grid, sensor, trials=300, seed=11)
    assert report.trials == 300
    assert report.violations == 0
    assert report.counts == (("set-form", 0), ("gain-form", 0))


def test_checks_are_reproducible(block_problem):
    _, grid, sensor, cand = block_problem
    a = check_submodular(cand, grid, sensor, trials=100, seed=3)
    b = check_submodular(cand, grid, sensor, trials=100, seed=3)
    assert a == b
    c = check_definition_equivalence(cand, grid, sensor, trials=100, seed=3)
    d = check_definition_equivalence(cand, grid, sensor, trials=100, seed=3)
    assert c == d


def test_check_rejects_bad_trials(block_problem):
    _, grid, sensor, cand = block_problem
    with pytest.raises(InvalidParameterError):
        check_submodular(cand, grid, sensor, trials=0)
    with pytest.raises(InvalidParameterError):
        check_definition_equivalence(cand, grid, sensor, trials=-5)


def test_the_checks_count_the_violations_of_a_supermodular_objective(block_problem, monkeypatch):
    # H(S) = |S|^2 gains more on a larger set, and its set form breaks the other way
    _, grid, sensor, cand = block_problem
    monkeypatch.setattr(oracle._SubsetEvaluator, "value", lambda self, subset: len(subset) ** 2.0)
    sub = check_submodular(cand, grid, sensor, trials=200, seed=1)
    eq = check_definition_equivalence(cand, grid, sensor, trials=200, seed=1)
    (_, gains), (_, monotonicity) = sub.counts
    (_, set_form), (_, gain_form) = eq.counts
    assert gains > 0 and monotonicity == 0
    assert set_form > 0 and gain_form > 0
    assert sub.violations == gains + monotonicity
    assert eq.violations == set_form + gain_form
    assert sub.max_violation > 0 and eq.max_violation > 0


def test_the_submodularity_check_counts_the_violations_of_a_falling_objective(
    block_problem, monkeypatch
):
    # H(S) = -|S| loses value as the set grows, with the same gain everywhere
    _, grid, sensor, cand = block_problem
    monkeypatch.setattr(oracle._SubsetEvaluator, "value", lambda self, subset: -float(len(subset)))
    report = check_submodular(cand, grid, sensor, trials=200, seed=1)
    (_, gains), (_, monotonicity) = report.counts
    assert monotonicity > 0 and gains == 0
    assert report.violations == monotonicity
    assert report.max_violation > 0
