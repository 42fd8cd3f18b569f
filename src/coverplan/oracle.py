"""Ground truth for small instances: exhaustive search and property checks.

Everything here exists to validate the fast paths.  The exhaustive search
enumerates all fixed-size candidate subsets (monotonicity makes the largest
size sufficient), and the property checks draw random subset triples or pairs
with a recorded seed, so every reported violation is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import InstanceTooLargeError, InvalidParameterError, positive_int
from .field import QuadratureGrid
from .geometry import as_points_array
from .sensing import SensorModel, detection_matrix

# Exhaustive search refuses instances with more subsets than this.
SUBSET_CAP = 2_000_000

# Relative tolerance absorbing quadrature and summation-order noise.
CHECK_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OracleResult:
    """Exact maximizer over all size-N candidate subsets."""

    best_subset: tuple[int, ...]
    best_value: float
    subsets_evaluated: int


def brute_force(
    candidates, team_size: int, grid: QuadratureGrid, sensor: SensorModel, cap: int = SUBSET_CAP
) -> OracleResult:
    """Evaluate every size-``team_size`` subset and return the best.

    Ties go to the lexicographically smallest index tuple.  Raises
    :class:`InstanceTooLargeError` when the subset count exceeds ``cap``.
    """
    cand = as_points_array(candidates)
    n = len(cand)
    if positive_int(team_size, "team size") > n:
        raise InvalidParameterError(f"team size must be between 1 and {n}, got {team_size}")
    count = math.comb(n, team_size)
    if count > cap:
        raise InstanceTooLargeError(count, cap)

    ev = _SubsetEvaluator(cand, grid, sensor)
    q, w, total = ev.q, ev.w, ev.total

    best_subset: tuple[int, ...] | None = None
    best_value = -np.inf
    evaluated = 0
    combos = combinations(range(n), team_size)
    chunk_size = max(1, min(4096, (8 << 20) // (8 * grid.cell_count)))
    while True:
        chunk = list(islice(combos, chunk_size))
        if not chunk:
            break
        idx = np.asarray(chunk)
        miss = np.ones((len(chunk), grid.cell_count))
        for k in range(team_size):
            miss *= q[idx[:, k]]
        values = total - miss @ w
        j = int(np.argmax(values))  # first max keeps lexicographic order
        if values[j] > best_value:
            best_value = float(values[j])
            best_subset = chunk[j]
        evaluated += len(chunk)
    assert evaluated == count
    return OracleResult(best_subset, best_value, evaluated)


@dataclass(frozen=True)
class SubmodularityReport:
    """Outcome of randomized diminishing-returns and monotonicity checks."""

    trials: int
    seed: int
    gain_violations: int
    monotonicity_violations: int
    max_violation: float

    @property
    def violations(self) -> int:
        return self.gain_violations + self.monotonicity_violations

    def as_text(self) -> str:
        return (
            f"submodularity check: {self.trials} trials, seed {self.seed}: "
            f"{self.gain_violations} gain violations, "
            f"{self.monotonicity_violations} monotonicity violations "
            f"(max magnitude {self.max_violation:.3e})"
        )


@dataclass(frozen=True)
class EquivalenceReport:
    """Joint outcome of the two submodularity definitions on shared draws."""

    trials: int
    seed: int
    union_intersection_violations: int
    nested_gain_violations: int
    max_violation: float

    @property
    def violations(self) -> int:
        return self.union_intersection_violations + self.nested_gain_violations

    def as_text(self) -> str:
        return (
            f"definition equivalence check: {self.trials} trials, seed {self.seed}: "
            f"{self.union_intersection_violations} set-form violations, "
            f"{self.nested_gain_violations} gain-form violations "
            f"(max magnitude {self.max_violation:.3e})"
        )


class _SubsetEvaluator:
    """Fast subset values over a fixed candidate ground set."""

    def __init__(self, candidates, grid, sensor):
        cand = as_points_array(candidates)
        if len(cand) == 0:
            raise InvalidParameterError("candidate ground set is empty")
        self.n = len(cand)
        rows = detection_matrix(cand, grid.space, grid.centers, sensor)
        self.q = 1.0 - rows
        self.w = grid.weights
        self.total = float(np.sum(self.w))

    def value(self, subset) -> float:
        subset = list(subset)
        if not subset:
            return 0.0
        miss = np.prod(self.q[subset], axis=0)
        return self.total - float(miss @ self.w)


def _exceeds(lhs: float, rhs: float) -> float:
    """Positive excess of lhs over rhs beyond the relative ``CHECK_TOLERANCE``, else 0."""
    slack = CHECK_TOLERANCE * max(1.0, abs(rhs))
    return max(0.0, lhs - rhs - slack)


def check_submodular(
    candidates, grid: QuadratureGrid, sensor: SensorModel, trials: int = 1000, seed: int = 0
) -> SubmodularityReport:
    """Randomized check of diminishing returns and monotonicity.

    Each trial draws S subset of T and an element outside T, then requires the
    element's gain on S to be at least its gain on T, and H(S) <= H(T).
    """
    trials = positive_int(trials, "trials")
    ev = _SubsetEvaluator(candidates, grid, sensor)
    if ev.n < 2:
        raise InvalidParameterError("need at least 2 candidates for nested draws")
    rng = np.random.default_rng(seed)
    gain_bad = 0
    mono_bad = 0
    worst = 0.0
    for _ in range(trials):
        t_size = int(rng.integers(0, ev.n))  # leaves room for the extra element
        t_set = sorted(rng.choice(ev.n, size=t_size, replace=False).tolist())
        s_size = int(rng.integers(0, t_size + 1))
        s_set = sorted(rng.choice(t_set, size=s_size, replace=False).tolist()) if t_size else []
        outside = [j for j in range(ev.n) if j not in t_set]
        extra = int(rng.choice(outside))

        h_s = ev.value(s_set)
        h_t = ev.value(t_set)
        gain_s = ev.value(s_set + [extra]) - h_s
        gain_t = ev.value(t_set + [extra]) - h_t

        excess = _exceeds(gain_t, gain_s)
        if excess > 0:
            gain_bad += 1
            worst = max(worst, excess)
        excess = _exceeds(h_s, h_t)
        if excess > 0:
            mono_bad += 1
            worst = max(worst, excess)
    return SubmodularityReport(trials, seed, gain_bad, mono_bad, worst)


def check_definition_equivalence(
    candidates, grid: QuadratureGrid, sensor: SensorModel, trials: int = 500, seed: int = 0
) -> EquivalenceReport:
    """Check both submodularity formulations on shared random draws.

    The set form requires H(S u T) + H(S n T) <= H(S) + H(T) for arbitrary
    S, T; the gain form tests diminishing returns on the nested pair
    (S n T) subset of (S u T) built from the same draw.  Both must come out
    violation-free on a correct implementation.
    """
    trials = positive_int(trials, "trials")
    ev = _SubsetEvaluator(candidates, grid, sensor)
    rng = np.random.default_rng(seed)
    set_bad = 0
    gain_bad = 0
    worst = 0.0
    for _ in range(trials):
        s_mask = rng.random(ev.n) < rng.random()
        t_mask = rng.random(ev.n) < rng.random()
        s_set = list(np.nonzero(s_mask)[0])
        t_set = list(np.nonzero(t_mask)[0])
        union = sorted(set(s_set) | set(t_set))
        inter = sorted(set(s_set) & set(t_set))

        lhs = ev.value(union) + ev.value(inter)
        rhs = ev.value(s_set) + ev.value(t_set)
        excess = _exceeds(lhs, rhs)
        if excess > 0:
            set_bad += 1
            worst = max(worst, excess)

        outside = [j for j in range(ev.n) if j not in union]
        if outside:
            extra = int(rng.choice(outside))
            gain_small = ev.value(inter + [extra]) - ev.value(inter)
            gain_large = ev.value(union + [extra]) - ev.value(union)
            excess = _exceeds(gain_large, gain_small)
            if excess > 0:
                gain_bad += 1
                worst = max(worst, excess)
    return EquivalenceReport(trials, seed, set_bad, gain_bad, worst)
