"""Greedy placement over a finite candidate set, eager and lazy variants.

One loop places the agents: each round it takes the candidate with the
largest marginal coverage gain, breaking exact ties toward the lowest
candidate index, and updates the miss vector and its density-weighted copy,
against which every gain of the next round is taken.  The variants differ
only in the picker that finds that candidate.  The eager picker evaluates
every remaining candidate (Nemhauser, Wolsey and Fisher 1978).  The lazy picker
(Minoux 1978) keeps stale gains in a max-heap and recomputes only entries
that reach the top; because gains never grow as the team fills in, a
recomputed entry that stays on top is the true maximizer.  Both variants
route every gain through the same dot product, so they select identical
sequences.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCandidateSetError, InvalidParameterError, positive_int, shown
from .field import QuadratureGrid
from .geometry import MissionSpace, as_points_array
from .sensing import SensorModel, detection_matrix, marginal_gain

# A gain at or below this is treated as zero and stops the placement loop.
GAIN_TOLERANCE = 1e-12


@dataclass
class GreedyResult:
    """Placement produced by one greedy run."""

    indices: list[int]
    positions: np.ndarray
    gains: list[float]
    values: list[float]
    evaluations: int
    stopped_early: bool = False
    # True when more agents were requested than candidates exist; every
    # candidate is then placed and the cardinality constraint is slack.
    constraint_slack: bool = False

    @property
    def value(self) -> float:
        """Objective after the final pick (0 for an empty placement)."""
        return self.values[-1] if self.values else 0.0


def greedy_place(
    space: MissionSpace,
    grid: QuadratureGrid,
    sensor: SensorModel,
    candidates,
    team_size: int,
    method: str = "lazy",
) -> GreedyResult:
    """Place ``team_size`` agents on candidate points by greedy selection.

    Stops early when the best remaining gain is at most ``GAIN_TOLERANCE``;
    the result then holds fewer positions than requested.  A team larger
    than the candidate set takes every candidate and is flagged as slack.
    ``space`` must be ``grid.space`` (``perfbench`` reads the later arguments by position).
    """
    cand = as_points_array(candidates)
    if len(cand) == 0:
        raise EmptyCandidateSetError("candidate set is empty")
    team_size = positive_int(team_size, "team size")
    if method not in ("eager", "lazy"):
        raise InvalidParameterError(f"method must be 'eager' or 'lazy', got {shown(method, repr)}")
    if space is not grid.space:
        raise InvalidParameterError("space must be the space the grid was built on")

    rows = detection_matrix(cand, space, grid.centers, sensor)
    miss = np.ones(grid.cell_count)
    weighted_miss = grid.weights * miss
    evaluations = 0

    def gain(j: int) -> float:
        nonlocal evaluations
        evaluations += 1
        return marginal_gain(weighted_miss, rows[j])

    pick = (_eager if method == "eager" else _lazy)(gain, len(rows))
    chosen: list[int] = []
    gains: list[float] = []
    values: list[float] = []
    total = 0.0
    stopped = False
    # more agents than candidates: place everyone, the constraint is slack
    for step in range(min(team_size, len(cand))):
        j, g = pick(step)
        if g <= GAIN_TOLERANCE:
            stopped = True
            break
        chosen.append(j)
        total += g
        gains.append(g)
        values.append(total)
        miss *= 1.0 - rows[j]
        np.multiply(grid.weights, miss, out=weighted_miss)
    return GreedyResult(
        chosen, cand[chosen], gains, values, evaluations, stopped,
        constraint_slack=team_size > len(cand),
    )


def _eager(gain, n_cand: int):
    """Picker that evaluates every remaining candidate each round."""
    left = list(range(n_cand))

    def pick(step: int) -> tuple[int, float]:
        best_j, best_gain = -1, -np.inf
        for j in left:
            g = gain(j)
            if g > best_gain:
                best_j, best_gain = j, g
        if best_j >= 0:
            left.remove(best_j)
        return best_j, best_gain

    return pick


def _lazy(gain, n_cand: int):
    """Picker that recomputes only stale gains reaching the top of a max-heap."""
    # round 0 gains are exact, so every heap entry starts fresh
    heap = [(-gain(j), j) for j in range(n_cand)]
    heapq.heapify(heap)
    fresh_round = np.zeros(n_cand, dtype=int)

    def pick(step: int) -> tuple[int, float]:
        # each pick takes one entry off for good and at most n picks run, so the heap never empties
        while True:
            neg_g, j = heapq.heappop(heap)
            if fresh_round[j] == step:
                return j, -neg_g
            fresh_round[j] = step
            heapq.heappush(heap, (-gain(j), j))

    return pick
