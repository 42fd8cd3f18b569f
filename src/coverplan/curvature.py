"""Curvature measures of the coverage objective and a-priori greedy guarantees.

Two curvatures are computed over a finite candidate set.  The total curvature
looks at how much the full team discounts each single candidate's
contribution; the elemental curvature is driven by the worst-case single-cell
detection probability.  Each yields a lower bound on the greedy-to-optimal
ratio, and the certified guarantee is the larger of the two, since both hold
simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCandidateError, InvalidParameterError
from .field import QuadratureGrid


def _leave_one_out_miss(probs: np.ndarray) -> np.ndarray:
    """For each row j, the per-cell product of (1 - p_i) over all rows i != j.

    Uses prefix and suffix cumulative products, so rows with p = 1 (which
    would break a divide-by-total approach) cost nothing extra.
    """
    q = 1.0 - probs
    n, m = q.shape
    prefix = np.vstack([np.ones((1, m)), np.cumprod(q, axis=0)[:-1]])
    suffix = np.vstack([np.cumprod(q[::-1], axis=0)[::-1][1:], np.ones((1, m))])
    return prefix * suffix


def _ground_set(probs, grid: QuadratureGrid):
    """Checked probabilities, stand-alone masses, and the candidates covering mass.

    A candidate that covers no event mass has zero gain on every set, so
    leaving it out of the ground set changes neither the greedy value nor the
    optimum, while its own discount ratio would be undefined.  The matrix is
    not copied: callers index the kept rows through the returned indices.
    """
    probs = _check_probs(probs, grid)
    alone = probs @ grid.weights
    keep = np.nonzero(alone > 0.0)[0]
    if len(keep) == 0:
        rest = f" and neither does any of the other {len(probs) - 1}" if len(probs) > 1 else ""
        raise DegenerateCandidateError(
            f"candidate 0 covers no event mass{rest}; the curvatures are undefined"
        )
    return probs, alone, keep


def _total_curvature_argmax(probs, alone, keep, grid: QuadratureGrid) -> tuple[float, int]:
    # A dropped row is zero wherever the weight is not, so it multiplies the
    # leave-one-out products of the kept rows by exactly one there.
    others = _leave_one_out_miss(probs)
    on_top = (probs * others) @ grid.weights
    discounts = 1.0 - on_top[keep] / alone[keep]
    j = int(np.argmax(discounts))
    c = float(discounts[j])
    return min(1.0, max(0.0, c)), int(keep[j])


def total_curvature(probs: np.ndarray, grid: QuadratureGrid) -> float:
    """Worst-case relative discount of a candidate by the rest of the ground set.

    For each candidate j this compares its contribution on top of all other
    candidates with its stand-alone contribution; the curvature is one minus
    the smallest such ratio.  Candidates that cover no event mass are left
    out of the ground set; if none is left the ratio is undefined.
    """
    return _total_curvature_argmax(*_ground_set(probs, grid), grid)[0]


def _domain_mask(grid: QuadratureGrid, domain: str) -> np.ndarray:
    if domain == "feasible":
        mask = grid.feasible
    elif domain == "omega":
        mask = grid.in_boundary
    else:
        raise InvalidParameterError(f"domain must be 'feasible' or 'omega', got {domain!r}")
    if not np.any(mask):
        raise InvalidParameterError(f"no grid cells fall in the {domain!r} domain")
    return mask


def _elemental_curvature_argmin(
    probs, keep, grid: QuadratureGrid, domain: str
) -> tuple[float, tuple[int, int]]:
    mask = _domain_mask(grid, domain)
    cols = np.nonzero(mask)[0]
    sub = probs[np.ix_(keep, cols)]
    flat = int(np.argmin(sub))
    j, k = np.unravel_index(flat, sub.shape)
    alpha = 1.0 - float(sub[j, k])
    return min(1.0, max(0.0, alpha)), (int(keep[j]), int(cols[k]))


def elemental_curvature(probs: np.ndarray, grid: QuadratureGrid, domain: str = "feasible") -> float:
    """One minus the smallest detection probability over candidates and cells.

    ``domain`` picks which cells participate: "feasible" uses cells of the
    feasible region, "omega" every cell inside the outer boundary (obstacle
    interiors included, where detection is always zero).  Any cell invisible
    to some candidate drives the result to 1.  Candidates that cover no event
    mass are left out, as for :func:`total_curvature`.
    """
    probs, _, keep = _ground_set(probs, grid)
    return _elemental_curvature_argmin(probs, keep, grid, domain)[0]


def _check_probs(probs, grid: QuadratureGrid) -> np.ndarray:
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    if probs.ndim != 2 or probs.shape[1] != grid.cell_count:
        raise InvalidParameterError(
            f"probability matrix must be (n, {grid.cell_count}), got {probs.shape}"
        )
    if len(probs) == 0:
        raise InvalidParameterError("probability matrix has no rows")
    return probs


def _check_scalar(value: float, name: str) -> float:
    if not np.isfinite(value) or value < -1e-12 or value > 1.0 + 1e-12:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {value}")
    return min(1.0, max(0.0, float(value)))


def _check_team(n) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameterError(f"team size must be a positive integer, got {n}")
    return int(n)


def bound_from_total(c: float, team_size: int) -> float:
    """Greedy-to-optimal guarantee from the total curvature.

    Equals (1/c) * (1 - ((n - c)/n)^n), continued by its limit 1 at c = 0.
    Decreases from 1 toward 1 - 1/e as c grows to 1.
    """
    c = _check_scalar(c, "total curvature")
    n = _check_team(team_size)
    if n == 1 or c == 0.0:
        return 1.0
    return float(-np.expm1(n * np.log1p(-c / n)) / c)


def bound_from_elemental(alpha: float, team_size: int) -> float:
    """Greedy-to-optimal guarantee from the elemental curvature.

    For alpha < 1 this is 1 - ((alpha - alpha^n) / (1 - alpha^n))^n; at
    alpha = 1 it continues to 1 - ((n - 1)/n)^n, matching the total-curvature
    guarantee at c = 1.
    """
    alpha = _check_scalar(alpha, "elemental curvature")
    n = _check_team(team_size)
    if n == 1:
        return 1.0
    if alpha >= 1.0:
        return float(-np.expm1(n * np.log1p(-1.0 / n)))
    if alpha == 0.0:
        return 1.0
    # alpha in (0, 1): evaluate via expm1/log to stay exact near both ends
    log_a = np.log(alpha)
    ratio = alpha * np.expm1((n - 1) * log_a) / np.expm1(n * log_a)
    return float(-np.expm1(n * np.log(ratio)))


@dataclass(frozen=True)
class BoundReport:
    """Curvatures of a candidate ground set and the induced greedy guarantees.

    ``worst_candidate`` is the candidate index achieving the total curvature;
    ``worst_pair`` is the (candidate index, grid cell index) achieving the
    elemental one.  ``dropped`` lists the candidates left out of the ground
    set because they cover no event mass.  All indices number the rows of the
    full probability matrix.
    """

    total_curvature: float
    elemental_curvature: float
    from_total: float
    from_elemental: float
    certified: float
    team_size: int
    domain: str
    worst_candidate: int
    worst_pair: tuple[int, int]
    dropped: tuple[int, ...] = ()

    def as_dict(self) -> dict:
        return {
            "total_curvature": self.total_curvature,
            "elemental_curvature": self.elemental_curvature,
            "from_total": self.from_total,
            "from_elemental": self.from_elemental,
            "certified": self.certified,
            "team_size": self.team_size,
            "domain": self.domain,
            "worst_candidate": self.worst_candidate,
            "worst_pair": list(self.worst_pair),
            "dropped": list(self.dropped),
        }


def bound_report(
    probs: np.ndarray,
    grid: QuadratureGrid,
    team_size: int,
    domain: str = "feasible",
) -> BoundReport:
    """Compute both curvatures and the certified ratio max(T, E) in one pass."""
    n = _check_team(team_size)
    probs, alone, keep = _ground_set(probs, grid)
    c, worst_candidate = _total_curvature_argmax(probs, alone, keep, grid)
    alpha, worst_pair = _elemental_curvature_argmin(probs, keep, grid, domain)
    t = bound_from_total(c, n)
    e = bound_from_elemental(alpha, n)
    dropped = tuple(int(j) for j in np.nonzero(alone <= 0.0)[0])
    return BoundReport(c, alpha, t, e, max(t, e), n, domain, worst_candidate, worst_pair, dropped)


def sweep_bounds(
    cache,
    grid: QuadratureGrid,
    team_size: int,
    base_sensor,
    parameter: str,
    values,
    domain: str = "feasible",
) -> list[tuple[float, BoundReport]]:
    """Bound reports along a sweep of the sensing decay or the sensing radius.

    ``cache`` is a :class:`~coverplan.sensing.DetectionCache` over the
    candidate ground set, so each sweep point only pays for the probability
    rebuild, not for any geometry.
    """
    from .sensing import SensorModel

    if parameter not in ("decay", "radius"):
        raise InvalidParameterError(f"sweep parameter must be 'decay' or 'radius', got {parameter!r}")
    out = []
    for v in values:
        v = float(v)
        if parameter == "decay":
            sensor = SensorModel(decay=v, radius=base_sensor.radius)
        else:
            sensor = SensorModel(decay=base_sensor.decay, radius=v)
        probs = cache.probs(sensor)
        out.append((v, bound_report(probs, grid, team_size, domain)))
    return out
