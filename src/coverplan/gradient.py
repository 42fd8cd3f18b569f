"""Continuous refinement of a placement by projected gradient ascent.

Starting from a discrete placement (typically the greedy result), each agent
repeatedly moves a fixed distance along its own ascent direction, estimated by
central finite differences of the coverage objective, with every iterate
projected back into the feasible region.  Backtracking halves the move until
the objective actually increases, so the refined placement never scores below
its seed.

Both schedules run one propose/accept loop: a proposal projects an agent's
move and drops it when it lands on another agent.  The synchronous schedule
takes a joint step and, when backtracking vetoes it, falls back to per-agent
steps along the same directions; the sequential schedule is the per-agent
step with each direction refreshed after the moves before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .field import QuadratureGrid
from .geometry import (
    MissionSpace,
    as_points_array,
    as_xy,
    closest_point_on_segment,
    is_feasible,
)
from .sensing import SensorModel, coverage_from_rows, detection_matrix, detection_row


@dataclass(frozen=True)
class RefineConfig:
    """Knobs of the ascent loop.

    ``step_scale`` is the travel distance per accepted full step: the move is
    step_scale times the unit gradient direction.  ``grad_tolerance`` is the
    stopping threshold on the largest per-agent gradient norm; None picks
    1e-3 times the quadrature cell area when the loop starts.  ``schedule``
    is "synchronous" (a joint step proposed against the same configuration,
    with a per-agent fallback when backtracking vetoes it) or "sequential"
    (the per-agent step alone, each direction refreshed after the moves
    before it).
    """

    step_scale: float = 0.5
    fd_epsilon: float = 1e-3
    grad_tolerance: float | None = None
    max_iterations: int = 500
    backtracking: bool = True
    max_halvings: int = 20
    schedule: str = "synchronous"
    collision_radius: float = 1e-6

    def __post_init__(self):
        for name in ("step_scale", "fd_epsilon", "collision_radius"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise InvalidParameterError(f"{name} must be finite and > 0, got {v}")
        if self.grad_tolerance is not None and (
            not np.isfinite(self.grad_tolerance) or self.grad_tolerance <= 0
        ):
            raise InvalidParameterError(
                f"grad_tolerance must be finite and > 0, got {self.grad_tolerance}"
            )
        if not isinstance(self.max_iterations, (int, np.integer)) or self.max_iterations < 1:
            raise InvalidParameterError(
                f"max_iterations must be a positive integer, got {self.max_iterations}"
            )
        if not isinstance(self.max_halvings, (int, np.integer)) or self.max_halvings < 0:
            raise InvalidParameterError(
                f"max_halvings must be a non-negative integer, got {self.max_halvings}"
            )
        if self.schedule not in ("synchronous", "sequential"):
            raise InvalidParameterError(
                f"schedule must be 'synchronous' or 'sequential', got {self.schedule!r}"
            )


@dataclass
class RefineStep:
    """State after one sweep: positions, objective, per-agent gradient norms."""

    iteration: int
    positions: np.ndarray
    value: float
    grad_norms: np.ndarray


@dataclass
class RefineResult:
    """Full trace of the ascent and why it stopped."""

    steps: list[RefineStep]
    reason: str  # "converged" | "max_iterations" | "no_improvement"

    @property
    def positions(self) -> np.ndarray:
        return self.steps[-1].positions

    @property
    def value(self) -> float:
        return self.steps[-1].value

    @property
    def initial_value(self) -> float:
        return self.steps[0].value

    def trace_rows(self):
        """Yield (iteration, agent, x, y, value, grad_norm) rows for export."""
        for step in self.steps:
            for i, (x, y) in enumerate(step.positions):
                yield step.iteration, i, float(x), float(y), step.value, float(
                    step.grad_norms[i]
                )


def project_feasible(p, space: MissionSpace) -> np.ndarray:
    """Return p unchanged when feasible, else its nearest feasible boundary point.

    Candidates are the projections of p onto every boundary and obstacle edge;
    the closest feasible one wins.
    """
    pt = as_xy(p)
    if is_feasible(pt, space):
        return pt.copy()
    best = None
    best_d2 = np.inf
    polys = [space.boundary] + space.obstacles
    for poly in polys:
        a, b = poly.edges
        for i in range(len(a)):
            q = closest_point_on_segment(pt, a[i], b[i])
            d2 = float((q - pt) @ (q - pt))
            if d2 < best_d2 and is_feasible(q, space):
                best = q
                best_d2 = d2
    if best is None:
        # no feasible edge projection exists only for pathological spaces
        raise InvalidParameterError("could not project point onto the feasible region")
    return best


def _others_miss(rows: np.ndarray, i: int) -> np.ndarray:
    """Per-cell probability that every agent except i misses."""
    if len(rows) == 1:
        return np.ones(rows.shape[1])
    sel = np.ones(len(rows), dtype=bool)
    sel[i] = False
    return np.prod(1.0 - rows[sel], axis=0)


def _partial_term(weighted_miss: np.ndarray, row: np.ndarray) -> float:
    # the only part of the objective that depends on this agent's position
    return float(np.dot(weighted_miss, row))


def _agent_gradient(
    pos: np.ndarray,
    weighted_miss: np.ndarray,
    space: MissionSpace,
    grid: QuadratureGrid,
    sensor: SensorModel,
    fd_epsilon: float,
) -> np.ndarray:
    grad = np.zeros(2)
    for d in range(2):
        offset = np.zeros(2)
        offset[d] = fd_epsilon
        plus_raw = pos + offset
        minus_raw = pos - offset
        plus_ok = is_feasible(plus_raw, space)
        minus_ok = is_feasible(minus_raw, space)
        if not plus_ok and not minus_ok:
            continue
        plus = plus_raw if plus_ok else project_feasible(plus_raw, space)
        minus = minus_raw if minus_ok else project_feasible(minus_raw, space)
        h_plus = _partial_term(weighted_miss, detection_row(plus, space, grid.centers, sensor))
        h_minus = _partial_term(weighted_miss, detection_row(minus, space, grid.centers, sensor))
        grad[d] = (h_plus - h_minus) / (2.0 * fd_epsilon)
    return grad


def objective_gradient(
    positions,
    agent_index: int,
    space: MissionSpace,
    grid: QuadratureGrid,
    sensor: SensorModel,
    config: RefineConfig | None = None,
) -> np.ndarray:
    """Central-difference estimate of the objective's rate of change for one agent.

    Probe positions are projected to the feasible region; a component is zero
    when both probes along its axis are infeasible.
    """
    cfg = config or RefineConfig()
    pos = as_points_array(positions)
    if not 0 <= agent_index < len(pos):
        raise InvalidParameterError(f"agent index {agent_index} out of range for {len(pos)} agents")
    if not is_feasible(pos[agent_index], space):
        raise InvalidParameterError(f"agent {agent_index} is at an infeasible position")
    rows = detection_matrix(pos, space, grid.centers, sensor)
    wm = grid.weights * _others_miss(rows, agent_index)
    return _agent_gradient(pos[agent_index], wm, space, grid, sensor, cfg.fd_epsilon)


def _collides(candidate: np.ndarray, others: np.ndarray, radius: float) -> bool:
    if len(others) == 0:
        return False
    return bool(np.min(np.linalg.norm(others - candidate[None, :], axis=1)) < radius)


def refine(
    initial,
    space: MissionSpace,
    grid: QuadratureGrid,
    sensor: SensorModel,
    config: RefineConfig | None = None,
) -> RefineResult:
    """Run the projected ascent from an initial placement until it stalls.

    Stops when the largest per-agent gradient norm drops to the tolerance
    ("converged"), when no halved step raises the objective any more
    ("no_improvement", backtracking only), or at the iteration cap
    ("max_iterations").  With backtracking on, the objective trace never
    decreases.
    """
    cfg = config or RefineConfig()
    pos = as_points_array(initial).copy()
    n = len(pos)
    if n == 0:
        raise InvalidParameterError("initial placement is empty")
    feas = space.feasible_many(pos)
    if not np.all(feas):
        k = int(np.argmin(feas))
        raise InvalidParameterError(
            f"initial position {k} at ({pos[k, 0]:g}, {pos[k, 1]:g}) is infeasible"
        )
    for i in range(n):
        if _collides(pos[i], pos[i + 1 :], cfg.collision_radius):
            raise InvalidParameterError("initial positions must be pairwise distinct")
    tol = cfg.grad_tolerance
    if tol is None:
        tol = 1e-3 * grid.cell_size**2

    rows = detection_matrix(pos, space, grid.centers, sensor)
    value = coverage_from_rows(grid, rows)
    steps = [RefineStep(0, pos.copy(), value, np.zeros(n))]
    reason = "max_iterations"

    for it in range(1, cfg.max_iterations + 1):
        # stopping-test gradients, always against the configuration as it stands;
        # the sequential schedule recomputes each agent's own as agents move
        grads = np.zeros((n, 2))
        for i in range(n):
            wm = grid.weights * _others_miss(rows, i)
            grads[i] = _agent_gradient(pos[i], wm, space, grid, sensor, cfg.fd_epsilon)
        norms = np.linalg.norm(grads, axis=1)
        if it == 1:
            steps[0].grad_norms = norms.copy()
        if float(np.max(norms)) <= tol:
            reason = "converged"
            break

        state = (pos, rows, value, space, grid, sensor, cfg)
        if cfg.schedule == "synchronous":
            moved, pos, rows, value = _synchronous_sweep(*state, grads)
        else:
            moved, pos, rows, value = _agent_sweep(*state)
        steps.append(RefineStep(it, pos.copy(), value, norms))
        if not moved:
            reason = "no_improvement"
            break
    return RefineResult(steps, reason)


def _propose(pos, i, direction, scale, space, cfg):
    """Projected move of agent i, or None when it lands on another agent."""
    q = project_feasible(pos[i] + scale * direction, space)
    return None if _collides(q, np.delete(pos, i, 0), cfg.collision_radius) else q


def _synchronous_sweep(pos, rows, value, space, grid, sensor, cfg, grads):
    norms = np.linalg.norm(grads, axis=1)
    moving = np.nonzero(norms > 0)[0]
    if len(moving) == 0:
        return False, pos, rows, value
    dirs = np.zeros_like(grads)
    dirs[moving] = grads[moving] / norms[moving, None]
    scale = cfg.step_scale
    for _ in range(cfg.max_halvings + 1 if cfg.backtracking else 1):
        cand = pos.copy()
        for i in moving:
            q = _propose(cand, i, dirs[i], scale, space, cfg)
            if q is not None:  # else the later-indexed mover forfeits its step
                cand[i] = q
        changed = np.nonzero(np.any(cand != pos, axis=1))[0]
        if len(changed) == 0:
            return False, pos, rows, value
        new_rows = rows.copy()
        for i in changed:
            new_rows[i] = detection_row(cand[i], space, grid.centers, sensor)
        new_value = coverage_from_rows(grid, new_rows)
        if not cfg.backtracking or new_value > value:
            return True, cand, new_rows, new_value
        scale *= 0.5
    # The joint step can be vetoed by a single agent sitting on a visibility
    # cliff, where its difference estimate points into a negative jump.  Keep
    # the synchronously computed directions but accept moves one agent at a
    # time, so a stuck agent forfeits only its own step.
    return _agent_sweep(pos, rows, value, space, grid, sensor, cfg, dirs)


def _agent_sweep(pos, rows, value, space, grid, sensor, cfg, dirs=None):
    """Move agents one at a time, each judged against the others as they stand.

    Directions are the fixed unit rows of ``dirs``, or, without it, each
    agent's gradient recomputed after the moves before it.
    """
    moved = False
    pos, rows = pos.copy(), rows.copy()
    for i in range(len(pos)):
        wm = grid.weights * _others_miss(rows, i)
        if dirs is None:
            d = _agent_gradient(pos[i], wm, space, grid, sensor, cfg.fd_epsilon)
        else:
            d = dirs[i]
        norm = float(np.linalg.norm(d))
        if norm == 0:
            continue
        if dirs is None:
            d = d / norm
        base_term = _partial_term(wm, rows[i])
        scale = cfg.step_scale
        for _ in range(cfg.max_halvings + 1 if cfg.backtracking else 1):
            q = _propose(pos, i, d, scale, space, cfg)
            if q is not None:
                new_row = detection_row(q, space, grid.centers, sensor)
                if not cfg.backtracking or _partial_term(wm, new_row) > base_term:
                    pos[i], rows[i] = q, new_row
                    moved = True
                    break
            scale *= 0.5
    if moved:
        value = coverage_from_rows(grid, rows)
    return moved, pos, rows, value
