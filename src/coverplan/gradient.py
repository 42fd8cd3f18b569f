"""Continuous refinement of a placement by projected gradient ascent.

Starting from a discrete placement (typically the greedy result), each agent
repeatedly moves half a quadrature cell along the area term of the coverage
objective's gradient (Zhong and Cassandras, IEEE TAC 2011), with every
iterate projected back into the feasible region.  Backtracking halves the
move until the objective increases, never below a thousandth of a cell, so
the refined placement never scores below its seed.  The step, its floor
and the stopping tolerance are multiples of the cell size, so a scenario
scaled by a power of two refines the same, scaled.

Each iteration takes every agent's gradient at once: the others' miss of
every agent from one running product over the detection rows, and every
agent's pull against its cell offsets in one stacked matrix product; the
distances to the cells are measured as the detection rule measures them.
It then proposes a joint step of all agents against the same configuration.
At each step length the movers' targets are decided by one feasibility call,
only the infeasible ones are projected, and the agents that moved get their
new rows from one detection-matrix call.  Collisions are still tested in agent
order: a target within ``COLLISION_RADIUS`` of another agent, as moved so
far, is dropped.  When backtracking vetoes the joint step, the agents step
one at a time along the same directions instead, each judged after the moves
before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, positive_int
from .field import QuadratureGrid
from .geometry import (
    MissionSpace,
    _dot,
    as_points_array,
    as_xy,
    closest_point_on_segment,
    is_feasible,
)
from .sensing import (
    SensorModel,
    _distances,
    coverage_from_rows,
    detection_matrix,
    detection_row,
    marginal_gain,
    miss_product,
)

# Agents closer than this count as one; a move that lands there is dropped.
COLLISION_RADIUS = 1e-6


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
    rows: int = 0  # detection rows computed, the starting matrix included
    halvings: int = 0  # line-search step halvings, both sweeps together
    rescues: int = 0  # per-agent sweeps run after a vetoed joint step
    forfeits: int = 0  # proposed moves dropped for landing on another agent

    @property
    def positions(self) -> np.ndarray:
        return self.steps[-1].positions

    @property
    def value(self) -> float:
        return self.steps[-1].value

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
    the closest feasible one wins, the first edge (boundary, then obstacles in
    order) on a tie.
    """
    pt = as_xy(p)
    if is_feasible(pt, space):
        return pt.copy()
    q = closest_point_on_segment(pt, *space.edges)  # (E,2)
    ok = np.nonzero(space.feasible_many(q))[0]
    if len(ok) == 0:
        # no feasible edge projection exists only for pathological spaces
        raise InvalidParameterError("could not project point onto the feasible region")
    d = q[ok] - pt
    return q[ok[np.argmin(_dot(d, d))]].copy()


def _gradients(pos, rows, grid: QuadratureGrid, sensor: SensorModel) -> np.ndarray:
    """Area term of the objective's gradient in every agent's position: shape (n, 2).

    For agent i each cell x adds decay * w * Π_{j≠i}(1 - p_j) * p_i * (x - s_i)
    / |x - s_i|: the exact derivative wherever no cell's sight line or range
    flips.  A cell centred on the agent adds nothing.  Agent i's share of the
    others' miss starts as the running product of the rows before it, and the
    rows after it multiply in ascending order, as ``np.prod`` does, so every
    agent's gradient is the same to the bit as one computed on its own.
    |x - s_i| comes from ``sensing._distances``, the detection rule's own
    arithmetic.  All agents' pulls meet their differences x - s_i in one
    stacked product.
    """
    q = 1.0 - rows
    pull = np.empty_like(rows)
    pull[0] = 1.0
    for j in range(1, len(rows)):
        np.multiply(pull[j - 1], q[j - 1], out=pull[j])
        pull[:j] *= q[j]
    pull *= grid.weights
    pull *= rows
    xy = np.ascontiguousarray(grid.centers.T)
    dist = _distances(pos, xy, out=q)  # the miss factors are spent
    with np.errstate(divide="ignore", invalid="ignore"):
        pull /= dist
    pull[dist == 0] = 0.0
    dx = xy[0] - pos[:, :1]
    dy = xy[1] - pos[:, 1:]
    return sensor.decay * (pull[:, None, :] @ np.stack((dx, dy), axis=2))[:, 0]


def objective_gradient(
    positions, agent_index: int, grid: QuadratureGrid, sensor: SensorModel
) -> np.ndarray:
    """The area-term gradient of the objective in one agent's position, as refine uses it."""
    pos = as_points_array(positions)
    if not 0 <= agent_index < len(pos):
        raise InvalidParameterError(f"agent index {agent_index} out of range for {len(pos)} agents")
    if not is_feasible(pos[agent_index], grid.space):
        raise InvalidParameterError(f"agent {agent_index} is at an infeasible position")
    rows = detection_matrix(pos, grid.space, grid.centers, sensor)
    return _gradients(pos, rows, grid, sensor)[agent_index]


def _collides(candidate: np.ndarray, pos: np.ndarray, i: int) -> bool:
    """True when ``candidate`` lands on an agent of ``pos`` other than agent i."""
    d = pos - candidate
    dist = np.sqrt(np.add.reduce(d * d, axis=1))  # np.linalg.norm's own arithmetic
    dist[i] = np.inf
    return bool(np.min(dist) < COLLISION_RADIUS)


def refine(
    initial, grid: QuadratureGrid, sensor: SensorModel, max_iterations: int = 500
) -> RefineResult:
    """Run the projected ascent from an initial placement until it stalls.

    Stops when the largest per-agent gradient norm drops to a thousandth of
    the cell size ("converged"), when no halved step raises the objective
    any more ("no_improvement"), or after ``max_iterations`` iterations
    ("max_iterations").  The objective trace never decreases.
    """
    max_iterations = positive_int(max_iterations, "max_iterations")
    pos = as_points_array(initial).copy()
    n = len(pos)
    if n == 0:
        raise InvalidParameterError("initial placement is empty")
    feas = grid.space.feasible_many(pos)
    if not np.all(feas):
        k = int(np.argmin(feas))
        raise InvalidParameterError(
            f"initial position {k} at ({pos[k, 0]:g}, {pos[k, 1]:g}) is infeasible"
        )
    for i in range(n):
        if _collides(pos[i], pos, i):
            raise InvalidParameterError("initial positions must be pairwise distinct")

    rows = detection_matrix(pos, grid.space, grid.centers, sensor)
    tally = {"rows": n, "halvings": 0, "rescues": 0, "forfeits": 0}
    value = coverage_from_rows(grid, rows)
    steps = [RefineStep(0, pos.copy(), value, np.zeros(n))]
    reason = "max_iterations"

    for it in range(1, max_iterations + 1):
        grads = _gradients(pos, rows, grid, sensor)
        norms = np.linalg.norm(grads, axis=1)
        if it == 1:
            steps[0].grad_norms = norms.copy()
        if float(np.max(norms)) <= 1e-3 * grid.cell_size:
            reason = "converged"
            break

        moved, pos, rows, value = _synchronous_sweep(
            pos, rows, value, grid, sensor, tally, grads, norms
        )
        steps.append(RefineStep(it, pos.copy(), value, norms))
        if not moved:
            reason = "no_improvement"
            break
    return RefineResult(steps, reason, **tally)


def _joint_proposal(pos, moving, dirs, scale, space, tally):
    """Every mover's projected step at one scale, as one candidate placement.

    One feasibility call decides all targets and only the infeasible ones
    are projected.  Collisions are tested in agent order, so a mover whose
    target lands on an agent already placed keeps its old position.
    """
    targets = pos[moving] + scale * dirs[moving]
    inside = space.feasible_many(targets)
    cand = pos.copy()
    for i, q, ok in zip(moving, targets, inside):
        q = q if ok else project_feasible(q, space)
        if _collides(q, cand, i):
            tally["forfeits"] += 1
        else:
            cand[i] = q
    return cand


def _scales(h, tally):
    """Step lengths of one line search: h / 2, then halvings down to h / 1000."""
    scale = 0.5 * h
    yield scale
    while True:
        scale *= 0.5
        if scale < 1e-3 * h:
            return
        tally["halvings"] += 1
        yield scale


def _synchronous_sweep(pos, rows, value, grid, sensor, tally, grads, norms):
    """One joint line search along the unit gradients, some norm being positive."""
    moving = np.nonzero(norms > 0)[0]
    dirs = np.zeros_like(grads)
    dirs[moving] = grads[moving] / norms[moving, None]
    for scale in _scales(grid.cell_size, tally):
        cand = _joint_proposal(pos, moving, dirs, scale, grid.space, tally)
        changed = np.nonzero(np.any(cand != pos, axis=1))[0]
        if len(changed) == 0:
            return False, pos, rows, value
        new_rows = rows.copy()
        new_rows[changed] = detection_matrix(cand[changed], grid.space, grid.centers, sensor)
        tally["rows"] += len(changed)
        new_value = coverage_from_rows(grid, new_rows)
        if new_value > value:
            return True, cand, new_rows, new_value
    # The joint step can be vetoed by a single agent sitting on a visibility
    # cliff, where the area term misses the jump in coverage.  Keep the
    # synchronously computed directions but accept moves one agent at a
    # time, so a stuck agent forfeits only its own step.
    return _agent_sweep(pos, rows, value, grid, sensor, tally, dirs)


def _agent_sweep(pos, rows, value, grid, sensor, tally, dirs):
    """Move agents one at a time along the unit rows of ``dirs``.

    Each agent is judged against the others as they stand after the moves
    before it; an agent with a zero direction stays put.
    """
    tally["rescues"] += 1
    moved = False
    pos, rows = pos.copy(), rows.copy()
    for i in range(len(pos)):
        if not np.any(dirs[i]):
            continue
        # the others' miss weights the only part of the objective that agent i moves
        weighted_miss = grid.weights * miss_product(np.delete(rows, i, 0))
        base_gain = marginal_gain(weighted_miss, rows[i])
        for scale in _scales(grid.cell_size, tally):
            q = project_feasible(pos[i] + scale * dirs[i], grid.space)
            if _collides(q, pos, i):
                tally["forfeits"] += 1
                continue
            new_row = detection_row(q, grid.space, grid.centers, sensor)
            tally["rows"] += 1
            if marginal_gain(weighted_miss, new_row) > base_gain:
                pos[i], rows[i] = q, new_row
                moved = True
                break
    if moved:
        value = coverage_from_rows(grid, rows)
    return moved, pos, rows, value
