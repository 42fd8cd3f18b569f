"""Sensor model, per-agent detection fields, and the joint coverage objective.

An agent at s detects an event at x with probability exp(-decay * |x - s|)
when x is visible from s (segment inside the feasible region, range at most
``radius``), and probability zero otherwise; :meth:`SensorModel.detect` is the
one place that rule is written.  Agents detect independently, so a team
misses an event only when every member misses it, and the objective is the
density-weighted integral of the joint detection probability.

Rows for several positions take their sight lines from one stacked
``line_of_sight_many`` call.  The float rows are then built a few at a time,
straight into the result: distances are written into the block's rows and
the detection rule runs there in place, so a matrix holds no (n, T) float
array besides the result.  A block takes as many rows as keep its one float
temporary under glibc's 128 KiB mmap threshold (5 rows at 3000 cells, 1 from
8192 cells on), so the temporary is reused from the heap instead of being
mapped and faulted in anew.  Distances are taken against the targets' (2, T)
coordinate rows, copied C-contiguous once per call, so each block sweeps
contiguous memory whatever the targets' layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check
from .field import QuadratureGrid
from .geometry import EPS, MissionSpace, as_points_array, as_xy, line_of_sight_many

# Floats in 128 KiB, glibc's default mmap threshold, which a detection
# block's float temporary stays under.
_BLOCK_FLOATS = (128 * 1024) // 8


@dataclass(frozen=True)
class SensorModel:
    """Exponential range decay with a hard visibility cutoff."""

    decay: float
    radius: float

    def __post_init__(self):
        check("decay", self.decay, "decay")
        check("length", self.radius, "radius")

    def in_reach(self, dist: np.ndarray, los: np.ndarray) -> np.ndarray:
        """Where an event can be detected at all: in sight and within range."""
        return los & (dist <= self.radius + EPS)

    def detect(self, dist: np.ndarray, los: np.ndarray, out=None, reach=None) -> np.ndarray:
        """Detection probabilities at distances ``dist`` with sight lines ``los`` (any shape).

        ``out``, when given, receives them in place of a fresh array.
        ``reach``, when given, is :meth:`in_reach` of the same arguments.
        Every exponential is taken and those out of reach are then zeroed,
        which is faster than a masked exponential and equal to it bit for bit.
        """
        if reach is None:
            reach = self.in_reach(dist, los)
        out = np.multiply(dist, -self.decay, out=out)
        np.exp(out, out=out)
        out *= reach
        return out


def _distances(sources: np.ndarray, xy: np.ndarray, out=None) -> np.ndarray:
    """Distances from a (k, 2) stack of sources to (2, T) coordinate rows: shape (k, T).

    ``out``, when given, receives them in place of a fresh array.
    """
    dx = np.subtract(xy[0], sources[:, 0, None], out=out)
    dy = xy[1] - sources[:, 1, None]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def detection_row(position, space: MissionSpace, targets, sensor: SensorModel) -> np.ndarray:
    """Detection probability of one agent against each target point."""
    return detection_matrix(as_xy(position)[None], space, targets, sensor)[0]


def detection_matrix(positions, space: MissionSpace, targets, sensor: SensorModel) -> np.ndarray:
    """Stack of detection rows, one per position: shape (n, T)."""
    pos = as_points_array(positions)
    pts = as_points_array(targets)
    los = line_of_sight_many(pos, pts, space)
    xy = np.ascontiguousarray(pts.T)  # (2, T)
    rows = np.empty((len(pos), len(pts)))
    step = _block_rows(len(pts))
    for a in range(0, len(pos), step):
        block = rows[a : a + step]
        sensor.detect(_distances(pos[a : a + step], xy, out=block), los[a : a + step], out=block)
    return rows


def _block_rows(cells: int) -> int:
    """Rows per block: the most whose (rows, cells) float temporary is under 128 KiB."""
    return max(1, (_BLOCK_FLOATS - 1) // max(cells, 1))


class DetectionCache:
    """Distances and sight lines for fixed positions, reusable across sensor models.

    Line of sight does not depend on the sensor, so parameter sweeps over decay
    or radius only pay for the exponential, not for the geometry.  Which
    pairs are in reach is kept while the radius stays the same.
    """

    def __init__(self, positions, space: MissionSpace, targets):
        self.positions = as_points_array(positions)
        self.targets = as_points_array(targets)
        self.dist = _distances(self.positions, np.ascontiguousarray(self.targets.T))  # (n, T)
        self.los = line_of_sight_many(self.positions, self.targets, space)  # (n, T)
        self._reach = (None, None)  # (radius, in-reach mask)

    def probs(self, sensor: SensorModel, out=None) -> np.ndarray:
        """Detection probabilities under ``sensor``, written into ``out`` when given."""
        if self._reach[0] != sensor.radius:
            self._reach = (sensor.radius, sensor.in_reach(self.dist, self.los))
        return sensor.detect(self.dist, self.los, out=out, reach=self._reach[1])


def miss_product(rows: np.ndarray) -> np.ndarray:
    """Probability that every agent misses each target: prod_i (1 - p_i)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return np.prod(1.0 - rows, axis=0)


def joint_detection(rows: np.ndarray) -> np.ndarray:
    """Probability that at least one agent detects each target."""
    return 1.0 - miss_product(rows)


def coverage_from_rows(grid: QuadratureGrid, rows: np.ndarray) -> float:
    """Objective value from precomputed detection rows."""
    if rows.size == 0:
        return 0.0
    return grid.integrate(joint_detection(rows))


def coverage(positions, grid: QuadratureGrid, sensor: SensorModel) -> float:
    """Density-weighted integral of the joint detection probability over ``grid.space``.

    ``positions`` may be empty, in which case the value is 0.
    """
    if len(positions) == 0:
        return 0.0
    rows = detection_matrix(positions, grid.space, grid.centers, sensor)
    return coverage_from_rows(grid, rows)


def marginal_gain(weighted_miss: np.ndarray, row: np.ndarray) -> float:
    """Increase of the objective from adding one agent with detection ``row``.

    ``weighted_miss`` is the grid's weights times the current per-target miss
    probability, formed once by the caller for every gain against the same
    team.  Every greedy gain comes from here.
    """
    return float(np.dot(weighted_miss, row))
