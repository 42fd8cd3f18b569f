"""Event density models and the quadrature grid used to integrate over them.

Spatial integrals are approximated by the midpoint rule on a regular grid laid
over the mission-space bounding box.  A cell participates exactly when its
center is feasible; infeasible cells keep zero weight, which makes the grid
usable both for objective evaluation and for whole-box heatmaps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfiniteMassError, InvalidParameterError, check
from .geometry import EPS, MissionSpace, as_points_array


class UniformDensity:
    """Constant event density ``R(x) = value``."""

    def __init__(self, value: float = 1.0):
        self.value = float(check("density", value, "density value"))

    def __call__(self, points) -> np.ndarray:
        pts = as_points_array(points)
        return np.full(len(pts), self.value)

    def __repr__(self):
        return f"UniformDensity({self.value!r})"


class GaussianMixtureDensity:
    """Baseline plus a sum of isotropic Gaussian bumps.

    R(x) = baseline + sum_k weight_k * exp(-|x - center_k|^2 / (2 sigma_k^2))
    """

    def __init__(self, centers, weights, sigmas, baseline: float = 0.0):
        self.centers = as_points_array(centers)
        self.weights = np.asarray(weights, dtype=float)
        self.sigmas = np.asarray(sigmas, dtype=float)
        k = len(self.centers)
        if self.weights.shape != (k,) or self.sigmas.shape != (k,):
            raise InvalidParameterError(
                "centers, weights and sigmas must have matching lengths"
            )
        self.baseline = float(check("density", baseline, "baseline"))
        check("density", self.weights, "mixture weights")
        check("length", self.sigmas, "mixture sigmas")
        check("coordinate", self.centers, "mixture center coordinates")

    def __call__(self, points) -> np.ndarray:
        pts = as_points_array(points)
        d2 = np.sum((pts[:, None, :] - self.centers[None, :, :]) ** 2, axis=-1)
        with np.errstate(over="ignore"):  # a sigma past 1e154 squares to inf: a flat bump
            spread = 2.0 * self.sigmas[None, :] ** 2
        # a sigma under 1e-162 squares to 0: a point bump, its whole weight at its center alone
        scaled = np.divide(d2, spread, out=np.where(d2 > 0, np.inf, 0.0), where=spread > 0)
        bumps = self.weights[None, :] * np.exp(-scaled)
        return self.baseline + np.sum(bumps, axis=1)

    def __repr__(self):
        return f"GaussianMixtureDensity({len(self.centers)} components)"


class SampledDensity:
    """Density tabulated on a regular grid; lookup snaps to the nearest entry.

    ``values[iy, ix]`` holds the density at ``origin + (ix, iy) * spacing``.
    Queries outside the table clamp to the border entries.
    """

    def __init__(self, origin, spacing: float, values):
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = check("length", float(spacing), "spacing")
        self.values = np.asarray(values, dtype=float)
        if self.origin.shape != (2,) or not np.all(np.isfinite(self.origin)):
            raise InvalidParameterError("origin must be a finite (x, y) pair")
        if self.values.ndim != 2 or self.values.size == 0:
            raise InvalidParameterError("values must be a non-empty 2-d table")
        check("density", self.values, "sampled density values")

    def __call__(self, points) -> np.ndarray:
        pts = as_points_array(points)
        ny, nx = self.values.shape
        # offsets are clamped to the table before they are divided, so no quotient overflows
        span = (self.spacing * (nx - 1), self.spacing * (ny - 1))  # Python floats: no warning
        offset = np.clip(pts - self.origin, 0.0, span)
        ix, iy = np.rint(offset / self.spacing).astype(int).T
        return self.values[iy, ix]

    def __repr__(self):
        return f"SampledDensity({self.values.shape[1]}x{self.values.shape[0]} table)"


class QuadratureGrid:
    """Midpoint-rule grid over the mission-space bounding box.

    Cell centers are ordered row-major with y as the outer loop, so
    ``centers.reshape(ny, nx, 2)`` recovers the image layout.  ``weights``
    already folds in the cell area, the density at the center, and the
    feasibility mask, so integrals reduce to dot products against per-cell
    values.  ``space`` is the mission space the grid was built on, so every
    function that takes a grid reads the space from it.
    """

    def __init__(self, space: MissionSpace, cell_size: float, density):
        self.cell_size = float(check("length", cell_size, "cell size"))
        check("cell area", cell_size * cell_size, f"cell size {cell_size}")
        self.space = space
        xmin, ymin, xmax, ymax = space.bbox
        rx, ry = (xmax - xmin - EPS) / cell_size, (ymax - ymin - EPS) / cell_size
        check("axis points", max(rx, ry), f"cell size {cell_size}")
        self.nx = max(1, math.ceil(rx))
        self.ny = max(1, math.ceil(ry))
        check("points", self.nx * self.ny, f"cell size {cell_size}")
        xs = xmin + (np.arange(self.nx) + 0.5) * cell_size
        ys = ymin + (np.arange(self.ny) + 0.5) * cell_size
        gx, gy = np.meshgrid(xs, ys)  # (ny, nx), y outer
        self.centers = np.column_stack([gx.ravel(), gy.ravel()])
        self.feasible = space.feasible_many(self.centers)
        with np.errstate(over="ignore"):  # an infinite mass is rejected below
            dens = np.asarray(density(self.centers), dtype=float)
            if dens.shape != (len(self.centers),):
                raise InvalidParameterError("density must return one value per query point")
            self.weights = np.where(self.feasible, dens * cell_size**2, 0.0)
            mass = np.sum(self.weights)
        check("event mass", mass, f"event mass on cells of size {cell_size}", InfiniteMassError)

    @property
    def cell_count(self) -> int:
        return len(self.centers)

    @property
    def feasible_count(self) -> int:
        return int(np.count_nonzero(self.feasible))

    def total_mass(self) -> float:
        """Integral of the density over the feasible region (the ceiling for coverage)."""
        return float(np.sum(self.weights))

    def integrate(self, cell_values: np.ndarray) -> float:
        """Midpoint-rule integral of a per-cell field against the weighted density."""
        vals = np.asarray(cell_values, dtype=float)
        if vals.shape != self.weights.shape:
            raise InvalidParameterError(
                f"expected {self.weights.shape[0]} cell values, got {vals.shape}"
            )
        return float(self.weights @ vals)

    def __repr__(self):
        return (
            f"QuadratureGrid({self.nx}x{self.ny}, h={self.cell_size:g}, "
            f"{self.feasible_count}/{self.cell_count} feasible)"
        )


def candidate_lattice(space: MissionSpace, spacing: float) -> np.ndarray:
    """Feasible points of a square lattice anchored at the bbox minimum corner.

    Lattice rows run y-outer, x-inner, and points landing exactly on the far
    bounding-box edges are kept.  Only feasible points are returned.
    """
    check("length", spacing, "lattice spacing")
    xmin, ymin, xmax, ymax = space.bbox
    rx, ry = (xmax - xmin + EPS) / spacing, (ymax - ymin + EPS) / spacing
    check("axis points", max(rx, ry) + 1, f"lattice spacing {spacing}")
    nx = int(math.floor(rx)) + 1
    ny = int(math.floor(ry)) + 1
    check("points", nx * ny, f"lattice spacing {spacing}")
    xs = xmin + np.arange(nx) * spacing
    ys = ymin + np.arange(ny) * spacing
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts[space.feasible_many(pts)]
