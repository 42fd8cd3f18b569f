"""Problem builders and layouts shared by the test modules.

They live here rather than in ``conftest.py``: the benchmark's tests have a
``conftest.py`` of their own, pytest imports both as the module ``conftest``,
and a test module importing from ``conftest`` may get the other one.
"""

from coverplan import (
    MissionSpace,
    Polygon,
    QuadratureGrid,
    SensorModel,
    UniformDensity,
    candidate_lattice,
    line_of_sight_many,
)


_SQUARE_10 = [(0, 0), (10, 0), (10, 10), (0, 10)]
_SQUARE = [(1, 1), (4, 1), (4, 4), (1, 4)]
# (boundary, obstacles) of spaces whose obstacles touch each other or the
# boundary without overlapping
TOUCHING_LAYOUTS = {
    "shared full edge": (_SQUARE_10, [_SQUARE, [(4, 1), (7, 1), (7, 4), (4, 4)]]),
    "shared partial edge": (_SQUARE_10, [_SQUARE, [(4, 2), (7, 2), (7, 6), (4, 6)]]),
    "corner touch": (_SQUARE_10, [_SQUARE, [(4, 4), (8, 4), (8, 8), (4, 8)]]),
    "wall across the whole space": (_SQUARE_10, [[(4, 0), (6, 0), (6, 10), (4, 10)]]),
    "lying on a boundary edge": (_SQUARE_10, [[(2, 0), (5, 0), (5, 3), (2, 3)]]),
    # an L-shaped obstacle hugging an L-shaped boundary's inner corner, two
    # edges on the boundary
    "hugging the notch's inner corner": (
        [(0, 0), (12, 0), (12, 6), (6, 6), (6, 12), (0, 12)],
        [[(4, 4), (8, 4), (8, 6), (6, 6), (6, 8), (4, 8)]],
    ),
}


def sees(a, b, ms):
    return bool(line_of_sight_many(a, [b], ms)[0])


def fresh(space):
    """A new space of the same rings, whose sight memo keeps nothing from earlier calls."""
    return MissionSpace(space.boundary, space.obstacles)


def make_problem(space, cell_size=1.0, decay=0.1, radius=30.0, spacing=4.0):
    grid = QuadratureGrid(space, cell_size, UniformDensity())
    sensor = SensorModel(decay=decay, radius=radius)
    cand = candidate_lattice(space, spacing)
    return grid, sensor, cand


def random_space(rng, with_obstacle=True):
    """A small random rectangle, optionally holding one random convex obstacle."""
    w = float(rng.uniform(10, 24))
    h = float(rng.uniform(8, 16))
    boundary = Polygon([(0, 0), (w, 0), (w, h), (0, h)])
    obstacles = []
    if with_obstacle:
        cx = float(rng.uniform(0.3 * w, 0.7 * w))
        cy = float(rng.uniform(0.3 * h, 0.7 * h))
        rx = float(rng.uniform(0.08, 0.18) * w)
        ry = float(rng.uniform(0.08, 0.18) * h)
        obstacles.append(
            Polygon([(cx - rx, cy - ry), (cx + rx, cy - ry), (cx + rx, cy + ry), (cx - rx, cy + ry)])
        )
    return MissionSpace(boundary, obstacles)
