import pytest

from coverplan import MissionSpace, Polygon

from problems import make_problem


@pytest.fixture(scope="session")
def empty_rect():
    """20 x 10 rectangle, no obstacles."""
    return MissionSpace(Polygon([(0, 0), (20, 0), (20, 10), (0, 10)]))


@pytest.fixture(scope="session")
def one_block():
    """20 x 10 rectangle with a centered square obstacle."""
    return MissionSpace(
        Polygon([(0, 0), (20, 0), (20, 10), (0, 10)]),
        [Polygon([(8, 3), (12, 3), (12, 7), (8, 7)])],
    )


@pytest.fixture(scope="session")
def lshape():
    """Non-convex boundary: a 20 x 10 rectangle with the top-right quarter missing."""
    return MissionSpace(Polygon([(0, 0), (20, 0), (20, 5), (10, 5), (10, 10), (0, 10)]))


@pytest.fixture(scope="session")
def block_problem(one_block):
    grid, sensor, cand = make_problem(one_block)
    return one_block, grid, sensor, cand
