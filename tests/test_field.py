import numpy as np
import pytest

from coverplan import (
    GaussianMixtureDensity,
    InvalidParameterError,
    MissionSpace,
    Polygon,
    QuadratureGrid,
    SampledDensity,
    UniformDensity,
    bundled_scenario_path,
    candidate_lattice,
    parse_scenario,
)


def test_uniform_density():
    d = UniformDensity(2.5)
    assert d(np.zeros((7, 2))).tolist() == [2.5] * 7
    with pytest.raises(InvalidParameterError):
        UniformDensity(-1.0)


def test_gaussian_mixture_density():
    d = GaussianMixtureDensity(centers=[(0, 0)], weights=[2.0], sigmas=[1.0], baseline=0.5)
    vals = d([(0, 0), (0, 1), (100, 100)])
    assert vals[0] == pytest.approx(2.5)
    assert vals[1] == pytest.approx(0.5 + 2.0 * np.exp(-0.5))
    assert vals[2] == pytest.approx(0.5)
    with pytest.raises(InvalidParameterError):
        GaussianMixtureDensity(centers=[(0, 0)], weights=[1.0], sigmas=[0.0])
    with pytest.raises(InvalidParameterError):
        GaussianMixtureDensity(centers=[(0, 0)], weights=[1.0, 2.0], sigmas=[1.0])


def test_a_sigma_whose_square_overflows_gives_a_flat_bump():
    # 2 sigma^2 is inf, so every point gets the whole weight: the limit as sigma grows,
    # and no overflow warning, which this suite would raise
    d = GaussianMixtureDensity(centers=[(0, 0)], weights=[2.0], sigmas=[1e300], baseline=0.5)
    assert np.array_equal(d([(0, 0), (3, -4), (1e150, -1e150)]), [2.5, 2.5, 2.5])


def test_a_sigma_whose_square_underflows_gives_a_point_bump():
    # 2 sigma^2 is 0, so the bump keeps its whole weight at its center and none elsewhere:
    # the limit as sigma shrinks, where the quotient was nan at the center and warned
    d = GaussianMixtureDensity(centers=[(3.5, 5.5)], weights=[2.0], sigmas=[1e-200], baseline=0.5)
    assert np.array_equal(d([(3.5, 5.5), (3.5, 5.6), (1e150, -1e150)]), [2.5, 0.5, 0.5])


@pytest.mark.parametrize("coordinate", [1.0000000000000002e150, -1e300, np.inf, np.nan])
def test_mixture_centers_are_bounded_as_ring_vertices_are(coordinate):
    with pytest.raises(InvalidParameterError) as info:
        GaussianMixtureDensity(centers=[(0, 0), (4, coordinate)], weights=[1, 1], sigmas=[1, 1])
    side = {1.0000000000000002e150: "<= 1e+150", -1e300: ">= -1e+150"}.get(coordinate, "finite")
    assert str(info.value) == f"mixture center coordinates must be {side}, got {coordinate}"
    d = GaussianMixtureDensity(centers=[(-1e150, 1e150)], weights=[1.0], sigmas=[1.0])
    assert np.array_equal(d([(0, 0)]), [0.0])


def test_sampled_density_nearest_lookup():
    table = [[1.0, 2.0], [3.0, 4.0]]  # values[iy][ix] at origin + (ix, iy) * 10
    d = SampledDensity(origin=(0, 0), spacing=10.0, values=table)
    assert d([(0, 0)])[0] == 1.0
    assert d([(10, 0)])[0] == 2.0
    assert d([(0, 10)])[0] == 3.0
    assert d([(4.9, 4.9)])[0] == 1.0  # rounds down to (0,0)
    assert d([(5.1, 5.1)])[0] == 4.0  # rounds up in both axes
    assert d([(-50, 200)])[0] == 3.0  # clamps to the border entries
    with pytest.raises(InvalidParameterError):
        SampledDensity(origin=(0, 0), spacing=10.0, values=[[1.0, -2.0]])
    for origin in [(float("nan"), 0), (0, float("inf"))]:
        with pytest.raises(InvalidParameterError, match="origin"):
            SampledDensity(origin=origin, spacing=10.0, values=table)
    # at a spacing of 1e-320 every offset clamps to the border, and no quotient overflows
    d = SampledDensity(origin=(0, 0), spacing=1e-320, values=table)
    assert np.array_equal(d([(0, 0), (5, 0), (0, 5), (5, 5), (-5, 5)]), [1, 2, 3, 4, 3])


@pytest.mark.parametrize(
    "density",
    [
        UniformDensity(1e308),
        GaussianMixtureDensity(centers=[(3, 3), (3, 3)], weights=[1e308, 1e308], sigmas=[2, 2]),
    ],
    ids=["uniform", "mixture"],
)
def test_a_grid_rejects_event_mass_that_is_not_finite(empty_rect, density):
    # a cell weight or the sum of all of them overflows, and no overflow warning is raised
    with pytest.raises(InvalidParameterError) as info:
        QuadratureGrid(empty_rect, 1.0, density)
    assert str(info.value) == "event mass on cells of size 1.0 is not finite"
    grid = QuadratureGrid(empty_rect, 1.0, UniformDensity(1e305))
    assert grid.total_mass() == pytest.approx(2e307)


def test_a_grid_keeps_the_space_it_was_built_on(one_block):
    # every function that takes a grid reads the space from it
    assert QuadratureGrid(one_block, 2.0, UniformDensity()).space is one_block
    sc = parse_scenario(bundled_scenario_path("wall_60x50"))
    assert sc.build_grid().space is sc.build_space()


def test_grid_layout_and_counts(empty_rect):
    grid = QuadratureGrid(empty_rect, 1.0, UniformDensity())
    assert (grid.nx, grid.ny) == (20, 10)
    assert grid.cell_count == 200
    assert grid.feasible_count == 200
    # row-major, y outer: first cells walk along x at the lowest row
    assert grid.centers[0].tolist() == [0.5, 0.5]
    assert grid.centers[1].tolist() == [1.5, 0.5]
    assert grid.centers[grid.nx].tolist() == [0.5, 1.5]
    assert grid.total_mass() == pytest.approx(200.0)


def test_grid_excludes_obstacle_cells(one_block):
    grid = QuadratureGrid(one_block, 1.0, UniformDensity())
    # the 4x4 block removes 16 cell centers
    assert grid.feasible_count == 200 - 16
    blocked = grid.centers[~grid.feasible]
    assert np.all((blocked[:, 0] > 8) & (blocked[:, 0] < 12))
    assert np.all(grid.weights[~grid.feasible] == 0.0)
    assert grid.total_mass() == pytest.approx(184.0)


def test_grid_cell_area_scaling(empty_rect):
    fine = QuadratureGrid(empty_rect, 0.5, UniformDensity())
    assert (fine.nx, fine.ny) == (40, 20)
    assert fine.total_mass() == pytest.approx(200.0)


def test_grid_non_divisible_cell_size(empty_rect):
    grid = QuadratureGrid(empty_rect, 7.0, UniformDensity())
    # ceil(20/7) = 3 columns, ceil(10/7) = 2 rows; centers beyond the boundary
    # fall outside and carry zero weight
    assert (grid.nx, grid.ny) == (3, 2)
    assert grid.feasible_count < grid.cell_count


def test_grid_validates_cell_size(empty_rect):
    with pytest.raises(InvalidParameterError):
        QuadratureGrid(empty_rect, 0.0, UniformDensity())
    with pytest.raises(InvalidParameterError):
        QuadratureGrid(empty_rect, -1.0, UniformDensity())


def test_integrate_against_closed_form(empty_rect):
    # integral of x over the 20x10 rectangle is 20^2/2 * 10 = 2000; the
    # midpoint rule is exact for linear integrands
    grid = QuadratureGrid(empty_rect, 1.0, UniformDensity())
    assert grid.integrate(grid.centers[:, 0]) == pytest.approx(2000.0)
    with pytest.raises(InvalidParameterError):
        grid.integrate(np.ones(5))


def test_candidate_lattice_counts(empty_rect):
    # 20 x 10 with spacing 4: x in {0,4,...,20} (6), y in {0,4,8} (3)
    cand = candidate_lattice(empty_rect, 4.0)
    assert len(cand) == 18
    assert cand[0].tolist() == [0.0, 0.0]
    # far bbox edges are included
    assert [20.0, 8.0] in cand.tolist()
    with pytest.raises(InvalidParameterError):
        candidate_lattice(empty_rect, 0.0)


def test_candidate_lattice_60x50():
    space = MissionSpace(Polygon([(0, 0), (60, 0), (60, 50), (0, 50)]))
    assert len(candidate_lattice(space, 10.0)) == 42
    assert len(candidate_lattice(space, 5.0)) == 143


def test_candidate_lattice_drops_infeasible(one_block):
    cand = candidate_lattice(one_block, 1.0)
    # 21 x 11 lattice minus points strictly inside the block interior (3x3)
    assert len(cand) == 21 * 11 - 9
    # points on the obstacle edge itself stay feasible
    assert [8.0, 5.0] in cand.tolist()
