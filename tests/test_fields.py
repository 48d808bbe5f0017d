import numpy as np
import pytest

from bsvie import (
    AdaptedField,
    CompositeSurface,
    FuncSurface,
    SymmetricSurface,
    build_grid,
    design_matrix,
)
from bsvie.fields import CoeffSurface


@pytest.fixture(scope="module")
def grid():
    return build_grid(1.0, 4)


def test_adapted_field_shape_and_access(grid):
    values = np.arange(15.0).reshape(3, 5)
    y = AdaptedField(grid, values)
    assert y.n_paths == 3
    np.testing.assert_array_equal(y.at(2), values[:, 2])
    with pytest.raises(ValueError):
        AdaptedField(grid, np.zeros((3, 4)))


def test_design_matrix_is_increasing_vandermonde():
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_array_equal(
        design_matrix(x, 2), [[1, 0, 0], [1, 1, 1], [1, 2, 4]]
    )


def test_region_bounds_checked(grid):
    z = FuncSurface(grid, 2, lambda i, j: np.zeros(2))
    with pytest.raises(IndexError):
        z.at(0, 5)
    with pytest.raises(IndexError):
        z.at(-1, 0)


def test_triangle_regions_enforced(grid):
    upper = FuncSurface(grid, 2, lambda i, j: np.zeros(2), region="upper")
    lower = FuncSurface(grid, 2, lambda i, j: np.zeros(2), region="lower")
    upper.at(1, 1)
    lower.at(2, 1)
    with pytest.raises(IndexError):
        upper.at(2, 1)
    with pytest.raises(IndexError):
        lower.at(1, 1)
    with pytest.raises(IndexError):
        lower.at(1, 2)


def test_symmetric_surface_mirrors_same_array(grid):
    upper = FuncSurface(grid, 2, lambda i, j: np.full(2, 10.0 * i + j), region="upper")
    z = SymmetricSurface(upper)
    assert z.region == "full"
    assert z.extension == "symmetric"
    np.testing.assert_array_equal(z.at(3, 1), z.at(1, 3))
    np.testing.assert_array_equal(z.at(3, 1), np.full(2, 13.0))


def test_symmetric_surface_requires_upper_base(grid):
    full = FuncSurface(grid, 2, lambda i, j: np.zeros(2))
    with pytest.raises(ValueError):
        SymmetricSurface(full)


def test_composite_surface_dispatches_by_triangle(grid):
    upper = FuncSurface(grid, 2, lambda i, j: np.full(2, 1.0), region="upper")
    lower = FuncSurface(grid, 2, lambda i, j: np.full(2, -1.0), region="lower")
    z = CompositeSurface(upper, lower, extension="martingale")
    assert z.region == "full"
    assert z.extension == "martingale"
    np.testing.assert_array_equal(z.at(1, 3), np.full(2, 1.0))
    np.testing.assert_array_equal(z.at(2, 2), np.full(2, 1.0))
    np.testing.assert_array_equal(z.at(3, 1), np.full(2, -1.0))
    with pytest.raises(ValueError):
        CompositeSurface(lower, upper, extension="martingale")


def test_composite_surface_rejects_foreign_grid(grid):
    # same node count, different interval
    other = build_grid(2.0, 4, 0.5)
    upper = FuncSurface(grid, 2, lambda i, j: np.zeros(2), region="upper")
    lower = FuncSurface(other, 2, lambda i, j: np.zeros(2), region="lower")
    with pytest.raises(ValueError):
        CompositeSurface(upper, lower, extension="martingale")
    same = FuncSurface(build_grid(1.0, 4), 2, lambda i, j: np.zeros(2), region="lower")
    CompositeSurface(upper, same, extension="martingale")


def test_func_surface_broadcasts_scalars(grid):
    z = FuncSurface(grid, 3, lambda i, j: i * 1.0 + j)
    np.testing.assert_array_equal(z.at(1, 2), np.full(3, 3.0))


def test_coeff_surface_evaluates_node_polynomial(grid):
    # state[:, j] is the driver value at node j for both paths
    state = np.stack([np.arange(5.0), -np.arange(5.0)], axis=0)
    coeffs = np.zeros((5, 5, 3))
    coeffs[1, 2] = [1.0, 2.0, 0.5]
    z = CoeffSurface(grid, state, coeffs, region="upper")
    w = state[:, 2]
    np.testing.assert_allclose(z.at(1, 2), 1.0 + 2.0 * w + 0.5 * w**2)
    with pytest.raises(IndexError):
        z.at(2, 1)
    with pytest.raises(ValueError):
        CoeffSurface(grid, state, coeffs, region="full")
