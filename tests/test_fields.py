import numpy as np
import pytest

from bsvie import (
    AdaptedField,
    SurfaceField,
    SymmetricSurface,
    build_grid,
    design_matrix,
    sample_ensemble,
)
from bsvie.fields import CoeffSurface


@pytest.fixture(scope="module")
def grid():
    return build_grid(1.0, 4)


def _zeros(grid, region="full"):
    """A zero kernel of two paths: a 2-column table of zeros."""
    n = len(grid)
    return CoeffSurface(grid, np.zeros((2, n)), np.zeros((n, n, 2)), region=region)


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


@pytest.mark.parametrize("degree", range(6))
def test_design_matrix_has_the_bytes_of_vander(degree):
    # each power is the previous one times the state, as in np.vander's
    # running product, on a sampled ensemble's contiguous node column and
    # on a strided column of a path-major copy
    ensemble = sample_ensemble(build_grid(1.0, 4), 512, seed=2)
    path_major = ensemble.values.copy(order="C")
    contiguous, strided = ensemble.values[:, 3], path_major[:, 2]
    assert contiguous.flags.c_contiguous and not strided.flags.c_contiguous
    for state in (contiguous, strided):
        x = design_matrix(state, degree)
        assert x.dtype == np.float64 and x.flags.c_contiguous
        expected = np.vander(state, degree + 1, increasing=True)
        assert x.shape == expected.shape
        assert x.tobytes() == expected.tobytes()


def test_region_bounds_checked(grid):
    z = _zeros(grid)
    with pytest.raises(IndexError):
        z.at(0, 5)
    with pytest.raises(IndexError):
        z.at(-1, 0)


def test_triangle_regions_enforced(grid):
    upper = _zeros(grid, region="upper")
    full = _zeros(grid, region="full")
    upper.at(1, 1)
    upper.at(1, 2)
    full.at(2, 1)
    with pytest.raises(IndexError, match="outside the upper triangle"):
        upper.at(2, 1)


@pytest.mark.parametrize("region", ["lower", "diagonal", "Upper"])
def test_unknown_surface_region_rejected(grid, region):
    with pytest.raises(ValueError, match="surface region"):
        SurfaceField(grid, 2, region=region)
    with pytest.raises(ValueError, match="surface region"):
        CoeffSurface(grid, np.zeros((2, 5)), np.zeros((5, 5, 2)), region=region)


def test_symmetric_surface_mirrors_same_array(grid):
    coeffs = np.zeros((5, 5, 2))
    coeffs[:, :, 0] = 10.0 * np.arange(5)[:, None] + np.arange(5)[None, :]
    z = SymmetricSurface(CoeffSurface(grid, np.ones((2, 5)), coeffs, region="upper"))
    assert z.region == "full"
    np.testing.assert_array_equal(z.at(3, 1), z.at(1, 3))
    np.testing.assert_array_equal(z.at(3, 1), np.full(2, 13.0))
    # the view indexes its base's table at the representative cell
    assert z.coeffs is coeffs and z.representative(3, 1) == (1, 3)


def test_symmetric_surface_requires_upper_base(grid):
    with pytest.raises(ValueError):
        SymmetricSurface(_zeros(grid))


def test_full_coeff_surface_reads_both_triangles(grid):
    # one table: rows i <= j and rows i > j of a column share the node-j state
    state = np.stack([np.arange(5.0), -np.arange(5.0)], axis=0)
    coeffs = np.zeros((5, 5, 2))
    coeffs[1, 3] = [1.0, 0.0]
    coeffs[3, 3] = [0.0, 1.0]
    coeffs[4, 3] = [-1.0, 2.0]
    z = CoeffSurface(grid, state, coeffs, region="full")
    assert z.region == "full"
    np.testing.assert_array_equal(z.at(1, 3), [1.0, 1.0])
    np.testing.assert_array_equal(z.at(3, 3), [3.0, -3.0])
    np.testing.assert_array_equal(z.at(4, 3), [5.0, -7.0])
    np.testing.assert_array_equal(z.at(0, 3), [0.0, 0.0])


@pytest.mark.parametrize("kind", ["symmetric", "full"])
def test_column_reads_equal_cell_reads_bitwise(grid, kind):
    rng = np.random.default_rng(3)
    state = rng.standard_normal((64, 5))
    coeffs = rng.standard_normal((5, 5, 4))
    if kind == "symmetric":
        z = SymmetricSurface(CoeffSurface(grid, state, coeffs, region="upper"))
    else:
        z = CoeffSurface(grid, state, coeffs, region="full")
    rows = range(5)
    for j in range(5):
        for i, values in zip(rows, z.column(j, rows)):
            assert values.tobytes() == z.at(i, j).tobytes()


def test_constant_table_reads_its_constant_exactly(grid):
    # a constant in column 0 and a zero in column 1 read the constant on
    # every path, with no rounding from the state: the reference tables'
    # cells read the bits of np.full
    state = sample_ensemble(grid, 512, seed=3).values
    coeffs = np.zeros((5, 5, 2))
    coeffs[:, :, 0] = np.add.outer(np.arange(5.0), np.arange(5.0)) / 3.0
    z = CoeffSurface(grid, state, coeffs, region="full")
    for i in range(5):
        for j in range(5):
            assert z.at(i, j).tobytes() == np.full(512, coeffs[i, j, 0]).tobytes()


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
        CoeffSurface(grid, state, coeffs, region="diagonal")
