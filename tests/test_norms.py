import numpy as np
import pytest

from bsvie import (
    AdaptedField,
    CoeffSurface,
    SymmetricSurface,
    build_grid,
    s2_norm,
    y_l2,
    z_cells_l2,
)
from bsvie.norms import y_diff_l2

M = 32


@pytest.fixture(scope="module")
def grid():
    return build_grid(1.0, 16)


def _const_field(grid, c):
    return AdaptedField(grid, np.full((M, len(grid)), c))


def _table_surface(grid, coeffs, state=None, region="full"):
    """A kernel given by a coefficient table (nodes, nodes, k) on a state (paths, nodes)."""
    if state is None:
        state = np.zeros((M, len(grid)))
    return CoeffSurface(grid, state, coeffs, region=region)


def _random_surface(grid, rng, state=None):
    n = len(grid)
    state = rng.standard_normal((M, n)) if state is None else state
    return _table_surface(grid, rng.standard_normal((n, n, 3)), state)


def _const_surface(grid, c):
    n = len(grid)
    coeffs = np.zeros((n, n, 2))
    coeffs[:, :, 0] = c
    return _table_surface(grid, coeffs)


def _upper_surface(grid, value):
    """Symmetric kernel with the constant ``value(i, j)`` in upper cell (i, j)."""
    n = len(grid)
    coeffs = np.zeros((n, n, 1))
    for i in range(n):
        for j in range(i, n):
            coeffs[i, j, 0] = value(i, j)
    return SymmetricSurface(_table_surface(grid, coeffs, region="upper"))


def _square(grid):
    n = grid.steps
    return [(i, j) for i in range(n) for j in range(n)]


def test_constant_field_values(grid):
    span = grid.horizon - grid.start
    assert y_l2(_const_field(grid, 2.0)) == pytest.approx(4.0 * span, rel=1e-12)
    assert z_cells_l2(_const_surface(grid, 3.0), _square(grid)) == pytest.approx(
        9.0 * span**2, rel=1e-12
    )
    diagonal = ((i, i) for i in range(grid.steps))
    assert z_cells_l2(_const_surface(grid, 1.0), diagonal) == pytest.approx(
        grid.steps * grid.dt**2, rel=1e-12
    )


def test_the_difference_norm_is_the_norm_of_the_difference_field(grid):
    # formed column by column, it sums in y_l2's order: the same bits
    rng = np.random.default_rng(3)
    a, b = (AdaptedField(grid, rng.standard_normal((M, len(grid)))) for _ in range(2))
    assert y_diff_l2(a, b) == y_l2(AdaptedField(grid, a.values - b.values))



def test_s2_norm_hand_value(grid):
    # unit fields on the unit interval: y part integrates to 1, the
    # closed upper triangle holds N(N+1)/2 cells of size dt^2
    n = grid.steps
    expected = np.sqrt(1.0 + (n + 1) / (2.0 * n))
    y = _const_field(grid, 1.0)
    z = _const_surface(grid, 1.0)
    assert s2_norm(y, z) == pytest.approx(expected, rel=1e-12)


def test_cell_order_is_canonical(grid):
    z = _random_surface(grid, np.random.default_rng(0))
    cells = [(3, 7), (0, 1), (5, 5), (2, 9)]
    shuffled = [cells[2], cells[0], cells[3], cells[1]]
    assert z_cells_l2(z, cells) == z_cells_l2(z, shuffled)


def test_symmetric_cells_resolve_to_upper_representative(grid):
    z = _upper_surface(grid, lambda i, j: (i + 1) * (j + 1))
    assert z_cells_l2(z, [(7, 3)]) == z_cells_l2(z, [(3, 7)])


def test_rectangle_integrals_agree_across_diagonal(grid):
    # mirrored rectangles of a symmetric kernel carry the same mass,
    # and the canonical cell order makes the equality bitwise
    z = _upper_surface(grid, lambda i, j: i + 2.0 * j)
    split = 8
    head = range(0, split)
    tail = range(split, grid.steps)
    upper_rect = [(i, j) for i in head for j in tail]
    lower_rect = [(i, j) for i in tail for j in head]
    assert z_cells_l2(z, upper_rect) == z_cells_l2(z, lower_rect)


def test_s2_norm_quadratic_scaling(grid):
    rng = np.random.default_rng(2)
    y = AdaptedField(grid, rng.standard_normal((M, len(grid))))
    z = _random_surface(grid, rng)
    base = s2_norm(y, z)
    doubled = _table_surface(grid, 2.0 * z.coeffs, z.state)
    scaled = s2_norm(AdaptedField(grid, 2.0 * y.values), doubled)
    assert scaled == pytest.approx(2.0 * base, rel=1e-12)


def test_symmetric_full_square_counts_mirrored_cells_twice(grid):
    z = _upper_surface(grid, lambda i, j: i + 2.0 * j)
    n = grid.steps
    diagonal = z_cells_l2(z, ((i, i) for i in range(n)))
    strict_upper = z_cells_l2(z, ((i, j) for i in range(n) for j in range(i + 1, n)))
    assert z_cells_l2(z, _square(grid)) == pytest.approx(
        diagonal + 2.0 * strict_upper, rel=1e-12
    )


def test_path_duplication_preserves_norms(grid):
    rng = np.random.default_rng(3)
    single = _random_surface(grid, rng)
    doubled = _table_surface(grid, single.coeffs, np.concatenate([single.state] * 2, axis=0))
    assert z_cells_l2(doubled, _square(grid)) == pytest.approx(
        z_cells_l2(single, _square(grid)), rel=1e-13
    )


def test_upper_plus_strict_lower_equals_full(grid):
    z = _random_surface(grid, np.random.default_rng(4))
    n = grid.steps
    strict_lower = z_cells_l2(z, ((i, j) for i in range(n) for j in range(i)))
    upper = z_cells_l2(z, ((i, j) for i in range(n) for j in range(i, n)))
    assert upper + strict_lower == pytest.approx(
        z_cells_l2(z, _square(grid)), rel=1e-12
    )


def test_cell_norms_are_the_path_means_of_the_squared_values(grid):
    # the quadratic form c^T G_j c against np.mean over the cell's paths
    z = _random_surface(grid, np.random.default_rng(5))
    dt2 = grid.dt**2
    for i, j in [(0, 0), (2, 9), (9, 2), (15, 15)]:
        oracle = float(np.mean(z.at(i, j) ** 2)) * dt2
        assert z_cells_l2(z, [(i, j)]) == pytest.approx(oracle, rel=1e-13)


def test_zero_coefficients_give_exact_zero_norms(grid):
    z = _table_surface(grid, np.zeros((len(grid), len(grid), 4)),
                       np.random.default_rng(6).standard_normal((M, len(grid))))
    assert z_cells_l2(z, _square(grid)) == 0.0
    assert s2_norm(_const_field(grid, 0.0), z) == 0.0
