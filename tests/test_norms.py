import numpy as np
import pytest

from bsvie import (
    AdaptedField,
    DenseSurface,
    FuncSurface,
    SymmetricSurface,
    build_grid,
    s2_norm,
    star_h2_norm,
    y_l2,
    z_cells_l2,
    z_full_l2,
    z_upper_l2,
)

M = 32


@pytest.fixture(scope="module")
def grid():
    return build_grid(1.0, 16)


def _const_field(grid, c):
    return AdaptedField(grid, np.full((M, len(grid)), c))


def _const_surface(grid, c, region="full"):
    return DenseSurface(grid, np.full((M, len(grid), len(grid)), c), region=region)


def test_constant_field_values(grid):
    assert y_l2(_const_field(grid, 2.0)) == pytest.approx(4.0 * grid.span, rel=1e-12)
    assert z_full_l2(_const_surface(grid, 3.0)) == pytest.approx(
        9.0 * grid.span**2, rel=1e-12
    )
    diagonal = ((i, i) for i in range(grid.steps))
    assert z_cells_l2(_const_surface(grid, 1.0), diagonal) == pytest.approx(
        grid.steps * grid.dt**2, rel=1e-12
    )


def test_s2_norm_hand_value(grid):
    # unit fields on the unit interval: y part integrates to 1, the
    # closed upper triangle holds N(N+1)/2 cells of size dt^2
    n = grid.steps
    expected = np.sqrt(1.0 + (n + 1) / (2.0 * n))
    y = _const_field(grid, 1.0)
    z = _const_surface(grid, 1.0)
    assert s2_norm(y, z) == pytest.approx(expected, rel=1e-12)


def test_cell_order_is_canonical(grid):
    rng = np.random.default_rng(0)
    z = DenseSurface(grid, rng.standard_normal((M, len(grid), len(grid))))
    cells = [(3, 7), (0, 1), (5, 5), (2, 9)]
    shuffled = [cells[2], cells[0], cells[3], cells[1]]
    assert z_cells_l2(z, cells) == z_cells_l2(z, shuffled)


def test_symmetric_cells_resolve_to_upper_representative(grid):
    rng = np.random.default_rng(1)
    upper = FuncSurface(
        grid, M, lambda i, j: rng.standard_normal(M) * 0 + (i + 1) * (j + 1), region="upper"
    )
    z = SymmetricSurface(upper)
    assert z_cells_l2(z, [(7, 3)]) == z_cells_l2(z, [(3, 7)])


def test_rectangle_integrals_agree_across_diagonal(grid):
    # mirrored rectangles of a symmetric kernel carry the same mass,
    # and the canonical cell order makes the equality bitwise
    upper = FuncSurface(grid, M, lambda i, j: np.full(M, i + 2.0 * j), region="upper")
    z = SymmetricSurface(upper)
    split = 8
    head = range(0, split)
    tail = range(split, grid.steps)
    upper_rect = [(i, j) for i in head for j in tail]
    lower_rect = [(i, j) for i in tail for j in head]
    assert z_cells_l2(z, upper_rect) == z_cells_l2(z, lower_rect)


def test_star_norm_quadratic_scaling(grid):
    rng = np.random.default_rng(2)
    y = AdaptedField(grid, rng.standard_normal((M, len(grid))))
    z = DenseSurface(grid, rng.standard_normal((M, len(grid), len(grid))))
    base = star_h2_norm(y, z)
    scaled = star_h2_norm(
        AdaptedField(grid, 2.0 * y.values), DenseSurface(grid, 2.0 * z.values)
    )
    assert scaled.y_l2 == pytest.approx(4.0 * base.y_l2, rel=1e-12)
    assert scaled.z_l2 == pytest.approx(4.0 * base.z_l2, rel=1e-12)
    assert scaled.total == pytest.approx(2.0 * base.total, rel=1e-12)
    assert base.region == "full-square"


def test_star_norm_tags_symmetric_kernels(grid):
    upper = FuncSurface(grid, M, lambda i, j: np.full(M, 1.0), region="upper")
    report = star_h2_norm(_const_field(grid, 1.0), SymmetricSurface(upper))
    assert report.region == "dc-doubled"


def test_star_norm_rejects_triangle_kernels(grid):
    upper = FuncSurface(grid, M, lambda i, j: np.full(M, 1.0), region="upper")
    with pytest.raises(ValueError):
        star_h2_norm(_const_field(grid, 1.0), upper)


def test_path_duplication_preserves_norms(grid):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((M, len(grid), len(grid)))
    single = DenseSurface(grid, values)
    doubled = DenseSurface(grid, np.concatenate([values, values], axis=0))
    assert z_full_l2(doubled) == pytest.approx(z_full_l2(single), rel=1e-13)


def test_upper_plus_strict_lower_equals_full(grid):
    rng = np.random.default_rng(4)
    z = DenseSurface(grid, rng.standard_normal((M, len(grid), len(grid))))
    n = grid.steps
    strict_lower = z_cells_l2(z, ((i, j) for i in range(n) for j in range(i)))
    assert z_upper_l2(z) + strict_lower == pytest.approx(z_full_l2(z), rel=1e-12)
