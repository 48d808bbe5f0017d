"""Grid norms and kernel statistics for solution pairs (Y, Z).

All quadrature is left-point, matching the stochastic sums: the time
integral over [S, T] reads nodes 0..N-1 and the double integral reads
cells (i, j) with both indices below N.

A kernel is a coefficient table: cell (i, j) reads X_j c, with X_j the
design at node j and c = ``z.coeffs[z.representative(i, j)]``.  So each
path moment of a cell is a form in c with the moments of its column
(:func:`column_moments`): the Gram G_j = X_j^T X_j / M, whose row 0 is
the row of feature means, and the centred Gram C_j of X_j minus that
row.  The path mean of a cell is c . G_j[0], its mean square
c^T G_j c and its variance c^T C_j c, and no path value of a kernel is
formed.  :func:`cell_forms` takes a form at every cell of a table, term
by term in one fixed order, so a cell's bits depend on its coefficients
and its column alone: tables that agree in a cell agree there bitwise,
and zero coefficients give exact zeros.

Cell sums run in a canonical order (cells sorted after mapping mirrored
pairs of a symmetric kernel to their upper representative), so the two
rectangle integrals related by swapping the time arguments of a
symmetric kernel agree bit for bit, not merely up to rounding.  The
z-part of the triangle norm is :func:`kernel_l2` over
``region_cells("upper", N)``.  Every path mean of a square of Y, per
node, is :func:`mean_square`: one square and one sum, with the bits of
``np.mean(values**2)``.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .fields import AdaptedField, SurfaceField, design_matrix, region_cells
from .grid import TimeGrid
from .regression import design_gram


def mean_square(values: np.ndarray, out: np.ndarray | None = None) -> float:
    """Path mean of ``values**2``, with the bits of ``np.mean(values**2)``.

    One square and one sum; ``out=values`` squares a temporary that the
    caller owns in place, so the term allocates nothing.
    """
    return float(np.add.reduce(np.square(values, out=out)) / values.shape[0])


def _columns_l2(grid: TimeGrid, at_node: Callable[[int], np.ndarray]) -> float:
    """E integral of |at_node(i)|^2 dt by the left-point rule, node by node."""
    dt = grid.dt
    return float(sum(mean_square(at_node(i)) * dt for i in range(grid.steps)))


def y_l2(y: AdaptedField) -> float:
    """E integral of |Y|^2 dt by the left-point rule."""
    return _columns_l2(y.grid, lambda i: y.values[:, i])


def y_diff_l2(y: AdaptedField, other: AdaptedField) -> float:
    """:func:`y_l2` of ``y - other``, one column at a time, with no difference field."""
    return _columns_l2(y.grid, lambda i: y.values[:, i] - other.values[:, i])


def column_moments(state: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Grams G_j and centred Grams C_j of the size-k design at every node j.

    Both are (nodes, k, k).  C_j is the Gram of the design minus its
    mean row G_j[0], never G_j minus that row's outer product, which
    cancels when a cell's mean is large against its spread.
    """
    nodes = state.shape[1]
    grams, centred = np.empty((nodes, k, k)), np.empty((nodes, k, k))
    for j in range(nodes):
        x = design_matrix(state[:, j], k - 1)
        grams[j] = design_gram(x)
        x -= grams[j, 0]
        centred[j] = design_gram(x)
    return grams, centred


def cell_forms(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """c^T A_j c at every cell (i, j) of a table, with c = coeffs[i, j] and A_j = mats[j].

    ``coeffs`` is (rows, nodes, k) and ``mats`` (nodes, K, K) with
    K >= k; the forms read the leading k x k block, which is the Gram
    of the leading k features.  Each term is added on its own, in one
    fixed order, so no cell's bits depend on the other cells.
    """
    k = coeffs.shape[2]
    out = np.zeros(coeffs.shape[:2])
    for a in range(k):
        for b in range(k):
            out += coeffs[:, :, a] * mats[:, a, b] * coeffs[:, :, b]
    return out


def kernel_l2(z: SurfaceField, cells: Iterable[tuple[int, int]], grams: np.ndarray) -> float:
    """:func:`z_cells_l2` from the kernel's column Grams ``grams`` (:func:`column_moments`)."""
    mean_sq = cell_forms(z.coeffs, grams)
    dt2 = z.grid.dt**2
    out = 0.0
    for cell in sorted(z.representative(i, j) for i, j in cells):
        out += float(mean_sq[cell]) * dt2
    return out


def _grams(z: SurfaceField) -> np.ndarray:
    return column_moments(z.state, z.coeffs.shape[2])[0]


def z_cells_l2(z: SurfaceField, cells: Iterable[tuple[int, int]]) -> float:
    """E sum of |Z(t_i, t_j)|^2 dt^2 over the given cells, canonical order."""
    return kernel_l2(z, cells, _grams(z))


def triangle_norm(y: AdaptedField, z: SurfaceField, grams: np.ndarray) -> float:
    """:func:`s2_norm` from the kernel's column Grams ``grams``."""
    return float(np.sqrt(y_l2(y) + kernel_l2(z, region_cells("upper", z.grid.steps), grams)))


def s2_norm(y: AdaptedField, z: SurfaceField) -> float:
    """Triangle-based norm sqrt(E int |Y|^2 + E int int_{t<=s} |Z|^2).

    This is the contraction norm of the fixed-point iteration; it reads
    only the upper triangle and therefore accepts triangle-only kernels.
    """
    return triangle_norm(y, z, _grams(z))
