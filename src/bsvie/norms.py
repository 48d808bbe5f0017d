"""Grid norms for solution pairs (Y, Z).

All quadrature is left-point, matching the stochastic sums: the time
integral over [S, T] reads nodes 0..N-1 and the double integral reads
cells (i, j) with both indices below N.

Cell sums run in a canonical order (cells sorted after mapping mirrored
pairs of a symmetric kernel to their upper representative), so the two
rectangle integrals related by swapping the time arguments of a
symmetric kernel agree bit for bit, not merely up to rounding.  The
per-cell terms come from one :func:`~bsvie.fields.surface_pass` over
the kernel and are only then summed in that order; :func:`s2_sum` is
the norm as a consumer that can share its pass with other readers.  The
z-part of the norm is :func:`z_cells_l2` over
``region_cells("upper", N)``.  Every path mean of a square, per cell
and per node, is :func:`mean_square`: one square and one sum, with the
bits of ``np.mean(values**2)``.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .fields import AdaptedField, CellSum, SurfaceField, region_cells, surface_pass
from .grid import TimeGrid


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


def _l2_sum(z: SurfaceField, cells: Iterable[tuple[int, int]]) -> CellSum:
    cells = sorted(z.representative(i, j) for i, j in cells)
    dt2 = z.grid.dt**2

    def total(terms: dict) -> float:
        out = 0.0
        for cell in cells:
            out += terms[cell]
        return out

    return CellSum(cells, lambda cell, v: mean_square(v) * dt2, total)


def z_cells_l2(z: SurfaceField, cells: Iterable[tuple[int, int]]) -> float:
    """E sum of |Z(t_i, t_j)|^2 dt^2 over the given cells, canonical order."""
    return surface_pass(z, [_l2_sum(z, cells)])[0]


def s2_sum(y: AdaptedField, z: SurfaceField) -> CellSum:
    """:func:`s2_norm` as a consumer of a pass over ``z``."""
    upper = _l2_sum(z, region_cells("upper", z.grid.steps))
    return CellSum(upper.cells, upper.term,
                   lambda terms: float(np.sqrt(y_l2(y) + upper.total(terms))))


def s2_norm(y: AdaptedField, z: SurfaceField) -> float:
    """Triangle-based norm sqrt(E int |Y|^2 + E int int_{t<=s} |Z|^2).

    This is the contraction norm of the fixed-point iteration; it reads
    only the upper triangle and therefore accepts triangle-only kernels.
    """
    return surface_pass(z, [s2_sum(y, z)])[0]
