"""Grid norms for solution pairs (Y, Z).

All quadrature is left-point, matching the stochastic sums: the time
integral over [S, T] reads nodes 0..N-1 and the double integral reads
cells (i, j) with both indices below N.

Cell sums run in a canonical order (cells sorted after mapping mirrored
pairs of a symmetric kernel to their upper representative), so the two
rectangle integrals related by swapping the time arguments of a
symmetric kernel agree bit for bit, not merely up to rounding.  The
per-cell terms are computed first, reading the kernel a column at a
time, and only then summed in that order.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .fields import AdaptedField, SurfaceField, read_cells


def y_l2(y: AdaptedField) -> float:
    """E integral of |Y|^2 dt by the left-point rule."""
    dt = y.grid.dt
    vals = y.values[:, : y.grid.steps]
    return float(sum(np.mean(vals[:, i] ** 2) * dt for i in range(vals.shape[1])))


def z_cells_l2(z: SurfaceField, cells: Iterable[tuple[int, int]]) -> float:
    """E sum of |Z(t_i, t_j)|^2 dt^2 over the given cells, canonical order."""
    cells = sorted(z.representative(i, j) for i, j in cells)
    dt2 = z.grid.dt**2
    terms = {cell: float(np.mean(v**2)) * dt2 for cell, v in read_cells(z, cells)}
    total = 0.0
    for cell in cells:
        total += terms[cell]
    return total


def z_upper_l2(z: SurfaceField) -> float:
    """Triangle integral over t <= s, the z-part of the S^2-style norm."""
    n = z.grid.steps
    return z_cells_l2(z, ((i, j) for i in range(n) for j in range(i, n)))


def s2_norm(y: AdaptedField, z: SurfaceField) -> float:
    """Triangle-based norm sqrt(E int |Y|^2 + E int int_{t<=s} |Z|^2).

    This is the contraction norm of the fixed-point iteration; it reads
    only the upper triangle and therefore accepts triangle-only kernels.
    """
    return float(np.sqrt(y_l2(y) + z_upper_l2(z)))
