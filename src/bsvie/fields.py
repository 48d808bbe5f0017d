"""Containers for solution fields on a grid.

An :class:`AdaptedField` stores one value per (path, node).  A
:class:`SurfaceField` is a two-time kernel Z(t_i, t_j) held as a
regression coefficient table on the driver state: cell (i, j) reads
X_c coeffs[r, c], with (r, c) its representative cell and X_c the
design at node c.  Its one read is ``at(i, j) -> (n_paths,)``.  A
kernel's statistics read no path values: every path moment of a cell
is a form in its coefficients (see :mod:`bsvie.norms`).  The path
values are read only where they are the output: the residual's
stochastic sums and the per-path export.

Regions: ``upper`` covers the closed triangle t_i <= t_j, ``lower`` the
strict triangle t_i > t_j, ``full`` the whole square;
:func:`region_cells` lists a region's cells.  A surface covers ``upper``
or ``full``; ``lower`` only names the cells the error metrics sum.  A
full surface is completed from its upper part in one of two ways, which
differ only in the representative of a lower cell: a
:class:`SymmetricSurface` mirrors the upper table across the diagonal,
and a full table holds a lower triangle of its own, which comes from
the stochastic-integral representation of Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import TimeGrid

Region = str  # "upper" | "lower" | "full"
_SURFACE_REGIONS = ("upper", "full")


@dataclass(frozen=True)
class AdaptedField:
    """Per-path process values Y[p, i], one column per grid node."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != len(self.grid):
            raise ValueError("value array shape disagrees with grid")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def at(self, i: int) -> np.ndarray:
        return self.values[:, i]


def _in_region(region: Region, i: int, j: int) -> bool:
    return region == "full" or (i <= j) == (region == "upper")


def _check_region(region: Region, i: int, j: int, steps: int) -> None:
    if not (0 <= i <= steps and 0 <= j <= steps):
        raise IndexError(f"surface index ({i}, {j}) outside the grid")
    if not _in_region(region, i, j):
        raise IndexError(f"({i}, {j}) lies outside the upper triangle")


def region_cells(region: Region, n: int) -> list[tuple[int, int]]:
    """Cells (i, j) of ``region`` with both indices below ``n``, row by row."""
    return [(i, j) for i in range(n) for j in range(n) if _in_region(region, i, j)]


def design_matrix(state: np.ndarray, degree: int) -> np.ndarray:
    """Vandermonde features 1, x, ..., x^degree of a state vector.

    Each power is the previous one times the state, the product order of
    ``np.vander(state, degree + 1, increasing=True)``, so the bytes are
    the same; filling the columns directly is several times faster.
    """
    x = np.empty((state.shape[0], degree + 1))
    x[:, 0] = 1.0
    if degree:
        x[:, 1] = state
    for p in range(2, degree + 1):
        np.multiply(x[:, p - 1], state, out=x[:, p])
    return x


class SurfaceField:
    """Two-time kernel backed by a table of regression coefficients.

    ``state`` is (paths, nodes) and ``coeffs`` is (nodes, nodes, k); the
    cells outside the region hold zeros.  Cell (i, j) reads the table at
    its representative (r, c): its values are X_c coeffs[r, c], the
    matrix-vector product of the node-c design with them, so reads are
    bitwise reproducible and do not depend on the order in which cells
    are read.  They agree with the sweep's fitted values (a matrix-matrix
    product) only to rounding.  Here a cell is its own representative,
    so entry (i, j) is a polynomial in the driver state at node j,
    measurable with respect to the inner time by construction, in both
    halves of a ``full`` table.
    """

    def __init__(
        self, grid: TimeGrid, state: np.ndarray, coeffs: np.ndarray, region: Region
    ) -> None:
        if region not in _SURFACE_REGIONS:
            raise ValueError(f"surface region must be one of {_SURFACE_REGIONS}, got {region!r}")
        n = len(grid)
        if state.ndim != 2 or state.shape[1] != n:
            raise ValueError(f"state shape {state.shape} disagrees with a grid of {n} nodes: "
                             f"need (paths, {n})")
        if coeffs.ndim != 3 or coeffs.shape[:2] != (n, n):
            raise ValueError(f"coefficient table shape {coeffs.shape} disagrees with a grid "
                             f"of {n} nodes: need ({n}, {n}, k)")
        self.grid = grid
        self.state = state
        self.coeffs = coeffs
        self.region = region

    @property
    def n_paths(self) -> int:
        return self.state.shape[0]

    def representative(self, i: int, j: int) -> tuple[int, int]:
        """The cell whose coefficients and node state give the values of (i, j)."""
        return i, j

    def at(self, i: int, j: int) -> np.ndarray:
        """Kernel values Z[:, i, j] across paths; IndexError outside the region."""
        _check_region(self.region, i, j, self.grid.steps)
        r, c = self.representative(i, j)
        return design_matrix(self.state[:, c], self.coeffs.shape[2] - 1) @ self.coeffs[r, c]


class SymmetricSurface(SurfaceField):
    """Full-square view of an upper-triangle table, mirrored exactly.

    ``at(i, j)`` and ``at(j, i)`` both read the upper representative
    (min(i, j), max(i, j)), so the symmetry Z[p, i, j] = Z[p, j, i]
    holds bitwise rather than only up to rounding.  The view shares its
    ``base``'s state and coefficient table.
    """

    def __init__(self, base: SurfaceField) -> None:
        if base.region != "upper":
            raise ValueError("symmetric extension needs an upper-triangle kernel")
        super().__init__(base.grid, base.state, base.coeffs, "full")
        self.base = base

    def representative(self, i: int, j: int) -> tuple[int, int]:
        return min(i, j), max(i, j)
