"""Containers for solution fields on a grid.

An :class:`AdaptedField` stores one value per (path, node).  A
:class:`SurfaceField` represents a two-time kernel Z(t_i, t_j); it has
two backings, a regression coefficient table (:class:`CoeffSurface`)
and the mirrored view of an upper table (:class:`SymmetricSurface`),
and each implements one read, ``column(j, rows)``, which reads several
cells of one column together; ``at(i, j) -> (n_paths,)`` is a one-cell
column on the base class.  A kernel's statistics read no path values:
a cell's values are X_j c, with X_j the design at node j, so every path
moment of a cell is a form in its coefficients c (see
:mod:`bsvie.norms`).  The path values are read only where they are the
output: the residual's stochastic sums and the per-path export.

Regions: ``upper`` covers the closed triangle t_i <= t_j, ``lower`` the
strict triangle t_i > t_j, ``full`` the whole square;
:func:`region_cells` lists a region's cells.  A surface covers ``upper``
or ``full``; ``lower`` only names the cells the error metrics sum.  A
full surface is completed from its upper part in one of two ways: a
:class:`SymmetricSurface` mirrors it across the diagonal, and a full
:class:`CoeffSurface` holds one coefficient table whose lower triangle
comes from the stochastic-integral representation of Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

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


class SurfaceField:
    """Base two-time kernel; subclasses supply ``column``."""

    def __init__(self, grid: TimeGrid, n_paths: int, region: Region = "full") -> None:
        if region not in _SURFACE_REGIONS:
            raise ValueError(f"surface region must be one of {_SURFACE_REGIONS}, got {region!r}")
        self.grid = grid
        self.n_paths = n_paths
        self.region = region

    def at(self, i: int, j: int) -> np.ndarray:
        """Kernel values Z[:, i, j] across paths: a column of one cell."""
        return next(self.column(j, (i,)))

    def column(self, j: int, rows: Sequence[int]) -> Iterator[np.ndarray]:
        """Values of the cells (i, j), i in ``rows``, in order; IndexError outside the region."""
        raise NotImplementedError

    def representative(self, i: int, j: int) -> tuple[int, int]:
        """The cell whose read yields the values of (i, j)."""
        return i, j


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


class CoeffSurface(SurfaceField):
    """Kernel backed by per-(i, j) regression coefficients.

    Entry (i, j) is a polynomial in the driver state at node j, so the
    stored surface is measurable with respect to the inner time by
    construction.  A cell's values are the matrix-vector product of the
    node-j design with its coefficients, so reads are bitwise
    reproducible and do not depend on the order in which cells are read,
    or on whether they are read one at a time or a column at a time.
    They agree with the sweep's fitted values (a matrix-matrix product)
    only to rounding.  Both halves of a ``full`` table are polynomials in
    the node-j state, so one design serves a whole column.  ``coeffs``
    is (nodes, nodes, k); the cells outside the region hold zeros.
    """

    def __init__(
        self,
        grid: TimeGrid,
        state: np.ndarray,
        coeffs: np.ndarray,
        region: Region,
    ) -> None:
        super().__init__(grid, state.shape[0], region)
        if coeffs.shape[:2] != (len(grid), len(grid)):
            raise ValueError("coefficient table shape disagrees with grid")
        self.state = state
        self.coeffs = coeffs

    def column(self, j: int, rows: Sequence[int]) -> Iterator[np.ndarray]:
        for i in rows:
            _check_region(self.region, i, j, self.grid.steps)
        x = design_matrix(self.state[:, j], self.coeffs.shape[2] - 1)
        for i in rows:
            yield x @ self.coeffs[i, j]


class SymmetricSurface(SurfaceField):
    """Full-square view of an upper-triangle table, mirrored exactly.

    ``at(i, j)`` and ``at(j, i)`` both read the upper representative
    ``base.at(min(i, j), max(i, j))``, so the symmetry Z[p, i, j] =
    Z[p, j, i] holds bitwise rather than only up to rounding.  The view
    shares the base's ``state`` and ``coeffs``, so, as for any backing,
    cell (i, j) has the coefficients ``coeffs[representative(i, j)]``.
    """

    def __init__(self, base: CoeffSurface) -> None:
        if base.region != "upper":
            raise ValueError("symmetric extension needs an upper-triangle kernel")
        super().__init__(base.grid, base.n_paths)
        self.base = base
        self.state = base.state
        self.coeffs = base.coeffs

    def representative(self, i: int, j: int) -> tuple[int, int]:
        return min(i, j), max(i, j)

    def column(self, j: int, rows: Sequence[int]) -> Iterator[np.ndarray]:
        if all(i <= j for i in rows):
            return self.base.column(j, rows)
        return (self.base.at(*self.representative(i, j)) for i in rows)

