"""Containers for solution fields on a grid.

An :class:`AdaptedField` stores one value per (path, node).  A
:class:`SurfaceField` represents a two-time kernel Z(t_i, t_j); concrete
backings differ (regression coefficient tables, closed-form callables,
and the mirrored view of an upper triangle) but each implements one read,
``column(j, rows)``, which reads several cells of one column together;
``at(i, j) -> (n_paths,)`` is a one-cell column on the base class.
Bulk readers are consumers (:class:`CellSum`) of :func:`surface_pass`,
the one pass over a kernel: it reads each representative cell once,
column by column, so that a coefficient-backed kernel builds each
node's design matrix once, and hands the values to every consumer that
needs the cell.  Several consumers share one pass; no more than one
column's design and the cells a consumer keeps are alive at a time.
Past the cell's matrix-vector product, the cost of a pass is its
consumers' terms: each sweep over a cell's paths and each path-length
temporary runs once per cell, 4,225 times at 64 steps.  The terms in
the package reduce a cell with one sum per figure and at most one
temporary each (a difference is squared in place), and hold nothing
past the cell, with the bits of the plain numpy expressions they
replace.

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
from typing import Any, Callable, Iterable, Iterator, Sequence

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


def read_order(
    z: SurfaceField, cells: Iterable[tuple[int, int]]
) -> list[tuple[int, list[int]]]:
    """Distinct cells to read for ``cells``, as (j, rows) column groups.

    Each cell is first mapped to its representative (the upper cell of a
    mirrored pair, for a symmetric kernel); columns come in ascending
    order and rows ascend within a column.
    """
    groups: dict[int, list[int]] = {}
    for i, j in sorted({z.representative(i, j) for i, j in cells}, key=lambda c: (c[1], c[0])):
        groups.setdefault(j, []).append(i)
    return list(groups.items())


@dataclass(frozen=True)
class CellSum:
    """One consumer of :func:`surface_pass`.

    ``term(cell, values)`` runs once for each distinct cell of ``cells``,
    with the values of the cell's representative; ``total`` then gets
    the terms as a dict keyed by cell and sums them in the order that
    its result fixes.  The values are shared by every consumer of the
    cell, so a term reads them and never writes into them; it works in
    temporaries of its own and keeps none of them past the cell.
    """

    cells: list[tuple[int, int]]
    term: Callable[[tuple[int, int], np.ndarray], Any]
    total: Callable[[dict], Any]


def surface_pass(z: SurfaceField, sums: Sequence[CellSum]) -> list:
    """Totals of ``sums``, from one read of each representative cell they need.

    Cells come in :func:`read_order`, one ``z.column`` call per column,
    and each cell's values are dropped once every consumer has its term.
    """
    needs: dict[tuple[int, int], list[tuple[int, tuple[int, int]]]] = {}
    for k, consumer in enumerate(sums):
        for cell in dict.fromkeys(consumer.cells):
            needs.setdefault(z.representative(*cell), []).append((k, cell))
    terms: list[dict] = [{} for _ in sums]
    for j, rows in read_order(z, needs):
        for i, values in zip(rows, z.column(j, rows)):
            for k, cell in needs[i, j]:
                terms[k][cell] = sums[k].term(cell, values)
    return [consumer.total(t) for consumer, t in zip(sums, terms)]


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
    the node-j state, so one design serves a whole column.
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


class FuncSurface(SurfaceField):
    """Kernel given in closed form as a callable (i, j) -> values.

    The callable returns a cell's per-path values, or one number for a
    cell that is constant across paths; ``column`` broadcasts the number
    and :meth:`value` hands it on as it is.
    """

    def __init__(
        self,
        grid: TimeGrid,
        n_paths: int,
        fn: Callable[[int, int], np.ndarray],
        region: Region = "full",
    ) -> None:
        super().__init__(grid, n_paths, region)
        self._fn = fn

    def value(self, i: int, j: int) -> np.ndarray:
        """The callable's result at (i, j): 0-d for a cell constant across paths."""
        _check_region(self.region, i, j, self.grid.steps)
        return np.asarray(self._fn(i, j), dtype=np.float64)

    def column(self, j: int, rows: Sequence[int]) -> Iterator[np.ndarray]:
        for i in rows:
            out = self.value(i, j)
            yield np.full(self.n_paths, float(out)) if out.ndim == 0 else out


class SymmetricSurface(SurfaceField):
    """Full-square view of an upper-triangle kernel, mirrored exactly.

    ``at(i, j)`` and ``at(j, i)`` both read the upper representative
    ``base.at(min(i, j), max(i, j))``, so the symmetry Z[p, i, j] =
    Z[p, j, i] holds bitwise rather than only up to rounding.
    """

    def __init__(self, base: SurfaceField) -> None:
        if base.region != "upper":
            raise ValueError("symmetric extension needs an upper-triangle kernel")
        super().__init__(base.grid, base.n_paths)
        self.base = base

    def representative(self, i: int, j: int) -> tuple[int, int]:
        return min(i, j), max(i, j)

    def column(self, j: int, rows: Sequence[int]) -> Iterator[np.ndarray]:
        if all(i <= j for i in rows):
            return self.base.column(j, rows)
        return (self.base.at(*self.representative(i, j)) for i in rows)

