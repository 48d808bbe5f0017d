"""Reference problems with closed-form solutions, and error metrics.

Each case packages a problem whose solution is known pathwise as an
explicit function of the driving path, which makes exact error
measurement possible at any grid resolution.  The kernels come in the
two completions the solver distinguishes: the symmetric one and the
martingale-representation one, which differ only below the diagonal.
A kernel that is constant across paths in every cell gives each cell
as one number (:meth:`~bsvie.fields.FuncSurface.value`), so the error
metrics subtract it as a scalar and sum its mean square once per
distinct number; a kernel that varies by path gives arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensemble import PathEnsemble, sample_ensemble
from .fields import AdaptedField, CellSum, FuncSurface, region_cells, surface_pass
from .grid import TimeGrid, build_grid
from .norms import mean_square, y_diff_l2, y_l2
from .solver import Generator, ProblemSpec, SolveReport, SolverConfig, Terminal, solve_m, solve_s


@dataclass(frozen=True)
class ReferenceFields:
    """Exact fields evaluated on one ensemble."""

    y: AdaptedField
    z_s: FuncSurface
    z_m: FuncSurface


@dataclass(frozen=True)
class ReferenceCase:
    """One solvable-in-closed-form problem on a fixed interval."""

    id: str
    start: float
    horizon: float
    generator_src: str
    terminal_src: str
    build_fields: Callable[[PathEnsemble], ReferenceFields]

    def grid(self, steps: int) -> TimeGrid:
        return build_grid(horizon=self.horizon, steps=steps, start=self.start)

    def problem(self, grid: TimeGrid) -> ProblemSpec:
        if grid.nodes[0] != self.start or grid.horizon != self.horizon:
            raise ValueError(
                f"case {self.id!r} lives on [{self.start}, {self.horizon}], "
                f"got [{grid.nodes[0]}, {grid.horizon}]"
            )
        return ProblemSpec(
            grid=grid,
            generator=Generator.from_expression(self.generator_src),
            terminal=Terminal.from_expression(self.terminal_src),
        )


def _const_surface(ens: PathEnsemble, fn: Callable[[float, float], float]) -> FuncSurface:
    """A kernel constant across paths in every cell: each cell reads as one number."""
    nodes = ens.grid.nodes
    return FuncSurface(ens.grid, ens.n_paths, lambda i, j: fn(nodes[i], nodes[j]), region="full")


def _product_fields(ens: PathEnsemble) -> ReferenceFields:
    nodes = ens.grid.nodes
    y = AdaptedField(grid=ens.grid, values=nodes[None, :] ** 2 * ens.values)
    z_s = _const_surface(ens, lambda t, s: t * s)
    z_m = _const_surface(ens, lambda t, s: t * s if t <= s else t * t)
    return ReferenceFields(y=y, z_s=z_s, z_m=z_m)


def _shifted_fields(ens: PathEnsemble) -> ReferenceFields:
    nodes = ens.grid.nodes
    y = AdaptedField(grid=ens.grid, values=(nodes[None, :] + 1.0) ** 2 * ens.values)
    z_s = _const_surface(ens, lambda t, s: (t + 1.0) * (s + 1.0))
    z_m = _const_surface(
        ens, lambda t, s: (t + 1.0) * (s + 1.0) if t <= s else (t + 1.0) ** 2
    )
    return ReferenceFields(y=y, z_s=z_s, z_m=z_m)


def _zero_fields(ens: PathEnsemble) -> ReferenceFields:
    y = AdaptedField(grid=ens.grid, values=np.zeros_like(ens.values))
    zero = _const_surface(ens, lambda t, s: 0.0)
    return ReferenceFields(y=y, z_s=zero, z_m=zero)


def _squared_driver_fields(ens: PathEnsemble) -> ReferenceFields:
    nodes = ens.grid.nodes
    w = ens.values
    y = AdaptedField(grid=ens.grid, values=nodes[None, :] * w**2)

    def z_s(i: int, j: int) -> np.ndarray:
        if i <= j:
            return 2.0 * nodes[i] * w[:, j]
        return 2.0 * nodes[j] * w[:, i]

    def z_m(i: int, j: int) -> np.ndarray:
        return 2.0 * nodes[i] * w[:, j]

    return ReferenceFields(
        y=y,
        z_s=FuncSurface(ens.grid, ens.n_paths, z_s, region="full"),
        z_m=FuncSurface(ens.grid, ens.n_paths, z_m, region="full"),
    )


CASES: dict[str, ReferenceCase] = {
    case.id: case
    for case in (
        # Y(t) = t^2 W(t); the generator divides by s, so the interval
        # needs a positive start point
        ReferenceCase(
            id="product-linear",
            start=0.5,
            horizon=1.0,
            generator_src="-t*y/s^2",
            terminal_src="t*T*wT",
            build_fields=_product_fields,
        ),
        ReferenceCase(
            id="shifted-product",
            start=0.0,
            horizon=1.0,
            generator_src="-(t+1)*y/(s+1)^2",
            terminal_src="wT*(T+1)*(t+1)",
            build_fields=_shifted_fields,
        ),
        ReferenceCase(
            id="zero",
            start=0.0,
            horizon=1.0,
            generator_src="0",
            terminal_src="0",
            build_fields=_zero_fields,
        ),
        # Y(t) = t W(t)^2; the drift -t is proportional to the outer time,
        # and a t-independent drift would not reproduce these fields exactly
        ReferenceCase(
            id="squared-driver",
            start=0.0,
            horizon=1.0,
            generator_src="-t",
            terminal_src="t*wT^2",
            build_fields=_squared_driver_fields,
        ),
    )
}


def get_case(case_id: str) -> ReferenceCase:
    try:
        return CASES[case_id]
    except KeyError:
        raise KeyError(
            f"unknown reference case {case_id!r}; available: {sorted(CASES)}"
        ) from None


def reference_fields(case: ReferenceCase | str, ensemble: PathEnsemble) -> ReferenceFields:
    """Exact (Y, Z_S, Z_M) fields of a case on the given ensemble."""
    if isinstance(case, str):
        case = get_case(case)
    grid = ensemble.grid
    if grid.nodes[0] != case.start or grid.horizon != case.horizon:
        raise ValueError(
            f"ensemble interval [{grid.nodes[0]}, {grid.horizon}] does not match "
            f"case {case.id!r} on [{case.start}, {case.horizon}]"
        )
    return case.build_fields(ensemble)


# ---------------------------------------------------------------------------
# error metrics


@dataclass(frozen=True)
class ErrorReport:
    """Region-wise relative L2 distances between two (Y, Z) pairs.

    Denominators are the reference norms; when a reference norm falls
    below 1e-12 the plain absolute distance is reported instead.
    ``z_lower_error`` is None when one of the kernels covers the upper
    triangle only.
    """

    y_error: float
    z_upper_error: float
    z_lower_error: float | None
    z_diag_error: float


def _relative(err_sq: float, ref_sq: float) -> float:
    err, ref = math.sqrt(err_sq), math.sqrt(ref_sq)
    return err / ref if ref > 1e-12 else err


def _region_error(terms: dict, cells: list[tuple[int, int]]) -> float:
    """Relative error over ``cells``, summed in the order given."""
    err_sq = ref_sq = 0.0
    for cell in cells:
        err_term, ref_term = terms[cell]
        err_sq += err_term
        ref_sq += ref_term
    return _relative(err_sq, ref_sq)


def error_sum(numeric: SolveReport, reference: ReferenceFields) -> CellSum:
    """:func:`error_metrics` as a consumer of a pass over ``numeric.z``.

    Each cell's term compares the numeric kernel's values with one read
    of the reference at that cell; the upper, diagonal and lower regions
    sum the shared terms in their own orders.  A reference cell given as
    one number is subtracted as a scalar, and its mean square, which
    depends on the number alone, is summed once per distinct number (in
    m-mode every lower cell of a row shares one).  Each term keeps the
    bits of ``np.mean((num - ref) ** 2)`` and ``np.mean(ref ** 2)`` over
    the cell's per-path reference.
    """
    z_num = numeric.z
    z_ref = reference.z_m if numeric.mode == "m-solution" else reference.z_s
    y_ref = reference.y
    if numeric.y.values.shape != y_ref.values.shape:
        raise ValueError("field shapes disagree")
    grid = y_ref.grid
    n = grid.steps
    dt2 = grid.dt**2
    n_paths = y_ref.n_paths
    y_err = _relative(y_diff_l2(numeric.y, y_ref), y_l2(y_ref))

    covers_lower = z_num.region == z_ref.region == "full"
    upper = region_cells("upper", n)
    diag = [(i, i) for i in range(n)]
    lower = region_cells("lower", n) if covers_lower else []

    const_terms: dict[float, float] = {}

    def ref_term(ref: np.ndarray) -> float:
        if ref.ndim:
            return mean_square(ref) * dt2
        c = float(ref)
        if c not in const_terms:
            full = np.full(n_paths, c)
            const_terms[c] = mean_square(full, out=full) * dt2
        return const_terms[c]

    def term(cell: tuple[int, int], num: np.ndarray) -> tuple[float, float]:
        ref = z_ref.value(*cell)
        ref_sq = ref_term(ref)
        diff = np.subtract(num, ref)
        return mean_square(diff, out=diff) * dt2, ref_sq

    def total(terms: dict) -> ErrorReport:
        return ErrorReport(
            y_error=y_err,
            z_upper_error=_region_error(terms, upper),
            z_lower_error=_region_error(terms, lower) if covers_lower else None,
            z_diag_error=_region_error(terms, diag),
        )

    return CellSum(upper + lower, term, total)


def error_metrics(numeric: SolveReport, reference: ReferenceFields) -> ErrorReport:
    """Errors of a solver report against the matching reference fields.

    The martingale completion is compared for an m-mode report, the
    symmetric one otherwise; an upper-triangle-only report is compared
    above the diagonal alone.
    """
    return surface_pass(numeric.z, [error_sum(numeric, reference)])[0]


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class ConvergenceTable:
    """Per-level errors plus observed orders between consecutive levels."""

    case: str
    levels: list[tuple[int, int]]
    reports: list[ErrorReport]
    y_orders: list[float]
    z_orders: list[float]


def convergence_study(
    case: ReferenceCase | str,
    levels: list[tuple[int, int]],
    config: SolverConfig | None = None,
    seed: int = 1,
    mode: str = "s",
) -> ConvergenceTable:
    """Solve one case across (steps, paths) levels and tabulate errors.

    At least two levels, sorted by step count; order estimates use the step
    ratio between consecutive levels and the Y-error (respectively the
    upper-triangle Z-error).
    """
    if isinstance(case, str):
        case = get_case(case)
    if len(levels) < 2:
        raise ValueError(f"a convergence study needs at least two levels, got {len(levels)}")
    if any(levels[k][0] >= levels[k + 1][0] for k in range(len(levels) - 1)):
        raise ValueError("levels must be sorted by increasing step count")
    if mode not in ("s", "m"):
        raise ValueError(f"unknown mode {mode!r}")
    solve = solve_s if mode == "s" else solve_m
    config = config or SolverConfig()
    reports = []
    for steps, n_paths in levels:
        grid = case.grid(steps)
        problem = case.problem(grid)
        ensemble = sample_ensemble(grid, n_paths=n_paths, seed=seed)
        report = solve(problem, ensemble, config)
        reports.append(error_metrics(report, reference_fields(case, ensemble)))

    def orders(errors: list[float]) -> list[float]:
        out = []
        for k in range(len(errors) - 1):
            a, b = errors[k], errors[k + 1]
            ratio = levels[k + 1][0] / levels[k][0]
            if a <= 0.0 or b <= 0.0:
                out.append(float("nan"))
            else:
                out.append(math.log(a / b) / math.log(ratio))
        return out

    return ConvergenceTable(
        case=case.id,
        levels=list(levels),
        reports=reports,
        y_orders=orders([r.y_error for r in reports]),
        z_orders=orders([r.z_upper_error for r in reports]),
    )
