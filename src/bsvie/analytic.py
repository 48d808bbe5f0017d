"""Reference problems with closed-form solutions, and error metrics.

Each case packages a problem whose solution is known pathwise as an
explicit function of the driving path, which makes exact error
measurement possible at any grid resolution.  The kernels come in the
two completions the solver distinguishes: the symmetric one and the
martingale-representation one, which differ only below the diagonal.
Every reference kernel has degree at most 1 in the state at its
column node, so each is a 2-column coefficient table on the ensemble's
paths, like the solver's own: a constant in column 0, a multiple of
W(t_j) in column 1.  A kernel error is then the quadratic form
d^T G_j d of the coefficient difference d with the column Gram, and no
path value of either kernel is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensemble import PathEnsemble, sample_ensemble
from .fields import AdaptedField, SurfaceField, SymmetricSurface, region_cells
from .grid import TimeGrid, build_grid
from .norms import cell_forms, column_moments, y_diff_l2, y_l2
from .solver import Generator, ProblemSpec, SolveReport, SolverConfig, Terminal, solve_m, solve_s


@dataclass(frozen=True)
class ReferenceFields:
    """Exact fields evaluated on one ensemble."""

    y: AdaptedField
    z_s: SymmetricSurface
    z_m: SurfaceField


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


_Coefficient = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _fields(ens: PathEnsemble, y: np.ndarray, column: int, upper: _Coefficient,
            lower: _Coefficient) -> ReferenceFields:
    """Fields whose kernels put coefficient ``upper(t_i, t_j)`` (i <= j) and,
    below the diagonal of the martingale completion, ``lower(t_i, t_j)``
    in ``column`` of a 2-column table on the ensemble's paths."""
    grid = ens.grid
    n = len(grid)
    t, s = grid.nodes[:, None], grid.nodes[None, :]
    above = np.arange(n)[:, None] <= np.arange(n)[None, :]
    z_s, z_m = np.zeros((n, n, 2)), np.zeros((n, n, 2))
    z_s[:, :, column] = np.where(above, upper(t, s), 0.0)
    z_m[:, :, column] = np.where(above, upper(t, s), lower(t, s))
    return ReferenceFields(
        y=AdaptedField(grid=grid, values=y),
        z_s=SymmetricSurface(SurfaceField(grid, ens.values, z_s, region="upper")),
        z_m=SurfaceField(grid, ens.values, z_m, region="full"),
    )


def _product_fields(ens: PathEnsemble) -> ReferenceFields:
    return _fields(ens, ens.grid.nodes[None, :] ** 2 * ens.values, 0,
                   lambda t, s: t * s, lambda t, s: t * t)


def _shifted_fields(ens: PathEnsemble) -> ReferenceFields:
    return _fields(ens, (ens.grid.nodes[None, :] + 1.0) ** 2 * ens.values, 0,
                   lambda t, s: (t + 1.0) * (s + 1.0), lambda t, s: (t + 1.0) ** 2)


def _zero_fields(ens: PathEnsemble) -> ReferenceFields:
    return _fields(ens, np.zeros_like(ens.values), 0, lambda t, s: 0.0, lambda t, s: 0.0)


def _squared_driver_fields(ens: PathEnsemble) -> ReferenceFields:
    # Z(t_i, t_j) = 2 t_i W(t_j) in both completions above the diagonal and
    # in the martingale one below it
    return _fields(ens, ens.grid.nodes[None, :] * ens.values**2, 1,
                   lambda t, s: 2.0 * t, lambda t, s: 2.0 * t)


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


def _padded(coeffs: np.ndarray, k: int) -> np.ndarray:
    """A coefficient table widened to k columns by zeros."""
    if coeffs.shape[2] == k:
        return coeffs
    out = np.zeros((*coeffs.shape[:2], k))
    out[:, :, : coeffs.shape[2]] = coeffs
    return out


def _region_error(err: np.ndarray, ref: np.ndarray, cells: list, dt2: float) -> float:
    """Relative error over ``cells``, from per-cell mean squares summed in the order given."""
    err_sq = ref_sq = 0.0
    for cell in cells:
        err_sq += float(err[cell]) * dt2
        ref_sq += float(ref[cell]) * dt2
    return _relative(err_sq, ref_sq)


def kernel_errors(numeric: SolveReport, reference: ReferenceFields,
                  grams: np.ndarray) -> ErrorReport:
    """:func:`error_metrics` from the column Grams ``grams`` of the numeric kernel's state.

    The two kernels must be tables on one state array.  Each cell's
    error term is d^T G_j d, with d the difference of the tables at the
    numeric kernel's representative cell, which the matching completion
    shares; the reference term is c_ref^T G_j c_ref.  The table with
    fewer columns is padded by zeros to the other's width, which
    ``grams`` must reach.  The upper, diagonal and lower regions sum the
    terms of their cells in their own orders.
    """
    z_num = numeric.z
    z_ref = reference.z_m if numeric.mode == "m-solution" else reference.z_s
    y_ref = reference.y
    if numeric.y.values.shape != y_ref.values.shape:
        raise ValueError("field shapes disagree")
    if z_num.state is not z_ref.state:
        raise ValueError("the numeric and reference kernels are not tables on one state array")
    grid = y_ref.grid
    n = grid.steps
    dt2 = grid.dt**2
    k = max(z_num.coeffs.shape[2], z_ref.coeffs.shape[2])
    c_ref = _padded(z_ref.coeffs, k)
    err = cell_forms(_padded(z_num.coeffs, k) - c_ref, grams)
    ref = cell_forms(c_ref, grams)

    def region(cells: list) -> float:
        return _region_error(err, ref, [z_num.representative(i, j) for i, j in cells], dt2)

    covers_lower = z_num.region == z_ref.region == "full"
    return ErrorReport(
        y_error=_relative(y_diff_l2(numeric.y, y_ref), y_l2(y_ref)),
        z_upper_error=region(region_cells("upper", n)),
        z_lower_error=region(region_cells("lower", n)) if covers_lower else None,
        z_diag_error=region([(i, i) for i in range(n)]),
    )


def error_metrics(numeric: SolveReport, reference: ReferenceFields) -> ErrorReport:
    """Errors of a solver report against the matching reference fields.

    The martingale completion is compared for an m-mode report, the
    symmetric one otherwise; an upper-triangle-only report is compared
    above the diagonal alone.  ValueError when the kernels are not
    tables on one state array.
    """
    k = max(numeric.z.coeffs.shape[2], reference.z_s.coeffs.shape[2])
    return kernel_errors(numeric, reference, column_moments(numeric.z.state, k)[0])


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
