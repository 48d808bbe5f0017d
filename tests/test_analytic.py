import math

import numpy as np
import pytest

from bsvie import (
    AdaptedField,
    FuncSurface,
    SolveReport,
    SolverConfig,
    build_grid,
    residual,
    sample_ensemble,
    solve_m,
    solve_s,
)
from bsvie.analytic import (
    CASES,
    ConvergenceTable,
    ReferenceFields,
    convergence_study,
    error_metrics,
    get_case,
    reference_fields,
)


def test_case_table_complete():
    assert sorted(CASES) == [
        "product-linear",
        "shifted-product",
        "squared-driver",
        "zero",
    ]


def test_get_case_unknown_lists_available():
    with pytest.raises(KeyError, match="available"):
        get_case("cubic")


def test_case_problem_rejects_foreign_interval():
    case = get_case("product-linear")
    with pytest.raises(ValueError):
        case.problem(build_grid(1.0, 8))


def test_reference_fields_reject_foreign_ensemble():
    ens = sample_ensemble(build_grid(1.0, 8), 64, seed=1)
    with pytest.raises(ValueError):
        reference_fields("product-linear", ens)


@pytest.mark.parametrize(
    "case_id,bound",
    [
        ("product-linear", 0.02),
        ("shifted-product", 0.10),
        ("squared-driver", 0.15),
    ],
)
def test_reference_fields_nearly_solve_their_equation(case_id, bound):
    # the exact fields plugged back in leave only the discretization
    # defect, small at this resolution
    case = get_case(case_id)
    grid = case.grid(16)
    ens = sample_ensemble(grid, 2048, seed=9)
    ref = reference_fields(case, ens)
    report = residual(case.problem(grid), ref.y, ref.z_s, ens, form="row")
    assert report.aggregate < bound


def test_zero_reference_residual_vanishes():
    case = get_case("zero")
    grid = case.grid(16)
    ens = sample_ensemble(grid, 256, seed=9)
    ref = reference_fields(case, ens)
    report = residual(case.problem(grid), ref.y, ref.z_s, ens, form="row")
    assert report.aggregate == 0.0
    assert np.all(report.per_node == 0.0)


def test_mirror_twin_solves_the_column_form_only():
    case = get_case("product-linear")
    grid = case.grid(16)
    ens = sample_ensemble(grid, 2048, seed=9)
    ref = reference_fields(case, ens)
    # the mirror twin of product-linear's kernel: the two completions swap
    # above the diagonal, s^2 there and t*s below, which solves the
    # equation whose stochastic sum reads the column
    nodes = grid.nodes
    twin = FuncSurface(
        grid, ens.n_paths,
        lambda i, j: np.full(ens.n_paths, nodes[j] ** 2 if i <= j else nodes[i] * nodes[j]),
    )
    problem = case.problem(grid)
    column = residual(problem, ref.y, twin, ens, form="column")
    row = residual(problem, ref.y, twin, ens, form="row")
    assert column.aggregate < 0.02
    assert row.aggregate > 3.0 * column.aggregate


def test_error_metrics_compare_matching_completion():
    case = get_case("product-linear")
    grid = case.grid(8)
    ens = sample_ensemble(grid, 4096, seed=2)
    problem = case.problem(grid)
    ref = reference_fields(case, ens)
    s_err = error_metrics(solve_s(problem, ens), ref)
    m_err = error_metrics(solve_m(problem, ens), ref)
    assert s_err.y_error == m_err.y_error
    assert s_err.z_upper_error < 0.5
    assert m_err.z_lower_error is not None
    assert m_err.z_lower_error < 0.5


def _zero_reference(grid, n_paths):
    zero = FuncSurface(grid, n_paths, lambda i, j: 0.0)
    return ReferenceFields(y=AdaptedField(grid, np.zeros((n_paths, len(grid)))),
                           z_s=zero, z_m=zero)


def test_error_metrics_fall_back_to_absolute_scale():
    grid = build_grid(1.0, 4)
    z = FuncSurface(grid, 16, lambda i, j: 2e-3)
    numeric = SolveReport("m-solution", AdaptedField(grid, np.full((16, 5), 1e-3)), z,
                          iterations=1, converged=True)
    report = error_metrics(numeric, _zero_reference(grid, 16))
    assert report.y_error == pytest.approx(1e-3, rel=1e-9)
    # the absolute distance over n (n + 1) / 2 = 10 cells of area dt^2
    assert report.z_upper_error == pytest.approx(2e-3 * math.sqrt(10) / 4, rel=1e-9)
    assert report.z_diag_error == pytest.approx(2e-3 * 2 / 4, rel=1e-9)


def test_error_metrics_reject_shape_mismatch():
    grid = build_grid(1.0, 4)
    z = FuncSurface(grid, 8, lambda i, j: 0.0)
    numeric = SolveReport("s-solution", AdaptedField(grid, np.zeros((8, 5))), z,
                          iterations=1, converged=True)
    with pytest.raises(ValueError, match="shapes disagree"):
        error_metrics(numeric, _zero_reference(grid, 16))


def test_convergence_study_tabulates_levels():
    table = convergence_study(
        "product-linear", [(8, 2048), (16, 2048)], SolverConfig(), seed=2
    )
    assert isinstance(table, ConvergenceTable)
    assert table.case == "product-linear"
    assert table.levels == [(8, 2048), (16, 2048)]
    assert len(table.reports) == 2
    assert all(r.y_error < 0.5 for r in table.reports)
    assert len(table.y_orders) == 1
    assert len(table.z_orders) == 1


def test_convergence_study_zero_case_reports_exact_zeros():
    table = convergence_study("zero", [(4, 128), (8, 128)], seed=1)
    assert all(r.y_error == 0.0 for r in table.reports)
    assert all(math.isnan(o) for o in table.y_orders)


def test_convergence_study_validates_inputs():
    with pytest.raises(ValueError):
        convergence_study("zero", [(8, 64), (8, 64)])
    with pytest.raises(ValueError):
        convergence_study("zero", [(16, 64), (8, 64)])
    with pytest.raises(ValueError):
        convergence_study("zero", [(4, 64), (8, 64)], mode="adapted")
    # one level gives no order and no trend to check
    for levels in ([], [(8, 64)]):
        with pytest.raises(ValueError, match="two levels"):
            convergence_study("zero", levels)
