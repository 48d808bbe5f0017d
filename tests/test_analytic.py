import math

import numpy as np
import pytest

from bsvie import (
    AdaptedField,
    BasisSpec,
    SolveReport,
    SurfaceField,
    SymmetricSurface,
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
    report, _ = residual(case.problem(grid), ref.y, ref.z_s, ens)
    assert report.aggregate < bound


def test_zero_reference_residual_vanishes():
    case = get_case("zero")
    grid = case.grid(16)
    ens = sample_ensemble(grid, 256, seed=9)
    ref = reference_fields(case, ens)
    report, _ = residual(case.problem(grid), ref.y, ref.z_s, ens)
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
    t, s = grid.nodes[:, None], grid.nodes[None, :]
    coeffs = np.zeros((len(grid), len(grid), 2))
    coeffs[:, :, 0] = np.where(t <= s, s**2, t * s)
    twin = SurfaceField(grid, ens.values, coeffs, region="full")
    problem = case.problem(grid)
    row, column = residual(problem, ref.y, twin, ens)
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


def _constant(grid, state, c, region="full"):
    """A kernel constant across paths: c in column 0 of a 2-column table."""
    coeffs = np.zeros((len(grid), len(grid), 2))
    coeffs[:, :, 0] = c
    return SurfaceField(grid, state, coeffs, region=region)


def _zero_reference(grid, state):
    return ReferenceFields(y=AdaptedField(grid, np.zeros((state.shape[0], len(grid)))),
                           z_s=SymmetricSurface(_constant(grid, state, 0.0, "upper")),
                           z_m=_constant(grid, state, 0.0))


def test_error_metrics_fall_back_to_absolute_scale():
    grid = build_grid(1.0, 4)
    state = sample_ensemble(grid, 16, seed=1).values
    numeric = SolveReport("m-solution", AdaptedField(grid, np.full((16, 5), 1e-3)),
                          _constant(grid, state, 2e-3), iterations=1, converged=True)
    report = error_metrics(numeric, _zero_reference(grid, state))
    assert report.y_error == pytest.approx(1e-3, rel=1e-9)
    # the absolute distance over n (n + 1) / 2 = 10 cells of area dt^2
    assert report.z_upper_error == pytest.approx(2e-3 * math.sqrt(10) / 4, rel=1e-9)
    assert report.z_diag_error == pytest.approx(2e-3 * 2 / 4, rel=1e-9)


def test_error_metrics_reject_shape_mismatch():
    grid = build_grid(1.0, 4)
    numeric = SolveReport("s-solution", AdaptedField(grid, np.zeros((8, 5))),
                          _constant(grid, np.zeros((8, 5)), 0.0), iterations=1, converged=True)
    with pytest.raises(ValueError, match="shapes disagree"):
        error_metrics(numeric, _zero_reference(grid, np.zeros((16, 5))))


def test_error_metrics_reject_tables_on_another_state():
    # a coefficient difference means something only on one state array:
    # a tilted driver's kernel is a polynomial in another state
    case = get_case("product-linear")
    grid = case.grid(4)
    ens = sample_ensemble(grid, 64, seed=1)
    report = solve_m(case.problem(grid), ens)
    reference = reference_fields(case, ens)
    assert error_metrics(report, reference).z_lower_error is not None
    moved = SolveReport(report.mode, report.y,
                        SurfaceField(grid, ens.values.copy(), report.z.coeffs, region="full"),
                        iterations=1, converged=True)
    with pytest.raises(ValueError, match="one state array"):
        error_metrics(moved, reference)


def test_reference_kernels_are_two_column_tables_on_the_paths():
    case = get_case("squared-driver")
    grid = case.grid(4)
    ens = sample_ensemble(grid, 64, seed=1)
    ref = reference_fields(case, ens)
    assert ref.z_s.coeffs.shape == ref.z_m.coeffs.shape == (5, 5, 2)
    assert ref.z_s.state is ref.z_m.state is ens.values
    # 2 t_i W(t_j) above the diagonal; the symmetric completion mirrors it
    w, nodes = ens.values, grid.nodes
    np.testing.assert_array_equal(ref.z_m.at(1, 3), 2.0 * nodes[1] * w[:, 3])
    np.testing.assert_array_equal(ref.z_m.at(3, 1), 2.0 * nodes[3] * w[:, 1])
    np.testing.assert_array_equal(ref.z_s.at(3, 1), 2.0 * nodes[1] * w[:, 3])


def test_degree_zero_solves_are_compared_against_padded_tables():
    # a one-column numeric table meets a two-column reference: the
    # difference pads the narrower table with zeros
    case = get_case("squared-driver")
    grid = case.grid(8)
    ens = sample_ensemble(grid, 512, seed=3)
    report = solve_s(case.problem(grid), ens, SolverConfig(basis=BasisSpec(degree=0)))
    errors = error_metrics(report, reference_fields(case, ens))
    assert errors.z_upper_error > 0.5  # a constant cannot fit 2 t W(s)
    z_ref = reference_fields(case, ens).z_s
    n, dt2 = grid.steps, grid.dt**2
    num = ref = 0.0
    for i in range(n):
        for j in range(i, n):
            num += float(np.mean((report.z.at(i, j) - z_ref.at(i, j)) ** 2)) * dt2
            ref += float(np.mean(z_ref.at(i, j) ** 2)) * dt2
    assert errors.z_upper_error == pytest.approx(math.sqrt(num / ref), rel=1e-13)


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
