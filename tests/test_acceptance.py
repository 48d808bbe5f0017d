"""Acceptance gate: one test per numbered criterion.

Heavy runs share module fixtures; each fixture returns plain scalars so
at most one large solve report is alive at a time.  Surfaces are read
column by column, so a coefficient-backed kernel builds each node's
design matrix once per comparison rather than once per cell.
"""

import gc
import time

import numpy as np
import pytest
from test_expr import GOLDEN_ERRORS, GOLDEN_VALUES

from bsvie import (
    AdaptedField,
    CoeffSurface,
    SymmetricSurface,
    build_grid,
    sample_ensemble,
)
from bsvie.analytic import error_metrics, get_case, reference_fields
from bsvie.expr import ExprError, eval_expr, parse
from bsvie.girsanov import DriftSpec, girsanov_selftest, tilt
from bsvie.norms import s2_norm
from bsvie.risk import (
    Aggregator,
    RiskSpec,
    check_axioms,
    rho,
    route_agreement,
)
from bsvie.solver import (
    ProblemSpec,
    SolverConfig,
    Terminal,
    residual,
    solve_adapted,
    solve_m,
    solve_s,
)

PINNED_PATHS = 65536
PINNED_STEPS = 64
SEED = 1
STEP_LEVELS = (16, 32, 64)
# errors may wobble by at most this factor between refinement levels
DECREASE_MARGIN = 1.10


def _upper_pairs(grid):
    n = len(grid)
    return [(i, j) for i in range(n) for j in range(i, n)]


def _by_column(pairs):
    columns = {}
    for i, j in sorted(pairs, key=lambda c: (c[1], c[0])):
        columns.setdefault(j, []).append(i)
    return columns.items()


def _surfaces_equal(a, b, pairs):
    return all(
        np.array_equal(va, vb)
        for j, rows in _by_column(pairs)
        for va, vb in zip(a.column(j, rows), b.column(j, rows))
    )


def _mirror_equal(z, pairs):
    """z(i, j) == z(j, i) bitwise; the (i, j) side is read column by column."""
    return all(
        np.array_equal(v, z.at(j, i))
        for j, rows in _by_column(pairs)
        for i, v in zip(rows, z.column(j, rows))
    )


def _diff_surface(a, b):
    """The kernel a - b of two symmetric solves on one state: the difference of their tables."""
    return SymmetricSurface(CoeffSurface(a.grid, a.state, a.coeffs - b.coeffs, region="upper"))


def _case_stats(case_id):
    """S- and M-runs of one closed-form case at the pinned settings."""
    case = get_case(case_id)
    cfg = SolverConfig()
    stats = {"y": {}, "z": {}}

    grid = case.grid(PINNED_STEPS)
    ensemble = sample_ensemble(grid, PINNED_PATHS, seed=SEED)
    reference = reference_fields(case, ensemble)
    started = time.perf_counter()
    s_report = solve_s(case.problem(grid), ensemble, cfg)
    stats["wall_seconds"] = time.perf_counter() - started
    errs = error_metrics(s_report, reference)
    stats["y"][PINNED_STEPS] = errs.y_error
    stats["z"][PINNED_STEPS] = errs.z_upper_error

    m_report = solve_m(case.problem(grid), ensemble, cfg)
    stats["z_lower"] = error_metrics(m_report, reference).z_lower_error
    pairs = _upper_pairs(grid)
    stats["s_equals_m"] = bool(
        np.array_equal(s_report.y.values, m_report.y.values)
        and _surfaces_equal(s_report.z, m_report.z, pairs)
    )
    del m_report
    gc.collect()

    stats["symmetric"] = _mirror_equal(s_report.z, pairs)
    del s_report, reference, ensemble
    gc.collect()

    for steps in STEP_LEVELS[:-1]:
        grid = case.grid(steps)
        ensemble = sample_ensemble(grid, PINNED_PATHS, seed=SEED)
        errs = error_metrics(
            solve_s(case.problem(grid), ensemble, cfg),
            reference_fields(case, ensemble),
        )
        stats["y"][steps] = errs.y_error
        stats["z"][steps] = errs.z_upper_error
        del ensemble
        gc.collect()
    return stats


@pytest.fixture(scope="module")
def product_linear():
    return _case_stats("product-linear")


@pytest.fixture(scope="module")
def shifted_product():
    return _case_stats("shifted-product")


def _check_reference_run(stats, label):
    y_errors = [stats["y"][n] for n in STEP_LEVELS]
    z_errors = [stats["z"][n] for n in STEP_LEVELS]
    print(
        f"{label}: y={y_errors[-1]:.2e} (<=0.05) z={z_errors[-1]:.2e} (<=0.10) "
        f"y-levels={y_errors} z-levels={z_errors} "
        f"wall={stats['wall_seconds']:.1f}s (<=300s)"
    )
    assert y_errors[-1] <= 0.05
    assert z_errors[-1] <= 0.10
    for series in (y_errors, z_errors):
        assert all(b < a * DECREASE_MARGIN for a, b in zip(series, series[1:]))
        assert series[-1] < series[0]
    assert stats["wall_seconds"] <= 300.0
    # regression guards at twice the first verified run's errors
    assert y_errors[-1] <= 2.7e-4
    assert z_errors[-1] <= 2.6e-2


def test_criterion_01_product_linear_s_accuracy(product_linear):
    _check_reference_run(product_linear, "criterion 1")


def test_criterion_02_shifted_product_s_accuracy(shifted_product):
    _check_reference_run(shifted_product, "criterion 2")


def test_criterion_03_martingale_mode_lower_triangle(product_linear, shifted_product):
    print(
        f"criterion 3: lower-triangle errors {product_linear['z_lower']:.2e} / "
        f"{shifted_product['z_lower']:.2e} (<=0.10)"
    )
    assert product_linear["z_lower"] <= 0.10
    assert shifted_product["z_lower"] <= 0.10


def test_criterion_04_s_and_m_agree_above_diagonal(product_linear, shifted_product):
    print("criterion 4: bitwise s/m agreement on both reference cases")
    assert product_linear["s_equals_m"]
    assert shifted_product["s_equals_m"]


def test_criterion_05_zero_case_is_exact():
    case = get_case("zero")
    grid = case.grid(32)
    ensemble = sample_ensemble(grid, 8192, seed=SEED)
    pairs = _upper_pairs(grid)
    full = [(i, j) for i in range(len(grid)) for j in range(len(grid))]
    for solve, cells in ((solve_s, full), (solve_m, full), (solve_adapted, pairs)):
        report = solve(case.problem(grid), ensemble, SolverConfig())
        assert np.all(report.y.values == 0.0)
        assert all(np.all(report.z.at(i, j) == 0.0) for i, j in cells)
    print("criterion 5: zero case exact in all three modes")


def test_criterion_06_symmetric_kernel(product_linear, shifted_product):
    print("criterion 6: kernel table symmetric, every index pair, bitwise")
    assert product_linear["symmetric"]
    assert shifted_product["symmetric"]


def test_criterion_07_fixed_point_iteration_matches_sweep():
    case = get_case("product-linear")
    grid = case.grid(32)
    ensemble = sample_ensemble(grid, 8192, seed=SEED)
    direct = solve_s(case.problem(grid), ensemble, SolverConfig())
    iterated = solve_s(
        case.problem(grid),
        ensemble,
        SolverConfig(picard=True, tol=1e-8, max_iter=50),
    )
    assert iterated.converged
    assert iterated.iterations <= 50
    gap = s2_norm(
        AdaptedField(grid, iterated.y.values - direct.y.values),
        _diff_surface(iterated.z, direct.z),
    )
    rel = gap / s2_norm(direct.y, direct.z)
    print(
        f"criterion 7: {iterated.iterations} iterations, relative gap {rel:.2e} "
        f"(<=1e-6), ratios {['%.3f' % r for r in iterated.contraction_ratios]}"
    )
    assert rel <= 1e-6
    assert iterated.contraction_ratios
    assert all(r < 1.0 for r in iterated.contraction_ratios)


def test_criterion_08_linear_risk_exactness():
    spec = RiskSpec(position="0.7*wT", aggregator=Aggregator.linear("0.1"))
    ensemble = sample_ensemble(build_grid(1.0, 32), 8192, seed=SEED)
    report = check_axioms(spec, ensemble, shift=1.0, scale=2.0)
    by_axiom = {c.axiom: c for c in report.checks}
    translation = by_axiom["translation"].max_violation
    homogeneity = by_axiom["homogeneity"].max_violation
    print(
        f"criterion 8: translation defect {translation:.2e}, "
        f"homogeneity defect {homogeneity:.2e} (<=1e-10)"
    )
    assert translation <= 1e-10
    assert homogeneity <= 1e-10


@pytest.fixture(scope="module")
def absolute_axiom_ladder():
    """Monotonicity and sub-additivity stats at the pinned step count
    over a growing path budget."""
    spec = RiskSpec(position="0.7*wT", aggregator=Aggregator.absolute("0.1"))
    rows = []
    for paths in (8192, 16384, PINNED_PATHS):
        ensemble = sample_ensemble(build_grid(1.0, PINNED_STEPS), paths, seed=SEED)
        report = check_axioms(spec, ensemble, shift=0.5)
        by_axiom = {c.axiom: c for c in report.checks}
        rows.append({
            "paths": paths,
            "monotonicity": by_axiom["monotonicity"].max_violation,
            "subadditivity": by_axiom["sub-additivity"].max_violation,
            "subadditivity_q99": by_axiom["sub-additivity"].quantiles["q99"],
        })
        del ensemble, report
        gc.collect()
    return rows


def test_criterion_09_nonlinear_risk_violations(absolute_axiom_ladder):
    pinned = absolute_axiom_ladder[-1]
    mono = [row["monotonicity"] for row in absolute_axiom_ladder]
    sub = [row["subadditivity"] for row in absolute_axiom_ladder]
    q99 = [row["subadditivity_q99"] for row in absolute_axiom_ladder]
    print(
        f"criterion 9: monotonicity {pinned['monotonicity']:.2e}, "
        f"sub-additivity {pinned['subadditivity']:.2e} (<=0.02); "
        f"max over paths {sub}, q99 {q99}"
    )
    assert pinned["monotonicity"] <= 0.02
    assert pinned["subadditivity"] <= 0.02
    # refinement here grows the sample at the pinned step count: the
    # estimation part of the order violations must shrink toward the
    # basis-bias floor, monotonicity staying at zero throughout
    assert all(v == 0.0 for v in mono)
    assert all(b < a for a, b in zip(sub, sub[1:]))
    assert all(b < a for a, b in zip(q99, q99[1:]))


def test_criterion_10_measure_change_route_agreement():
    spec = RiskSpec(
        position="0.7*wT",
        aggregator=Aggregator.linear("0.1"),
        drift=DriftSpec(r1="0.3"),
    )
    ensemble = sample_ensemble(build_grid(1.0, PINNED_STEPS), PINNED_PATHS, seed=SEED)
    agreement = route_agreement(spec, ensemble)
    del ensemble
    gc.collect()
    wide = sample_ensemble(build_grid(1.0, PINNED_STEPS), 100000, seed=SEED)
    selftest = girsanov_selftest(tilt(wide, spec.drift.negated()))
    print(
        f"criterion 10: route gap {agreement.relative_gap:.2e} (<=0.02), "
        f"selftest max score {selftest.max_score:.2f} (<4 at 1e5 paths)"
    )
    assert agreement.relative_gap <= 0.02
    assert agreement.selftest.passed
    assert selftest.passed


def test_criterion_11_deterministic_position_oracle():
    eta, c = 0.1, 1.0
    grid = build_grid(1.0, PINNED_STEPS)
    ensemble = sample_ensemble(grid, 8192, seed=SEED)
    field = rho(
        RiskSpec(position=str(c), aggregator=Aggregator.linear(str(eta))), ensemble
    )
    oracle = -c * np.exp(eta * (grid.horizon - grid.nodes))
    rel = np.abs(field.values.mean(axis=0) - oracle) / np.abs(oracle)
    print(f"criterion 11: max relative gap to the exponential {rel.max():.2e} (<=0.005)")
    assert rel.max() <= 0.005


def test_criterion_12_residual_forms_and_refinement():
    case = get_case("product-linear")
    aggregates = []
    for steps in (8, 16, 32):
        grid = case.grid(steps)
        ensemble = sample_ensemble(grid, 16384, seed=SEED)
        reference = reference_fields(case, ensemble)
        problem = case.problem(grid)
        row = residual(problem, reference.y, reference.z_s, ensemble, form="row")
        col = residual(problem, reference.y, reference.z_s, ensemble, form="column")
        assert np.array_equal(row.per_node, col.per_node)
        assert row.aggregate == col.aggregate
        aggregates.append(row.aggregate)
        del ensemble, reference
        gc.collect()
    print(f"criterion 12: bitwise equal forms, aggregates {aggregates}")
    assert all(b < a for a, b in zip(aggregates, aggregates[1:]))


def test_criterion_13_terminal_perturbation_scaling():
    case = get_case("product-linear")
    grid = case.grid(32)
    ensemble = sample_ensemble(grid, 8192, seed=SEED)
    problem = case.problem(grid)
    base = solve_s(problem, ensemble, SolverConfig())

    def scaled_response(eps):
        bumped = ProblemSpec(
            grid=problem.grid,
            generator=problem.generator,
            terminal=Terminal(
                lambda g, w: problem.terminal.eval_all(g, w) + eps,
                source=f"{problem.terminal.source} + {eps}",
            ),
        )
        report = solve_s(bumped, ensemble, SolverConfig())
        gap = s2_norm(
            AdaptedField(grid, report.y.values - base.y.values),
            _diff_surface(report.z, base.z),
        )
        return gap / eps

    responses = [scaled_response(eps) for eps in (1e-2, 1e-3)]
    factor = responses[0] / responses[1]
    print(f"criterion 13: per-epsilon responses {responses}, factor {factor:.3f}")
    assert 0.5 <= factor <= 2.0


def test_criterion_14_expression_golden_suite():
    passed = 0
    for src, env, expected in GOLDEN_VALUES:
        assert eval_expr(parse(src), env) == pytest.approx(expected, rel=1e-12)
        passed += 1
    for src, fragment, offset in GOLDEN_ERRORS:
        with pytest.raises(ExprError) as info:
            parse(src)
        assert fragment in info.value.message
        assert info.value.offset == offset
        passed += 1
    print(f"criterion 14: golden suite {passed}/20")
    assert passed == 20
