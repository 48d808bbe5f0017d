import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bsvie import (
    Aggregator,
    DriftSpec,
    RiskSetupError,
    RiskSpec,
    SolverConfig,
    Terminal,
    build_grid,
    check_axioms,
    discount_factor,
    girsanov_selftest,
    position_terminal,
    rho,
    route_agreement,
    sample_ensemble,
    solve_s,
    tilt,
)
from bsvie import Generator, NodeDesign, ProblemSpec, risk, solver
from bsvie.expr import Bin, Num, Var
from bsvie.risk import ROUTES

N, M = 32, 16384


@pytest.fixture(scope="module")
def grid():
    return build_grid(1.0, N)


@pytest.fixture(scope="module")
def ensemble(grid):
    return sample_ensemble(grid, M, seed=11)


def test_aggregator_kinds():
    assert Aggregator.zero().is_linear
    assert Aggregator.linear(0.1).is_linear
    assert Aggregator.absolute(0.1).is_homogeneous
    assert not Aggregator.absolute(0.1).is_linear
    assert not Aggregator.expression("y^2").is_homogeneous


def test_aggregator_rejects_stray_variables(ensemble):
    with pytest.raises(RiskSetupError):
        Aggregator.expression("y + z")
    with pytest.raises(RiskSetupError):
        rho(RiskSpec(position=1.0, aggregator=Aggregator.linear("w")), ensemble)


def test_aggregator_describe_zero_and_expression():
    assert Aggregator.zero().describe() == "0"
    # the expression kind describes itself by its canonical source
    assert Aggregator.expression("0.1 * y ^ 2 - t").describe() == "0.1*y^2-t"


@pytest.mark.parametrize("route", ["direct", "girsanov"])
def test_expression_aggregator_is_bitwise_its_preset(route):
    grid = build_grid(1.0, 16)
    ensemble = sample_ensemble(grid, 2048, seed=5)
    for src, preset in (("0.1*y", Aggregator.linear("0.1")),
                        ("0.1*abs(y)", Aggregator.absolute("0.1"))):
        spec = RiskSpec(position="0.7*wT", aggregator=preset, drift=DriftSpec(r1=0.3),
                        route=route)
        expected = rho(spec, ensemble).values
        got = rho(replace(spec, aggregator=Aggregator.expression(src)), ensemble).values
        np.testing.assert_array_equal(got, expected)


def test_position_terminal_accepts_three_forms(grid, ensemble):
    w = ensemble.values
    from_float = position_terminal(2.0).eval_all(grid, w)
    np.testing.assert_array_equal(from_float, 2.0)
    from_str = position_terminal("0.5*wT").eval_all(grid, w)
    np.testing.assert_allclose(
        from_str,
        np.broadcast_to(0.5 * ensemble.values[:, -1], from_str.shape),
        rtol=1e-14,
    )
    base = Terminal.constant(7.0)
    assert position_terminal(base) is base


def test_risk_at_the_horizon_is_the_negated_position(ensemble):
    values = rho(RiskSpec(position="0.5*wT"), ensemble).values
    np.testing.assert_array_equal(values[:, -1], -0.5 * ensemble.values[:, -1])


def test_invalid_route_rejected():
    with pytest.raises(RiskSetupError):
        RiskSpec(position=1.0, route="antithetic")
    with pytest.raises(RiskSetupError):
        replace(RiskSpec(position=1.0), route="antithetic")


def test_linear_kernel_closed_form_both_routes(grid, ensemble):
    # psi = c W(T) with constant kernel rate r and no aggregator has
    # rho(t) = -c W(t) - c r (T - t)
    c, r = 0.8, 0.3
    spec = RiskSpec(position=f"{c}*wT", drift=DriftSpec(r1=r))
    exact = -c * ensemble.values - c * r * (grid.horizon - grid.nodes)
    scale = float(np.sqrt(np.mean(exact**2, axis=0)).max())
    for route in ("direct", "girsanov"):
        field = rho(replace(spec, route=route), ensemble)
        err = float(np.sqrt(np.mean((field.values - exact) ** 2, axis=0)).max())
        assert err / scale < 0.02, route


def test_route_agreement_report(grid, ensemble):
    spec = RiskSpec(
        position="0.7*wT", aggregator=Aggregator.linear(0.1), drift=DriftSpec(r1=0.3)
    )
    report = route_agreement(spec, ensemble)
    assert report.relative_gap < 0.02
    assert report.selftest.passed
    assert report.max_gap >= 0.0


def test_constant_position_matches_ode_oracle(grid, ensemble):
    eta, c = 0.1, 1.0
    spec = RiskSpec(position=c, aggregator=Aggregator.linear(eta))
    field = rho(spec, ensemble)
    exact = -c * discount_factor(eta, grid)
    err = np.abs(np.mean(field.values, axis=0) - exact)
    assert float(err.max()) < 5e-3 * abs(c)
    # a deterministic position keeps every path on the same value
    assert float(np.ptp(field.values, axis=0).max()) < 1e-10


def test_discount_factor_values(grid):
    factor = discount_factor(0.1, grid)
    np.testing.assert_allclose(
        factor, np.exp(0.1 * (grid.horizon - grid.nodes)), rtol=1e-12
    )
    assert -2.0 * discount_factor(0.1, grid)[0] == pytest.approx(
        -2.0 * np.exp(0.1), rel=1e-12
    )


def test_linear_axioms_exact(grid, ensemble):
    spec = RiskSpec(position="0.7*wT", aggregator=Aggregator.linear(0.1))
    report = check_axioms(spec, ensemble, shift=1.0, scale=2.0)
    assert report.passed
    assert report.check("past-independence").max_violation == 0.0
    assert report.check("monotonicity").max_violation == 0.0
    assert report.check("translation").max_violation <= 1e-10
    assert report.check("translation-factor").max_violation <= 1e-3
    assert report.check("homogeneity").max_violation <= 1e-10
    assert report.check("sub-additivity").max_violation <= 1e-10
    assert report.route == "direct"
    assert report.steps == N


def test_absolute_aggregator_axioms(grid, ensemble):
    spec = RiskSpec(position="0.7*wT", aggregator=Aggregator.absolute(0.1))
    report = check_axioms(spec, ensemble, companion=0.5)
    names = [c.axiom for c in report.checks]
    assert "translation" not in names  # linear-only check
    assert report.check("homogeneity").max_violation <= 1e-10
    mono = report.check("monotonicity")
    sub = report.check("sub-additivity")
    assert mono.passed and mono.max_violation <= 0.02
    assert sub.passed and sub.max_violation <= 0.02
    assert sub.quantiles is not None and "q90" in sub.quantiles


def test_girsanov_route_axioms(grid, ensemble):
    spec = RiskSpec(
        position="0.7*wT",
        aggregator=Aggregator.linear(0.1),
        drift=DriftSpec(r1=0.2),
        route="girsanov",
    )
    report = check_axioms(spec, ensemble)
    assert report.route == "girsanov"
    assert report.check("translation").max_violation <= 1e-10
    assert report.check("homogeneity").max_violation <= 1e-10
    assert report.check("past-independence").max_violation == 0.0


def test_axiom_report_accessors(grid, ensemble):
    spec = RiskSpec(position="0.7*wT")
    report = check_axioms(spec, ensemble, config=SolverConfig())
    with pytest.raises(KeyError):
        report.check("convexity")
    assert report.rho.values.shape == (M, N + 1)
    assert report.n_paths == M


def test_edit_node_validation(grid, ensemble):
    spec = RiskSpec(position="0.7*wT")
    with pytest.raises(RiskSetupError):
        check_axioms(spec, ensemble, node=0)


@pytest.mark.parametrize("bad, error", [
    ({"node": 0}, RiskSetupError),
    ({"scale": 0.0}, RiskSetupError),
    ({"companion": "0.5*"}, ValueError),  # does not parse
    ({"scale": float("inf")}, RiskSetupError),
    ({"shift": 0.0}, RiskSetupError),  # would compare the base risk with itself
    ({"companion": float("inf")}, RiskSetupError),
    ({"companion": "1e308*wT*wT"}, RiskSetupError),  # overflows on the ensemble
])
def test_check_axioms_rejects_bad_arguments_before_solving(monkeypatch, bad, error):
    solves = []

    def counted_solve(*args):
        solves.append(args)
        return solve_s(*args)

    monkeypatch.setattr(risk, "solve_s", counted_solve)
    small = sample_ensemble(build_grid(1.0, 8), 256, seed=4)
    spec = RiskSpec(position="0.7*wT", aggregator=Aggregator.absolute(0.1))
    with pytest.raises(error):
        check_axioms(spec, small, **bad)
    assert solves == []


@pytest.mark.parametrize("route", ROUTES)
def test_check_axioms_builds_each_node_design_once(built_designs, route):
    # every solve of the ladder sweeps the same route driver, so the
    # designs of its nodes are built by the first solve only
    n = 8
    small = sample_ensemble(build_grid(1.0, n), 512, seed=4)
    spec = RiskSpec(position="0.7*wT", aggregator=Aggregator.linear(0.1),
                    drift=DriftSpec(r1=0.3), route=route)
    report = check_axioms(spec, small)
    assert len(report.checks) == 6  # 8 solves on the linear preset
    assert len(built_designs) == n


def test_route_agreement_tilts_once(monkeypatch, built_designs):
    small = sample_ensemble(build_grid(1.0, 8), 512, seed=4)
    spec = RiskSpec(position="0.7*wT", aggregator=Aggregator.linear(0.1),
                    drift=DriftSpec(r1=0.3))
    tilts = []

    def counted(*args):
        tilts.append(args)
        return tilt(*args)

    monkeypatch.setattr(risk, "tilt", counted)
    report = route_agreement(spec, small)
    assert len(tilts) == 1
    assert len(built_designs) == 2 * 8  # the ensemble's designs and the tilt's
    # the shared tilt gives the fields of separate solves, bit for bit
    direct = rho(replace(spec, route="direct"), small).values
    diff = rho(replace(spec, route="girsanov"), small).values - direct
    gap = float(np.sqrt(np.mean(diff**2, axis=0)).max())
    assert report.max_gap == gap
    assert report.relative_gap == gap / float(np.sqrt(np.mean(direct**2, axis=0)).max())
    selftest = girsanov_selftest(tilt(small, spec.drift.negated()))
    np.testing.assert_array_equal(report.selftest.mean_scores, selftest.mean_scores)
    np.testing.assert_array_equal(report.selftest.var_scores, selftest.var_scores)
    assert report.selftest.weight_mean_score == selftest.weight_mean_score


# -- the zero-rate fold of the direct generator -----------------------------


def _unfolded_rho(spec, ensemble):
    """rho under f + (0 + 0) * z, the direct generator before the fold."""
    zero_rates = Bin("*", Bin("+", Num(0.0), Num(0.0)), Var("z"))
    generator = Generator.from_expression(Bin("+", spec.aggregator.ast(), zero_rates))
    psi = position_terminal(spec.position)
    # the same hint as rho's free term, so the same sweep path
    terminal = Terminal(lambda grid, w: -psi.eval_all(grid, w), repeats=psi.repeats)
    return solve_s(ProblemSpec(ensemble.grid, generator, terminal), ensemble).y.values


@pytest.mark.parametrize("rate", [0, "0", 0.0])
def test_direct_generator_drops_literal_zero_rates(rate):
    spec = RiskSpec(position="wT", aggregator=Aggregator.absolute(0.1),
                    drift=DriftSpec(r1=rate, r2=rate))
    assert "z" not in risk._direct_generator(spec).needs


@pytest.mark.parametrize("rate", ["0.3", "0*s"])  # "0*s" is zero but not a literal
def test_direct_generator_keeps_other_rates(rate):
    spec = RiskSpec(position="wT", aggregator=Aggregator.absolute(0.1),
                    drift=DriftSpec(r1=rate))
    assert "z" in risk._direct_generator(spec).needs


@pytest.mark.parametrize("aggregator", [
    Aggregator.linear(0.1), Aggregator.absolute(0.1), Aggregator.zero(),
], ids=lambda a: a.kind)
def test_folded_generator_is_bitwise_the_unfolded_one(aggregator):
    ensemble = sample_ensemble(build_grid(1.0, 16), 2048, seed=1)
    spec = RiskSpec(position="0.7*wT", aggregator=aggregator)
    folded = rho(spec, ensemble).values
    assert folded.tobytes() == _unfolded_rho(spec, ensemble).tobytes()


def test_folded_generator_keeps_signed_zeros():
    # the aggregator returns -0.0 at y = 0, where adding 0 * z could flip the sign
    ensemble = sample_ensemble(build_grid(1.0, 8), 256, seed=3)
    spec = RiskSpec(position="0*wT", aggregator=Aggregator.expression("-0.02*abs(y)"))
    folded = rho(spec, ensemble).values
    assert not np.any(folded)
    assert np.signbit(folded).any() and not np.signbit(folded).all()
    assert folded.tobytes() == _unfolded_rho(spec, ensemble).tobytes()


def test_absolute_ladder_evaluates_no_kernel_rows(monkeypatch):
    n = 8
    calls, kernels = [], []
    evaluate, project = NodeDesign.evaluate, NodeDesign.project

    def counted(self, coeffs, *args, **kwargs):
        calls.append(coeffs)
        return evaluate(self, coeffs, *args, **kwargs)

    def recorded(self, *args):
        c, bz = project(self, *args)
        kernels.append(bz)
        return c, bz

    monkeypatch.setattr(NodeDesign, "evaluate", counted)
    monkeypatch.setattr(NodeDesign, "project", recorded)
    small = sample_ensemble(build_grid(1.0, n), 512, seed=4)
    report = check_axioms(RiskSpec(position="0.7*wT", aggregator=Aggregator.absolute(0.1)),
                          small)
    solves = 6  # base, past independence, monotonicity, homogeneity, sub-additivity x 2
    assert len(report.checks) == 4
    # one conditional-expectation fit per live row class and level: one
    # class per solve, but the past-independence edit at node 4 keeps a
    # second class live at levels 7..4
    assert len(calls) == solves * n + 4 == 52
    # and no evaluation of kernel coefficients
    assert not any(c is bz for c in calls for bz in kernels)


# -- row classes of the ladder's free terms ---------------------------------


def test_ladder_edits_carry_the_position_hint():
    psi = position_terminal("0.7*wT")
    keep = lambda v, *_: v  # noqa: E731
    assert risk._perturbed(psi, keep).repeats is True
    assert risk._perturbed(risk._perturbed(psi, keep), keep).repeats is True
    # a sum with a free term that gives no hint gives none
    assert risk._perturbed(psi, keep, position_terminal("wt").repeats).repeats is False
    assert risk._perturbed(position_terminal("0.7*wt"), keep).repeats is False


@pytest.mark.parametrize("kind", ["absolute", "linear"])
def test_ladder_sweeps_find_the_runs_of_the_edited_free_terms(monkeypatch, kind):
    # every solve of the ladder of 0.7*wT sweeps one row class, but the
    # past-independence edit, whose rows below its node form a second
    recorded = []
    init = solver._Sweep.__init__

    def recording(self, *args):
        init(self, *args)
        recorded.append(self.lo)

    monkeypatch.setattr(solver._Sweep, "__init__", recording)
    small = sample_ensemble(build_grid(1.0, 8), 256, seed=4)
    spec = RiskSpec(position="0.7*wT", aggregator=getattr(Aggregator, kind)(0.1))
    check_axioms(spec, small, node=3)
    solves = 8 if kind == "linear" else 6
    assert recorded == [[0], [0, 3]] + [[0]] * (solves - 2)


def test_check_axioms_rejects_a_non_finite_companion_by_node():
    small = sample_ensemble(build_grid(1.0, 4), 64, seed=4)
    with pytest.raises(RiskSetupError, match=r"companion position 1/t is not finite at node 0"):
        check_axioms(RiskSpec(position="0.7*wT"), small, companion="1/t")


_PRESETS = {
    "absolute": RiskSpec(position="wT*abs(t-0.5)", aggregator=Aggregator.absolute("0.1")),
    "linear": RiskSpec(position="wT*abs(t-0.5)", aggregator=Aggregator.linear("0.1"),
                       drift=DriftSpec(r1="0.3"), route="girsanov"),
}


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_outer_time_position_keeps_past_independence_exact(preset):
    # rows t = 0.25 and t = 0.75 of this free term are equal, but it reads
    # t, so it declares no row classes: the edited and the unedited solve
    # both take the row path and batch their rows alike
    small = sample_ensemble(build_grid(1.0, 16), 1024, seed=3)
    check = check_axioms(_PRESETS[preset], small).check("past-independence")
    assert check.max_violation == 0.0
    assert check.passed


# -- lifetimes of the ladder's fields -----------------------------------------


def test_positive_part_stats_match_the_out_of_place_formula():
    rng = np.random.default_rng(7)
    # negatives, zeros and ties: values on a 0.1 grid, a third of them zero
    defect = np.round(rng.normal(size=(600, 9)), 1) * (rng.random((600, 9)) > 1 / 3)
    assert (defect < 0).any() and (defect == 0).any()
    scale = 0.3
    viol = np.maximum(defect, 0.0) / scale
    q50, q90, q99 = np.quantile(viol, (0.5, 0.9, 0.99))
    top, qs = risk._positive_part_stats(defect.copy(), scale)
    assert top == qs["max"] == float(viol.max())
    assert (qs["q50"], qs["q90"], qs["q99"]) == (float(q50), float(q90), float(q99))


@pytest.mark.parametrize("preset", ["linear", "absolute"])
def test_check_axioms_holds_each_field_only_until_its_check_reads_it(preset):
    # the linear preset on the girsanov route, the absolute one direct:
    # the traced peak of a ladder above its entry, less the node designs
    # it builds, in fields of paths x nodes.  Holding every perturbed
    # solve and defect until the ladder returns read 15.2 (linear) and
    # 10.1 (absolute); holding each only until its check reads it reads
    # 6.4 and 4.3, of which the tilt's state and increments are two
    n, m = 16, 4096
    spec, kwargs, bound = {
        "linear": (RiskSpec(position="0.7*wT", aggregator=Aggregator.linear("0.1"),
                            drift=DriftSpec(r1="0.3"), route="girsanov"), {}, 10.0),
        "absolute": (RiskSpec(position="0.7*wT", aggregator=Aggregator.absolute("0.1")),
                     {"shift": 0.5}, 7.0),
    }[preset]
    ensemble = sample_ensemble(build_grid(1.0, n), m, seed=1)
    # one small ladder first, so lazy imports and caches are not counted
    check_axioms(spec, sample_ensemble(build_grid(1.0, 4), 64, seed=1), **kwargs)
    designs = n * m * SolverConfig().basis.size * 8
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        check_axioms(spec, ensemble, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fields = (peak - start - designs) / ensemble.values.nbytes
    assert fields <= bound
