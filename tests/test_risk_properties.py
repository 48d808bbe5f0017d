"""Property tests for the BSVIE risk measure on small random setups.

Yong, "Continuous-time dynamic risk measures by BSVIEs" (Appl. Anal.
86, 2007) states these properties for the continuous measure.  The
scheme keeps the algebraic ones exactly or to rounding, because every
sweep step is linear in the free term (and positively homogeneous for
the absolute aggregator) and reads the free term row by row.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bsvie import (
    Aggregator,
    DriftSpec,
    Generator,
    ProblemSpec,
    RiskSpec,
    Terminal,
    build_grid,
    check_axioms,
    position_terminal,
    rho,
    sample_ensemble,
    solve_s,
)
from bsvie import risk
from bsvie.expr import Bin, Num, Var

ROUNDING = 1e-10


def _coefficient(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_subnormal=False)


@st.composite
def setups(draw):
    steps = draw(st.integers(2, 16))
    paths = draw(st.sampled_from((128, 256, 512, 1024)))
    ensemble = sample_ensemble(build_grid(1.0, steps), paths, seed=draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(("linear", "absolute")))
    aggregator = getattr(Aggregator, kind)(draw(_coefficient(1.0)))
    terms = (f"{draw(_coefficient(5.0))!r}*wT", f"{draw(_coefficient(5.0))!r}*wt")
    spec = RiskSpec(
        position=" + ".join(terms),
        aggregator=aggregator,
        drift=DriftSpec(r1=draw(_coefficient(1.0))),
        route=draw(st.sampled_from(("direct", "girsanov"))),
    )
    # a shift below rounding level would leave only rounding noise for the
    # exact monotonicity check to read
    shift = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.01, 5.0))
    scale = draw(st.floats(0.1, 5.0))
    return spec, terms, ensemble, shift, scale, draw(st.integers(1, steps))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(setups())
def test_risk_measure_properties(setup):
    spec, terms, ensemble, shift, scale, node = setup
    report = check_axioms(spec, ensemble, shift=shift, scale=scale, node=node)
    assert report.check("past-independence").passed
    assert report.check("homogeneity").max_violation <= ROUNDING
    if spec.aggregator.kind == "linear":
        assert report.check("translation").max_violation <= ROUNDING
        assert report.check("monotonicity").max_violation == 0.0
        parts = (RiskSpec(t, spec.aggregator, spec.drift, spec.route) for t in terms)
        additive = sum(rho(p, ensemble).values for p in parts)
        assert np.abs(report.rho.values - additive).max() <= ROUNDING

    zero = rho(RiskSpec(0.0, spec.aggregator, spec.drift, spec.route), ensemble)
    assert not np.any(zero.values)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    steps=st.integers(2, 12),
    paths=st.sampled_from((128, 256, 512)),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(("zero", "linear", "absolute")),
    rate=_coefficient(1.0),
    coefficient=_coefficient(5.0),
    zero_rates=st.tuples(*[st.sampled_from((0, 0.0, "0", "0.0", "0e3"))] * 2),
)
def test_zero_rates_fold_bitwise(steps, paths, seed, kind, rate, coefficient, zero_rates):
    # dropping (0 + 0) * z from the direct generator moves no bit of rho
    ensemble = sample_ensemble(build_grid(1.0, steps), paths, seed=seed)
    aggregator = Aggregator.zero() if kind == "zero" else getattr(Aggregator, kind)(rate)
    spec = RiskSpec(position=f"{coefficient!r}*wT", aggregator=aggregator,
                    drift=DriftSpec(*zero_rates))
    assert "z" not in risk._direct_generator(spec).needs
    folded = rho(spec, ensemble).values

    unfolded = Generator.from_expression(
        Bin("+", aggregator.ast(), Bin("*", Bin("+", Num(0.0), Num(0.0)), Var("z")))
    )
    psi = position_terminal(spec.position)
    # the same hint as rho's free term, so the same sweep path
    terminal = Terminal(lambda grid, w: -psi.eval_all(grid, w), repeats=psi.repeats)
    oracle = solve_s(ProblemSpec(ensemble.grid, unfolded, terminal), ensemble).y.values
    assert folded.tobytes() == oracle.tobytes()
