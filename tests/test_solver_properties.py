"""Property tests for the solver's structural invariants at small random sizes.

The symmetric kernel of the S-solution, the agreement of the S- and
M-solutions when the generator never reads the mirrored kernel, and the
causal structure of the backward sweep are properties of the scheme
itself, not of its accuracy, so they hold bit for bit (or, for
linearity, to rounding) at any grid and path count.  For M-solutions
see Yong, "Well-posedness and regularity of backward stochastic
Volterra integral equations", PTRF 142 (2008).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bsvie import (
    AdaptedField,
    Generator,
    ProblemSpec,
    SolverConfig,
    SurfaceField,
    Terminal,
    build_grid,
    residual,
    s2_norm,
    sample_ensemble,
    solve_adapted,
    solve_m,
    solve_s,
)

ROUNDING = 1e-10
PICARD_TOL = 1e-8

_PROPERTY_SETTINGS = settings(
    max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# deterministic coefficients: a constant times a bounded function of the times
_TIME_FACTORS = ("", "*t", "*s", "*(1 - t*s/2)")


def _coefficient(bound):
    return st.integers(-20, 20).map(lambda k: bound * k / 20)


@st.composite
def generators(draw, zeta=True, linear=False, homogeneous=False):
    """A generator source over t, s, y, z, zeta, w, wt, wT.

    ``linear`` keeps it affine in (y, z, zeta); ``homogeneous`` drops the
    terms that do not vanish at y = z = zeta = 0.
    """
    terms = []
    for name, bound in (("y", 1.0), ("z", 0.5), ("zeta", 0.5)):
        if (name != "zeta" or zeta) and draw(st.booleans()):
            terms.append(f"{draw(_coefficient(bound))!r}{draw(st.sampled_from(_TIME_FACTORS))}*{name}")
    if not linear:
        if draw(st.booleans()):
            terms.append(f"{draw(_coefficient(0.5))!r}*abs(y)")
        if draw(st.booleans()):
            terms.append(f"{draw(_coefficient(0.5))!r}*sin(y)")  # bounded nonlinearity
    if not homogeneous:
        for name in ("w", "wt", "wT", "t*s"):
            if draw(st.booleans()):
                terms.append(f"{draw(_coefficient(1.0))!r}*{name}")
    return " + ".join(terms) or "0"


@st.composite
def terminals(draw):
    """A free term over t, wt, wT."""
    terms = [f"{draw(_coefficient(1.0))!r}*wT"]
    for name in ("wt", "t*wT", "wt^2", "sin(wT)", "t"):
        if draw(st.booleans()):
            terms.append(f"{draw(_coefficient(1.0))!r}*{name}")
    return " + ".join(terms)


@st.composite
def ensembles(draw):
    steps = draw(st.integers(2, 16))
    paths = draw(st.sampled_from((128, 256, 512, 1024)))
    return sample_ensemble(build_grid(1.0, steps), paths, seed=draw(st.integers(0, 2**16)))


def _problem(ensemble, generator, terminal):
    terminal = terminal if isinstance(terminal, Terminal) else Terminal.from_expression(terminal)
    return ProblemSpec(ensemble.grid, Generator.from_expression(generator), terminal)


def _coeffs(report):
    """The kernel's coefficient table, whichever view wraps it.

    The s-mode and adapted tables are zero below the diagonal; the
    m-mode table holds both triangles.
    """
    return report.z.base.coeffs if report.mode == "s-solution" else report.z.coeffs


@_PROPERTY_SETTINGS
@given(ensembles(), generators(zeta=False), terminals())
def test_s_and_m_agree_bitwise_without_zeta(ensemble, generator, terminal):
    problem = _problem(ensemble, generator, terminal)
    s, m = solve_s(problem, ensemble), solve_m(problem, ensemble)
    np.testing.assert_array_equal(m.y.values, s.y.values)
    upper = np.triu_indices(ensemble.grid.steps + 1)
    np.testing.assert_array_equal(m.z.coeffs[upper], s.z.base.coeffs[upper])
    n = ensemble.grid.steps
    for i in range(n + 1):
        for j in range(i, n + 1):
            np.testing.assert_array_equal(m.z.at(i, j), s.z.at(i, j))


@_PROPERTY_SETTINGS
@given(ensembles(), generators(), terminals())
def test_s_kernel_symmetric_bitwise(ensemble, generator, terminal):
    report = solve_s(_problem(ensemble, generator, terminal), ensemble)
    n = ensemble.grid.steps
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            np.testing.assert_array_equal(report.z.at(j, i), report.z.at(i, j))


@_PROPERTY_SETTINGS
@given(ensembles(), generators(homogeneous=True))
def test_zero_problem_exact_in_all_modes(ensemble, generator):
    problem = _problem(ensemble, generator, "0")
    solvers = [solve_s, solve_m] + ([] if "zeta" in generator else [solve_adapted])
    for solve in solvers:
        report = solve(problem, ensemble)
        assert not np.any(report.y.values)
        assert not np.any(_coeffs(report))


@_PROPERTY_SETTINGS
@given(ensembles(), st.data())
def test_past_independence_in_one_pass_modes(ensemble, data):
    # the sweep reads the free term row by row, and row i of level j only
    # meets rows below it inside batched products whose shape does not
    # depend on their values: editing the rows of outer nodes below i0
    # leaves every figure of the outer nodes from i0 on bitwise intact.
    # The edited free term keeps the base's hint, so both solves take the
    # same path: one batch of every row, or one row per run of equal rows,
    # each projected alone, where the edit may add a run at i0
    n = ensemble.grid.steps
    i0 = data.draw(st.integers(1, n))
    generator = data.draw(generators(zeta=False))
    base = Terminal.from_expression(data.draw(terminals()))

    def edited_rows(grid, w):
        values = base.eval_all(grid, w)
        values[:i0] = 2.0 * values[:i0] + 3.0
        return values

    for solve in (solve_s, solve_m, solve_adapted):
        before = solve(_problem(ensemble, generator, base), ensemble)
        after = solve(_problem(ensemble, generator, Terminal(edited_rows, repeats=base.repeats)),
                      ensemble)
        np.testing.assert_array_equal(after.y.values[:, i0:], before.y.values[:, i0:])
        assert np.any(after.y.values[:, :i0] != before.y.values[:, :i0])
        np.testing.assert_array_equal(_coeffs(after)[i0:], _coeffs(before)[i0:])


@_PROPERTY_SETTINGS
@given(ensembles(), generators(zeta=False, linear=True), terminals(), terminals())
def test_solution_is_affine_in_the_terminal(ensemble, generator, psi, phi):
    def y(terminal):
        return solve_s(_problem(ensemble, generator, terminal), ensemble).y.values

    defect = y(f"{psi} + {phi}") - y(psi) - y(phi) + y("0")
    assert np.abs(defect).max() <= ROUNDING


@_PROPERTY_SETTINGS
@given(ensembles(), generators(), terminals())
def test_converged_picard_lands_within_tolerance(ensemble, generator, terminal):
    problem = _problem(ensemble, generator, terminal)
    one = solve_s(problem, ensemble)
    picard = solve_s(problem, ensemble, SolverConfig(picard=True, tol=PICARD_TOL))
    if not picard.converged:
        return
    grid, state = ensemble.grid, ensemble.values
    gap = s2_norm(
        AdaptedField(grid, picard.y.values - one.y.values),
        SurfaceField(grid, state, picard.z.base.coeffs - one.z.base.coeffs, region="upper"),
    )
    assert gap <= PICARD_TOL * (1.0 + s2_norm(one.y, one.z.base))


@_PROPERTY_SETTINGS
@given(ensembles(), generators(), terminals())
def test_row_and_column_residual_agree_bitwise_for_symmetric_kernel(
    ensemble, generator, terminal
):
    problem = _problem(ensemble, generator, terminal)
    report = solve_s(problem, ensemble)
    row, column = residual(problem, report.y, report.z, ensemble)
    np.testing.assert_array_equal(row.per_node, column.per_node)
    assert row.aggregate == column.aggregate
