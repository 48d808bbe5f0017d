import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bsvie import (
    BasisSpec,
    DriftSpec,
    CoeffSurface,
    Driver,
    Generator,
    NodeDesign,
    ProblemSpec,
    RegressionError,
    SolverConfig,
    SolverError,
    SymmetricSurface,
    Terminal,
    build_grid,
    residual,
    s2_norm,
    sample_ensemble,
    solve_adapted,
    solve_m,
    solve_s,
    tilt,
)
from bsvie import solver
from bsvie.analytic import get_case, reference_fields
from bsvie.solver import _Sweep

M = 8192


@pytest.fixture(scope="module")
def pl_setup():
    case = get_case("product-linear")
    grid = case.grid(16)
    ensemble = sample_ensemble(grid, M, seed=3)
    return case, grid, case.problem(grid), ensemble


@pytest.fixture(scope="module")
def pl_s_report(pl_setup):
    _, _, problem, ensemble = pl_setup
    return solve_s(problem, ensemble)


def _all_cells(grid):
    n = grid.steps
    return [(i, j) for i in range(n + 1) for j in range(n + 1)]


def test_terminal_evaluation(unit_grid, unit_ensemble):
    const = Terminal.constant(3.0).eval_all(unit_grid, unit_ensemble.values)
    assert const.shape == (len(unit_grid), unit_ensemble.n_paths)
    np.testing.assert_array_equal(const, 3.0)
    psi = Terminal.from_expression("t*T*wT").eval_all(unit_grid, unit_ensemble.values)
    expected = unit_grid.nodes[:, None] * unit_grid.horizon * unit_ensemble.values[:, -1]
    np.testing.assert_allclose(psi, expected, rtol=1e-13)
    # every path variable at every outer node, on an interval off zero
    grid = build_grid(2.0, 4, 0.5)
    w = sample_ensemble(grid, 64, seed=2).values
    values = Terminal.from_expression("t*wt - wT*T1 + T").eval_all(grid, w)
    expected = grid.nodes[:, None] * w.T - w[:, -1] * grid.start + grid.horizon
    np.testing.assert_array_equal(values, expected)


def test_terminal_rejects_inner_time_variables():
    with pytest.raises(ValueError):
        Terminal.from_expression("s + t")
    with pytest.raises(ValueError):
        Terminal.from_expression("y")


def test_generator_rejects_unknown_needs():
    with pytest.raises(ValueError):
        Generator(lambda env: 0.0, needs=("q",))


def test_family_sweep_constant_terminal(pl_setup):
    # zero generator, constant data: every row stays at the constant and
    # the kernel collapses to zero
    _, grid, _, ensemble = pl_setup
    problem = ProblemSpec(
        grid=grid,
        generator=Generator.from_expression("0"),
        terminal=Terminal.constant(5.0),
    )
    report = solve_adapted(problem, ensemble)
    np.testing.assert_allclose(report.y.values, 5.0, rtol=1e-9)
    for i in range(grid.steps):
        np.testing.assert_allclose(report.z.at(i, i), 0.0, atol=1e-9)


def test_family_sweep_martingale_terminal(pl_setup):
    # zero generator, terminal W(T): rows are the martingale W itself and
    # the kernel is the constant integrand 1
    _, grid, _, ensemble = pl_setup
    problem = ProblemSpec(
        grid=grid,
        generator=Generator.from_expression("0"),
        terminal=Terminal.from_expression("wT"),
    )
    report = solve_adapted(problem, ensemble)
    err = np.sqrt(np.mean((report.y.values - ensemble.values) ** 2))
    assert err < 0.05
    mid = grid.steps // 2
    assert np.mean(report.z.at(3, mid)) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("generator", ["0", "-0.3*y"])
def test_constant_terminal_kernel_vanishes_to_rounding(generator):
    # a constant row's kernel is B - S A with B = S A in exact arithmetic;
    # the cancellation leaves rounding (up to 5e-14 here), not exact zeros
    grid = build_grid(1.0, 16)
    ensemble = sample_ensemble(grid, 2048, seed=1)
    problem = ProblemSpec(grid, Generator.from_expression(generator), Terminal.constant(1.0))
    report = solve_s(problem, ensemble)
    assert np.abs(report.z.base.coeffs).max() <= 1e-12


def test_zero_case_exact_in_all_modes():
    case = get_case("zero")
    grid = case.grid(8)
    ensemble = sample_ensemble(grid, 512, seed=1)
    problem = case.problem(grid)
    for solve in (solve_s, solve_m, solve_adapted):
        report = solve(problem, ensemble)
        assert np.all(report.y.values == 0.0)
        cells = (
            [(i, j) for i in range(9) for j in range(i, 9)]
            if report.z.region == "upper"
            else _all_cells(grid)
        )
        for i, j in cells:
            assert np.all(report.z.at(i, j) == 0.0)


def test_symmetric_kernel_mirrors_bitwise(pl_s_report):
    z = pl_s_report.z
    for i, j in ((0, 5), (2, 9), (7, 16)):
        np.testing.assert_array_equal(z.at(i, j), z.at(j, i))


def test_s_and_m_agree_above_diagonal_bitwise(pl_setup, pl_s_report):
    _, grid, problem, ensemble = pl_setup
    m_report = solve_m(problem, ensemble)
    np.testing.assert_array_equal(m_report.y.values, pl_s_report.y.values)
    n = grid.steps
    for i in range(n + 1):
        for j in range(i, n + 1):
            np.testing.assert_array_equal(m_report.z.at(i, j), pl_s_report.z.at(i, j))


def test_adapted_mode_shares_y_and_hides_lower_triangle(pl_setup, pl_s_report):
    _, _, problem, ensemble = pl_setup
    report = solve_adapted(problem, ensemble)
    np.testing.assert_array_equal(report.y.values, pl_s_report.y.values)
    assert report.z.region == "upper"
    with pytest.raises(IndexError):
        report.z.at(2, 1)


def test_adapted_mode_rejects_mirrored_reads(pl_setup):
    _, grid, _, ensemble = pl_setup
    problem = ProblemSpec(
        grid=grid,
        generator=Generator.from_expression("zeta"),
        terminal=Terminal.constant(0.0),
    )
    with pytest.raises(ValueError):
        solve_adapted(problem, ensemble)


@pytest.mark.parametrize("solve, concept", [(solve_m, "m-solution"),
                                             (solve_adapted, "adapted solution")])
def test_one_sweep_solves_refuse_the_picard_mode(pl_setup, solve, concept):
    # only the s-solution iterates: a Picard config elsewhere is an error,
    # not a silent single pass
    _, _, problem, ensemble = pl_setup
    with pytest.raises(ValueError, match=rf"^the {concept} is one backward sweep; picard "
                                         r"applies to the s-solution alone$"):
        solve(problem, ensemble, SolverConfig(picard=True))


def test_fixed_point_mode_matches_one_pass(pl_setup, pl_s_report):
    _, _, problem, ensemble = pl_setup
    picard = solve_s(problem, ensemble, SolverConfig(picard=True, tol=1e-8))
    assert picard.converged
    assert picard.iterations <= 50
    diff_y = pl_s_report.y.values - picard.y.values
    diff = s2_norm(
        pl_s_report.y.__class__(grid=pl_s_report.y.grid, values=diff_y),
        _diff_surface(pl_s_report.z, picard.z),
    )
    base = s2_norm(pl_s_report.y, pl_s_report.z)
    assert diff / base < 1e-6
    assert all(r < 1.0 for r in picard.contraction_ratios)


def test_fixed_point_bisects_a_diverging_range():
    # on the whole level range the iteration for 5*y diverges, so the
    # driver bisects; each sub-block decides from its own ratios, so the
    # halves iterate instead of splitting down to single levels (41 sweeps)
    grid = build_grid(1.0, 32)
    ensemble = sample_ensemble(grid, 4096, seed=1)
    problem = ProblemSpec(
        grid=grid,
        generator=Generator.from_expression("5*y"),
        terminal=Terminal.from_expression("wT"),
    )
    one = solve_s(problem, ensemble)
    picard = solve_s(problem, ensemble, SolverConfig(picard=True, tol=1e-8))
    assert picard.converged
    assert picard.contraction_ratios[0] >= 1.0 and picard.contraction_ratios[1] >= 1.0
    assert picard.iterations <= 35
    assert len(picard.update_norms) == picard.iterations
    gap = np.linalg.norm(picard.y.values - one.y.values) / np.linalg.norm(one.y.values)
    assert gap < 1e-8


@pytest.fixture(scope="module")
def pl_small():
    case = get_case("product-linear")
    grid = case.grid(16)
    return case, grid, sample_ensemble(grid, 2048, seed=5)


def _zeta_problem(case, grid, generator):
    return ProblemSpec(
        grid=grid,
        generator=Generator.from_expression(generator),
        terminal=Terminal.from_expression(case.terminal_src),
    )


def test_zeta_fixed_point_with_inert_zeta_is_the_one_pass_solve(pl_small):
    case, grid, ensemble = pl_small
    plain = solve_m(case.problem(grid), ensemble)
    report = solve_m(_zeta_problem(case, grid, "-t*y/s^2 + 0*zeta"), ensemble)
    assert report.converged
    np.testing.assert_array_equal(report.y.values, plain.y.values)
    np.testing.assert_array_equal(report.z.coeffs, plain.z.coeffs)


def martingale_coeffs(designs, y_values):
    """Lower-triangle tables: the martingale rows of every node, refitted after the sweep."""
    n, k = len(designs), designs[0].basis.size
    coeffs = np.zeros((n + 1, n + 1, k))
    xw2 = np.empty((2 * k, y_values.shape[0]))  # every node's projection operand
    for j, design in enumerate(designs):
        coeffs[j + 1:, j] = design.project(y_values[:, j + 1:].T, design.operand(xw2))[1]
    return coeffs


def _martingale_fill(y_values, ensemble):
    """Lower-triangle coefficient table of the representation of ``y_values``."""
    designs = Driver.from_ensemble(ensemble)._node_designs(BasisSpec())
    return martingale_coeffs(designs, y_values)


def test_zeta_fixed_point_contracts_to_its_martingale_fill(pl_small):
    # one backward sweep reaches the fixed point: the mirrored values of
    # level j are the martingale rows of a Y(t_j) that is already final
    case, grid, ensemble = pl_small
    report = solve_m(_zeta_problem(case, grid, "-t*y/s^2 + 0.1*zeta"), ensemble)
    bookkeeping = (report.iterations, report.converged, report.update_norms,
                   report.contraction_ratios)
    assert bookkeeping == (1, True, [], [])
    lower = _martingale_fill(report.y.values, ensemble)
    below = np.tri(grid.steps + 1, k=-1, dtype=bool)
    np.testing.assert_array_equal(report.z.coeffs[below], lower[below])


def frozen_martingale_zeta(problem, paths, mart_coeffs):
    """``problem`` whose generator reads zeta from a frozen lower-triangle table.

    Off the diagonal, cell (i, j) reads Z(t_j, t_i) = X_i mart_coeffs[j, i]:
    row i is a polynomial in the state at node i, so each row needs its
    own design.  The diagonal keeps the identity zeta = z, which is exact
    there, and reads the kernel's own row.  The wrapper declares ``t``,
    so the symmetric sweep keeps every outer node a row of its own, and
    ``z`` in place of ``zeta``, so that sweep mirrors nothing.
    """
    grid, inner = problem.grid, problem.generator
    designs = paths._node_designs(BasisSpec())

    def index(times):
        return [int(np.flatnonzero(grid.nodes == t)[0]) for t in np.ravel(times)]

    def fn(env):
        zeta = env["z"]
        if np.ndim(env["t"]) == 2:  # a block of off-diagonal rows of one level
            (j,) = index(env["s"])
            zeta = np.stack([designs[i].x @ mart_coeffs[j, i] for i in index(env["t"])])
        return inner({**env, "zeta": zeta})

    generator = Generator(fn, (inner.needs - {"zeta"}) | {"t", "z"})
    return ProblemSpec(grid, generator, problem.terminal)


_ZETA_CASES = [("0.1*zeta", False), ("0.5*zeta*sin(y) + z", False), ("20*zeta", False),
               ("0.1*zeta + 0.2*y", True)]


def _zeta_case(pl_small, src, tilted):
    case, grid, ensemble = pl_small
    paths = tilt(ensemble, DriftSpec(r1=0.5)) if tilted else Driver.from_ensemble(ensemble)
    return grid, paths, _zeta_problem(case, grid, src)


@pytest.mark.parametrize("src, tilted", _ZETA_CASES)
def test_a_frozen_sweep_on_the_final_table_reproduces_the_one_pass_y(pl_small, src, tilted):
    # the fixed point's defining property: one frozen-data sweep that reads
    # the mirrored values from the solve's own lower table returns its Y
    grid, paths, problem = _zeta_case(pl_small, src, tilted)
    report = solve_m(problem, paths)
    frozen = solve_s(frozen_martingale_zeta(problem, paths, report.z.coeffs), paths).y.values
    gap = np.linalg.norm(frozen - report.y.values) / np.linalg.norm(report.y.values)
    assert gap < 1e-9


@pytest.mark.parametrize("src, tilted", _ZETA_CASES)
def test_the_mirrored_values_read_are_the_lower_table(pl_small, src, tilted):
    # cell (i, j) reads X_i coeffs[j, i]; the sweep fits Y(t_j) at node i
    # alone and the table in a batch of rows, so they agree up to the
    # rounding that depends on the batch size
    grid, paths, problem = _zeta_case(pl_small, src, tilted)
    read = {}

    def fn(env):
        if np.ndim(env["t"]) == 2:  # the off-diagonal rows of one level
            j = int(np.flatnonzero(grid.nodes == env["s"])[0])
            read[j] = env["zeta"].copy()
        return problem.generator(env)

    recording = ProblemSpec(grid, Generator(fn, problem.generator.needs), problem.terminal)
    report = solve_m(recording, paths)
    assert sorted(read) == list(range(1, grid.steps))
    designs = paths._node_designs(BasisSpec())
    table = report.z.coeffs
    scale = max(np.abs(designs[i].evaluate(table[j, i][None])).max() for j in read
                for i in range(j))
    for j, rows in read.items():
        assert rows.shape == (j, paths.ensemble.n_paths)
        for i in range(j):
            ref = designs[i].evaluate(table[j, i][None])[0]
            assert np.abs(rows[i] - ref).max() <= 1e-10 * scale, (i, j)


@pytest.mark.parametrize("path", ["rows", "classes", "tilted"])
def test_one_pass_martingale_rows_are_the_separate_fill(pl_small, path):
    # a one-pass solve_m fills node j's martingale rows inside level j, on
    # Y columns that are final there: the bits of a fill after the sweep
    case, grid, ensemble = pl_small
    if path == "classes":
        problem = ProblemSpec(grid, Generator.from_expression("0.1*abs(y)"),
                              Terminal.from_expression("0.7*wT"))
    else:
        problem = case.problem(grid)
    if path == "tilted":
        paths = tilt(ensemble, DriftSpec(r1=0.5))
        designs = paths._node_designs(BasisSpec())
    else:
        paths = ensemble
        designs = Driver.from_ensemble(ensemble)._node_designs(BasisSpec())
    report = solve_m(problem, paths)
    lower = martingale_coeffs(designs, report.y.values)
    below = np.tri(grid.steps + 1, k=-1, dtype=bool)
    assert np.any(lower[below])
    np.testing.assert_array_equal(report.z.coeffs[below], lower[below])


@pytest.fixture
def live_designs(monkeypatch):
    """The number of NodeDesign instances alive after each construction."""
    live, counts = weakref.WeakSet(), []
    original = NodeDesign.__init__

    def counted(self, *args, **kwargs):
        original(self, *args, **kwargs)
        live.add(self)
        counts.append(len(live))

    monkeypatch.setattr(NodeDesign, "__init__", counted)
    return counts


@pytest.mark.parametrize("solve", [solve_s, solve_m, solve_adapted])
def test_a_one_pass_solve_of_an_ensemble_holds_one_design_at_a_time(live_designs, pl_small,
                                                                     solve):
    case, grid, ensemble = pl_small
    n, problem = grid.steps, case.problem(grid)
    solve(problem, ensemble)
    assert live_designs == [1] * n
    # a driver given to the solve keeps every design, and its next solve builds none
    driver = Driver.from_ensemble(ensemble)
    solve(problem, driver)
    assert live_designs[n:] == list(range(1, n + 1))
    solve(problem, driver)
    assert len(live_designs) == 2 * n


def _diff_surface(a, b):
    """The kernel a - b of two symmetric solves on one state: the difference of their tables."""
    return SymmetricSurface(CoeffSurface(a.grid, a.state, a.coeffs - b.coeffs, region="upper"))


def test_unit_weight_driver_is_the_plain_solver(pl_setup, pl_s_report):
    _, _, problem, ensemble = pl_setup
    driver = Driver(
        ensemble=ensemble,
        state=ensemble.values,
        increments=ensemble.increments,
        weights=np.ones(ensemble.n_paths),
    )
    weighted = solve_s(problem, driver)
    # not bitwise: the weighted normal equations multiply by the unit
    # weights through a separate array, which changes the BLAS kernel
    np.testing.assert_allclose(
        weighted.y.values, pl_s_report.y.values, rtol=0, atol=5e-13
    )


def _recording_problem(grid):
    calls = []

    def fn(env):
        calls.append({k: env[k] for k in ("t", "s", "w", "wt", "wT", "T", "T1")})
        return np.zeros_like(env["wT"])

    generator = Generator(fn, ("t", "s", "w", "wt", "wT", "T", "T1"))
    return ProblemSpec(grid, generator, Terminal.from_expression("wT")), calls


def test_generator_reads_paths_at_its_nodes():
    grid = build_grid(1.0, 4)
    ensemble = sample_ensemble(grid, 64, seed=7)
    paths, nodes, n = ensemble.values, grid.nodes, grid.steps
    tilted = tilt(ensemble, DriftSpec(r1=0.5))
    assert not np.array_equal(tilted.state, paths)
    for given in (ensemble, tilted):
        problem, calls = _recording_problem(grid)
        report = solve_s(problem, given)
        # per level j = n-1 .. 0: the diagonal call, then the rows 0..j-1
        expected = []
        for j in range(n - 1, -1, -1):
            expected.append((j, nodes[j], paths[:, j]))
            if j:
                expected.append((j, nodes[:j, None], paths[:, :j].T))
        assert len(calls) == len(expected)
        for (j, t, wt), env in zip(expected, calls):
            np.testing.assert_array_equal(env["t"], t)
            assert env["s"] == nodes[j]
            np.testing.assert_array_equal(env["w"], paths[:, j])  # physical, even when tilted
            np.testing.assert_array_equal(env["wt"], wt)
            np.testing.assert_array_equal(env["wT"], paths[:, -1])
            assert (env["T"], env["T1"]) == (grid.horizon, grid.start)

        calls.clear()
        residual(problem, report.y, report.z, ensemble)
        assert len(calls) == n
        for i, env in enumerate(calls):
            assert env["t"] == nodes[i]
            np.testing.assert_array_equal(env["s"], nodes[i:n, None])
            np.testing.assert_array_equal(env["w"], paths[:, i:n].T)
            np.testing.assert_array_equal(env["wt"], paths[:, i])
            np.testing.assert_array_equal(env["wT"], paths[:, -1])


def test_generator_declaring_z_reads_the_fitted_kernel():
    # the kernel rows a generator receives are the node design evaluated
    # at the stored coefficients, bit for bit; without a declared z the
    # sweep evaluates no kernel rows at all.  The free term wT declares
    # one row class, so each level evaluates that class alone: one row
    grid = build_grid(1.0, 4)
    ensemble = sample_ensemble(grid, 64, seed=7)
    n = grid.steps
    for driver in (Driver.from_ensemble(ensemble), tilt(ensemble, DriftSpec(r1=0.5))):
        for needs in (("z", "wT"), ("wT",)):
            calls = []

            def fn(env):
                # the arrays are borrowed for the call: keep a copy
                calls.append(None if env["z"] is None else env["z"].copy())
                return 0.1 * env["wT"]

            problem = ProblemSpec(grid, Generator(fn, needs), Terminal.from_expression("wT"))
            report = solve_s(problem, driver)
            assert len(calls) == 2 * n - 1
            if "z" not in needs:
                assert all(z is None for z in calls)
                continue
            calls = iter(calls)
            coeffs = report.z.base.coeffs
            for j in range(n - 1, -1, -1):
                design = NodeDesign(j, driver.state[:, j], driver.increments[:, j], grid.dt,
                                    BasisSpec())
                # the class's coefficients fill every cell of its rows
                np.testing.assert_array_equal(coeffs[: j + 1, j], coeffs[:1, j].repeat(j + 1, 0))
                fitted = design.evaluate(coeffs[:1, j])
                np.testing.assert_array_equal(next(calls), fitted[0])
                if j:
                    np.testing.assert_array_equal(next(calls), fitted)


@pytest.mark.parametrize("picard", [False, True])
@pytest.mark.parametrize("name", ["y", "z"])
def test_generator_returning_a_borrowed_array_matches_a_copy(pl_small, name, picard):
    # the sweep reads what a generator returns before it writes into any
    # array the generator received, so handing one back needs no copy
    case, grid, ensemble = pl_small
    ys = []
    for fn in (lambda env: env[name], lambda env: env[name].copy()):
        problem = ProblemSpec(grid, Generator(fn, (name,)),
                              Terminal.from_expression(case.terminal_src))
        ys.append(solve_s(problem, ensemble, SolverConfig(picard=picard, tol=1e-8)).y.values)
    np.testing.assert_array_equal(ys[0], ys[1])


@pytest.mark.parametrize("mode", ["s", "z", "zeta"])
def test_sweep_levels_allocate_no_rows_by_paths_array(monkeypatch, mode):
    # every (rows x paths) array of a level lands in the sweep's work
    # buffers, and the off-diagonal update allocates one block at a time:
    # with one-row blocks, sweeping all levels traces less than 8 blocks
    # beyond the work buffers, where one (steps x paths) array is 16.
    # Kernel and mirrored work rows exist only for a generator that reads them.
    n, m = 16, 4096
    monkeypatch.setattr(solver, "_BLOCK_VALUES", m)
    case = get_case("product-linear")
    grid = case.grid(n)
    ensemble = sample_ensemble(grid, m, seed=1)
    generator = {"s": case.generator_src, "z": "-t*y/s^2 + 0.1*z",
                 "zeta": "-t*y/s^2 + 0.1*zeta"}[mode]
    made = []

    class Recorded(solver._LevelWork):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(solver, "_LevelWork", Recorded)
    # zeta runs the M-solution's sweep, whose mirrored rows are the martingale
    # rows of Y; the sweep allocates its work buffers and a shared driver's
    # designs before the levels run
    sweep = _Sweep(_zeta_problem(case, grid, generator), Driver.from_ensemble(ensemble),
                   SolverConfig(), "m" if mode == "zeta" else "s")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sweep.run_levels(n - 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert made == [sweep.work]
    assert made[0].block == 1
    assert (made[0].z is not None, made[0].zeta is not None) == (mode == "z", mode == "zeta")
    beyond = peak - base
    assert beyond < 8 * m * 8, f"{beyond} bytes traced beyond the work buffers"


@pytest.mark.parametrize("mode", ["picard", "zeta", "bisected"])
def test_dropping_a_report_frees_the_solve(pl_small, mode):
    # a solve leaves no reference cycle behind: with the collector off,
    # dropping its report frees the designs, the iterate and the block
    # copies, leaving less than one (paths x nodes) array traced
    case, grid, ensemble = pl_small
    picard = SolverConfig(picard=True, tol=1e-8)
    if mode == "picard":
        problem = case.problem(grid)
    elif mode == "zeta":
        problem = _zeta_problem(case, grid, "-t*y/s^2 + 0.1*zeta")
    else:
        grid = build_grid(1.0, 16)
        ensemble = sample_ensemble(grid, 2048, seed=5)
        problem = ProblemSpec(grid, Generator.from_expression("5*y"),
                              Terminal.from_expression("wT"))
    # the M-solution is one sweep, so it takes the default config
    solve, config = (solve_m, SolverConfig()) if mode == "zeta" else (solve_s, picard)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = solve(problem, ensemble, config)
        blocks = report.iterations - len(report.contraction_ratios)
        del report
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    # each swept block starts a new run of contraction ratios
    assert blocks == (3 if mode == "bisected" else 1)
    assert left < ensemble.values.nbytes, f"{left} bytes still traced"


def test_a_sweep_keeps_its_iterate_and_no_copy_of_the_free_term(pl_small):
    # the free term seeds ``lam`` and the last column of ``y``; once they
    # hold it, the sweep keeps no (nodes x paths) array beside its iterate
    # and its work buffers
    case, grid, ensemble = pl_small
    driver = Driver.from_ensemble(ensemble)
    driver._node_designs(BasisSpec())
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sweep = _Sweep(case.problem(grid), driver, SolverConfig(), "s")
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    iterate = sweep.lam.nbytes + sweep.y.nbytes + sweep.coeffs.nbytes
    iterate += sum(a.nbytes for a in vars(sweep.work).values() if isinstance(a, np.ndarray))
    assert kept < iterate + sweep.lam.nbytes // 2, f"{kept} bytes kept, iterate {iterate}"


def _solution_bits(report):
    z = report.z
    coeffs = z.base.coeffs if isinstance(z, SymmetricSurface) else z.coeffs
    return (report.y.values.tobytes(), coeffs.tobytes(), report.iterations,
            report.converged, report.update_norms, report.contraction_ratios)


@pytest.mark.parametrize("mode", ["one-pass", "picard", "zeta"])
def test_a_reused_driver_solves_like_a_fresh_one(built_designs, pl_small, mode, monkeypatch):
    # a driver keeps its designs: its second solve builds none and gives
    # the bits of a solve on a fresh driver
    case, grid, ensemble = pl_small
    rows = []
    kernel_row = NodeDesign.kernel_row
    monkeypatch.setattr(NodeDesign, "kernel_row",
                        lambda self, *args: rows.append(1) or kernel_row(self, *args))
    config = SolverConfig(picard=mode == "picard", tol=1e-8)
    if mode == "zeta":
        problem, solve = _zeta_problem(case, grid, "-t*y/s^2 + 0.1*zeta"), solve_m
    else:
        problem, solve = case.problem(grid), solve_s
    fresh = _solution_bits(solve(problem, ensemble, config))
    driver = Driver.from_ensemble(ensemble)
    solve(problem, driver, config)
    del built_designs[:]
    assert _solution_bits(solve(problem, driver, config)) == fresh
    assert built_designs == []
    # the zeta solves read a mirrored row per off-diagonal cell, the others none
    n = grid.steps
    assert len(rows) == (3 * n * (n - 1) // 2 if mode == "zeta" else 0)


def test_designs_belong_to_one_driver_and_basis(built_designs, pl_small):
    case, grid, ensemble = pl_small
    n, problem = grid.steps, case.problem(grid)
    driver = tilt(ensemble, DriftSpec(r1=0.5))
    solve_s(problem, driver)
    assert len(built_designs) == n
    # new weights: replace starts the new driver from no designs
    unit = np.ones(ensemble.n_paths)
    solve_s(problem, replace(driver, weights=unit))
    assert len(built_designs) == 2 * n
    assert all(np.array_equal(d.weights, unit) for d in built_designs[n:])
    # another basis on the same driver builds its own set, once
    quadratic = SolverConfig(basis=BasisSpec(degree=2))
    solve_s(problem, driver, quadratic)
    solve_s(problem, driver, quadratic)
    assert len(built_designs) == 3 * n
    assert all(d.basis.degree == 2 for d in built_designs[2 * n:])
    solve_s(problem, driver)
    assert len(built_designs) == 3 * n


def test_sweep_rejects_a_driver_on_another_grid():
    grid = build_grid(1.0, 8)
    other = sample_ensemble(build_grid(2.0, 8, 0.5), 256, seed=2)
    problem = ProblemSpec(grid, Generator.from_expression("-0.3*y"),
                          Terminal.from_expression("wT"))
    with pytest.raises(ValueError, match="problem grid and ensemble grid disagree"):
        solve_s(problem, tilt(other, DriftSpec(r1=0.5)))


@pytest.mark.parametrize("array", ["state", "increments"])
def test_driver_rejects_arrays_of_another_shape(array):
    ensemble = sample_ensemble(build_grid(1.0, 8), 256, seed=1)
    arrays = {"state": ensemble.values, "increments": ensemble.increments}
    arrays[array] = arrays[array][:, 1:]
    with pytest.raises(ValueError, match="disagree with its ensemble"):
        Driver(ensemble=ensemble, **arrays)


def test_non_finite_regression_sums_name_their_node():
    # finite data whose regression sums overflow
    grid = build_grid(1.0, 4)
    ensemble = sample_ensemble(grid, 256, seed=1)
    problem = ProblemSpec(grid, Generator.from_expression("0"), Terminal.constant(1e307))
    huge = np.full(ensemble.values.shape, 1e307)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RegressionError, match=r"^node 3: non-finite regression targets"):
            solve_s(problem, ensemble)
        # the martingale fill regresses column 0 first
        with pytest.raises(RegressionError, match=r"^node 0: non-finite regression targets"):
            _martingale_fill(huge, ensemble)


@pytest.mark.parametrize("tilted", [False, True])
def test_iterate_norm_matches_evaluated_path_mean(pl_small, tilted):
    # the kernel part of the iterate norm, as the quadratic form of the
    # unweighted Gram, against the path mean of the evaluated rows
    case, grid, ensemble = pl_small
    paths = tilt(ensemble, DriftSpec(r1=0.5)) if tilted else ensemble
    problem = case.problem(grid)
    sweep = _Sweep(problem, paths, SolverConfig(), "picard")
    sweep.run_levels(grid.steps - 1, 0, (np.zeros_like(sweep.y), np.zeros_like(sweep.coeffs)))
    # with Y zero, both norms are their kernel parts alone
    sweep.y[:] = 0.0
    c = sweep.coeffs
    n = grid.steps
    got = sweep.block_norms_sq(n - 1, 0, np.zeros_like(sweep.y), 0.9 * c)
    for c_old, norm_sq in zip((0.9 * c, 0.0 * c), got):
        expected = 0.0
        for j in range(n):
            dz = sweep.designs[j].evaluate(c[: j + 1, j] - c_old[: j + 1, j])
            expected += float(np.sum(np.mean(dz**2, axis=1))) * grid.dt**2
        assert norm_sq == pytest.approx(expected, rel=1e-12, abs=0)


def test_both_picard_norms_come_from_one_pass_with_their_bits(pl_small):
    # the update and the size of an iterate, each summed in the order of a
    # pass of its own: the Y part then the kernel part, level by level
    case, grid, ensemble = pl_small
    sweep = _Sweep(case.problem(grid), ensemble, SolverConfig(), "picard")
    frozen = (np.zeros_like(sweep.y), np.zeros_like(sweep.coeffs))
    sweep.run_levels(grid.steps - 1, 0, frozen)
    y_old, c_old = 0.5 * sweep.y, 0.9 * sweep.coeffs
    sums = []
    for old_y, old_c in ((y_old, c_old), (0.0 * y_old, 0.0 * c_old)):
        total = 0.0
        for j in range(grid.steps):
            total += float(np.mean((sweep.y[:, j] - old_y[:, j])**2)) * grid.dt
            dc = sweep.coeffs[: j + 1, j] - old_c[: j + 1, j]
            total += float(np.sum((dc @ sweep.designs[j].gram) * dc)) * grid.dt**2
        sums.append(total)
    assert sweep.block_norms_sq(grid.steps - 1, 0, y_old, c_old) == tuple(sums)


def test_solver_config_rejects_zero_iterations():
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=0)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("inf"), float("nan")])
def test_solver_config_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol}"):
        SolverConfig(tol=tol)


def test_non_finite_generator_located(pl_setup):
    _, grid, _, ensemble = pl_setup
    problem = ProblemSpec(
        grid=grid,
        generator=Generator.from_expression("log(-1 - s + s)"),
        terminal=Terminal.constant(1.0),
    )
    with pytest.raises(SolverError, match=r"\(i=\d+, j=\d+\)"):
        solve_s(problem, ensemble)


def test_non_finite_terminal_located(pl_small):
    case, grid, ensemble = pl_small
    problem = ProblemSpec(
        grid, Generator.from_expression(case.generator_src), Terminal.from_expression("log(T-t)")
    )
    with np.errstate(divide="ignore"):
        with pytest.raises(SolverError, match=r"^terminal data is non-finite at node 16$"):
            solve_s(problem, ensemble)


def test_non_finite_generator_names_the_off_diagonal_cell(pl_small):
    # t = 0.75 is node 8; the first level (j = 15) meets it among its rows
    case, grid, ensemble = pl_small
    problem = _zeta_problem(case, grid, "y/(t-0.75)")
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match=r"at \(i=8, j=15\)$"):
            solve_s(problem, ensemble)


def test_second_moment_growth_tracks_reference(pl_setup, pl_s_report):
    _, grid, _, _ = pl_setup
    t = grid.nodes
    ref = t**4 * (t - grid.start)
    num = np.mean(pl_s_report.y.values**2, axis=0)
    mask = ref > 1e-12
    assert np.max(np.abs(num[mask] - ref[mask]) / ref[mask]) < 0.10


def test_mean_square_continuity_improves_with_refinement():
    case = get_case("shifted-product")
    worst = {}
    for n in (8, 16):
        grid = case.grid(n)
        ensemble = sample_ensemble(grid, M, seed=4)
        report = solve_s(case.problem(grid), ensemble)
        steps = np.diff(report.y.values, axis=1)
        worst[n] = float(np.max(np.mean(steps**2, axis=0)))
    assert worst[16] / worst[8] < 0.75


def test_residual_forms_agree_bitwise_for_symmetric_fields(pl_setup):
    case, grid, problem, ensemble = pl_setup
    ref = reference_fields(case, ensemble)
    row = residual(problem, ref.y, ref.z_s, ensemble, form="row")
    col = residual(problem, ref.y, ref.z_s, ensemble, form="column")
    np.testing.assert_array_equal(row.per_node, col.per_node)
    assert row.aggregate == col.aggregate


def test_residual_of_exact_fields_shrinks_with_steps():
    case = get_case("product-linear")
    aggregates = []
    for n in (8, 32):
        grid = case.grid(n)
        ensemble = sample_ensemble(grid, 4096, seed=7)
        ref = reference_fields(case, ensemble)
        aggregates.append(
            residual(case.problem(grid), ref.y, ref.z_s, ensemble, form="row").aggregate
        )
    assert aggregates[1] < aggregates[0]


def test_residual_rejects_unknown_form(pl_setup):
    case, _, problem, ensemble = pl_setup
    ref = reference_fields(case, ensemble)
    with pytest.raises(ValueError):
        residual(problem, ref.y, ref.z_s, ensemble, form="diagonal")


def test_residual_rejects_an_ensemble_on_another_grid():
    # same shape, other interval: read as if it lay on the problem's grid,
    # the fields would give a wrong number instead of an error
    case = get_case("product-linear")
    grid = case.grid(8)
    ref = reference_fields(case, sample_ensemble(grid, 256, seed=1))
    other = sample_ensemble(build_grid(2.0, 8), 256, seed=1)
    with pytest.raises(ValueError, match="problem grid and ensemble grid disagree"):
        residual(case.problem(grid), ref.y, ref.z_s, other)


def test_martingale_extension_reconstructs_process(pl_setup):
    _, grid, problem, ensemble = pl_setup
    report = solve_m(problem, ensemble)
    y = report.y.values
    # Y_i against its mean plus sum_{j<i} Z[i][j] dW_j, summed in j order
    defect = []
    for i in range(grid.steps + 1):
        recon = np.full(M, float(np.mean(y[:, i])))
        for j in range(i):
            recon += report.z.at(i, j) * ensemble.increments[:, j]
        defect.append(float(np.sqrt(np.mean((y[:, i] - recon) ** 2))))
    # Y(t) = t^2 W(t) has representation integrand t^2, inside the basis;
    # the defect is pure regression noise
    scale = np.sqrt(np.mean(y[:, -1] ** 2))
    assert np.max(defect) < 0.12 * scale
    # a problem on another grid has no representation on these paths
    other = ProblemSpec(build_grid(1.0, 8), problem.generator, problem.terminal)
    with pytest.raises(ValueError):
        solve_m(other, ensemble)


def test_symmetric_extension_wraps_upper_kernel(pl_setup):
    _, _, problem, ensemble = pl_setup
    report = solve_adapted(problem, ensemble)
    full = SymmetricSurface(report.z)
    np.testing.assert_array_equal(full.at(3, 1), report.z.at(1, 3))


# -- row classes ------------------------------------------------------------


def test_free_terms_hint_whether_their_rows_repeat():
    assert Terminal.from_expression("-0.7*wT*T + T1").repeats is True
    assert Terminal.constant(2.0).repeats is True
    # an outer-node name makes every row its own, and a raw free term hints nothing
    assert Terminal.from_expression("0.7*wt").repeats is False
    assert Terminal.from_expression("wT*abs(t-0.5)").repeats is False
    assert Terminal(lambda grid, w: np.zeros((len(grid), w.shape[0]))).repeats is False


def _head_edited(terminal: Terminal, node: int) -> Terminal:
    """``terminal`` with the rows below ``node`` changed: two row classes."""

    def fn(grid, w):
        values = terminal.eval_all(grid, w)
        values[:node] = 2.0 * values[:node] + 3.0
        return values

    return Terminal(fn, repeats=terminal.repeats)


def _sweep_runs(problem, ensemble, concept="s"):
    """The first outer node of each row class of a sweep of ``problem``."""
    return _Sweep(problem, ensemble, SolverConfig(), concept).lo


def _declaring_t(generator: Generator) -> Generator:
    """``generator`` with ``t`` declared besides its needs, which forces the row path."""
    return Generator(lambda env: generator(env), generator.needs | {"t"})


@pytest.fixture
def batches(monkeypatch):
    """(node, rows) of every NodeDesign.project call while the test runs."""
    made = []
    original = NodeDesign.project

    def recorded(self, rows, xw2):
        made.append((self.node, rows.shape[0]))
        return original(self, rows, xw2)

    monkeypatch.setattr(NodeDesign, "project", recorded)
    return made


@pytest.mark.parametrize("picard", [False, True])
@pytest.mark.parametrize("tilted", [False, True])
@pytest.mark.parametrize("src", ["0.1*abs(y)", "0.1*y + 0.3*z", "-0.1*y + 0.2*zeta"])
def test_class_path_agrees_with_the_forced_row_path(src, tilted, picard):
    # the risk ladder's problems: the generators ignore the outer time and
    # the free term declares one class, or two after the past-independence
    # edit; declaring t as well sweeps every outer node on its own
    grid = build_grid(1.0, 16)
    ensemble = sample_ensemble(grid, 1024, seed=3)
    paths = tilt(ensemble, DriftSpec(r1=-0.3)) if tilted else Driver.from_ensemble(ensemble)
    generator = Generator.from_expression(src)
    config = SolverConfig(picard=picard, tol=1e-10)
    base = Terminal.from_expression("-0.7*wT")
    for terminal in (base, _head_edited(base, 8)):
        classes = solve_s(ProblemSpec(grid, generator, terminal), paths, config)
        rows = solve_s(ProblemSpec(grid, _declaring_t(generator), terminal), paths, config)
        assert classes.iterations == rows.iterations
        for got, ref in ((classes.y.values, rows.y.values),
                         (classes.z.base.coeffs, rows.z.base.coeffs)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("generator, terminal", [
    ("-t*y/s^2", "t*T*wT"),  # product-linear
    ("0.1*abs(y)", "0.7*wt"),
    ("0.1*abs(y) + 0*t", "0.7*wT"),
])
def test_outer_time_keeps_one_batch_of_every_row_per_level(batches, generator, terminal):
    # a generator that reads t, or a free term that reads wt, is swept as
    # today: one projection per level over rows 0..j, so its bits stay
    grid = build_grid(1.0, 8, 0.5)
    ensemble = sample_ensemble(grid, 256, seed=2)
    problem = ProblemSpec(grid, Generator.from_expression(generator),
                          Terminal.from_expression(terminal))
    solve_s(problem, ensemble)
    assert batches == [(j, j + 1) for j in range(grid.steps - 1, -1, -1)]


def test_class_path_projects_each_live_class_alone(batches):
    grid = build_grid(1.0, 8)
    ensemble = sample_ensemble(grid, 256, seed=2)
    terminal = _head_edited(Terminal.from_expression("wT"), 3)
    report = solve_s(ProblemSpec(grid, Generator.from_expression("0.1*abs(y)"), terminal),
                     ensemble)
    # the class of nodes 3..8 is live down to level 3, the class of 0..2 at every level
    both = [(j, 1) for j in range(7, 2, -1) for _ in range(2)]
    assert batches == both + [(2, 1), (1, 1), (0, 1)]
    # rows of one class share their kernel coefficients and their history
    coeffs = report.z.base.coeffs
    np.testing.assert_array_equal(coeffs[:3, 2], coeffs[:1, 2].repeat(3, 0))
    np.testing.assert_array_equal(coeffs[3:7, 6], coeffs[3:4, 6].repeat(4, 0))


def test_the_sweep_finds_the_runs_of_equal_rows():
    grid = build_grid(1.0, 8)
    ensemble = sample_ensemble(grid, 256, seed=2)
    generator = Generator.from_expression("0.1*abs(y)")
    edited = _head_edited(Terminal.from_expression("wT"), 3)
    assert _sweep_runs(ProblemSpec(grid, generator, edited), ensemble) == [0, 3]
    # the rows of one run are bitwise equal: -0.0 and 0.0 start two runs
    signed = Terminal(lambda grid, w: np.where(grid.nodes < 0.5, -0.0, 0.0)[:, None]
                      * np.ones(w.shape[0]), repeats=True)
    assert _sweep_runs(ProblemSpec(grid, generator, signed), ensemble) == [0, 4]


def test_a_hint_on_rows_that_all_differ_gives_the_row_path_bits(batches):
    grid = build_grid(1.0, 8, 0.5)
    ensemble = sample_ensemble(grid, 256, seed=2)
    generator = Generator.from_expression("0.1*abs(y) + 0.2*z")

    def distinct(grid, w):
        return grid.nodes[:, None] * w[:, -1]

    problems = [ProblemSpec(grid, generator, Terminal(distinct, repeats=hint))
                for hint in (True, False)]
    assert _sweep_runs(problems[0], ensemble) == list(range(grid.steps + 1))
    hinted, plain = (_solution_bits(solve_s(p, ensemble)) for p in problems)
    assert hinted == plain
    assert batches == 2 * [(j, j + 1) for j in range(grid.steps - 1, -1, -1)]


def test_a_hinted_raw_function_of_equal_rows_projects_one_row_per_level(batches):
    grid = build_grid(1.0, 8)
    ensemble = sample_ensemble(grid, 256, seed=2)
    generator = Generator.from_expression("0.1*abs(y)")

    def horizon(grid, w):
        return np.repeat(w[None, :, -1], len(grid), axis=0)

    report = solve_s(ProblemSpec(grid, generator, Terminal(horizon, repeats=True)), ensemble)
    assert batches == [(j, 1) for j in range(grid.steps - 1, -1, -1)]
    # the bits of the expression that hints the same run
    expression = solve_s(ProblemSpec(grid, generator, Terminal.from_expression("wT")),
                         ensemble)
    assert _solution_bits(report) == _solution_bits(expression)


@pytest.mark.parametrize("capped", [
    Terminal.from_expression("min(t,0.9)*wT"),
    Terminal(lambda grid, w: np.minimum(grid.nodes, 0.75)[:, None] * w[:, -1]),
])
def test_a_capped_free_term_keeps_one_batch_per_level(batches, capped):
    # its rows repeat after the cap, but it gives no hint, so no row is
    # compared and each level projects every row at once
    grid = build_grid(1.0, 8)
    ensemble = sample_ensemble(grid, 256, seed=2)
    problem = ProblemSpec(grid, Generator.from_expression("0.1*y"), capped)
    solve_s(problem, ensemble)
    assert batches == [(j, j + 1) for j in range(grid.steps - 1, -1, -1)]
    assert _sweep_runs(problem, ensemble) == list(range(grid.steps + 1))


def test_the_mirrored_martingale_column_keeps_the_row_path(batches):
    # zeta(i, j) reads the design of row i's own node, so the rows differ
    grid = build_grid(1.0, 4)
    ensemble = sample_ensemble(grid, 64, seed=1)
    problem = ProblemSpec(grid, Generator.from_expression("0.1*y + 0.1*zeta"),
                          Terminal.from_expression("wT"))
    solve_m(problem, ensemble)
    assert (3, 4) in batches  # the top level of a sweep, all four rows in one batch
    assert _sweep_runs(problem, ensemble, "m") == [0, 1, 2, 3, 4]
    # the symmetric and the Picard mirror read the kernel's class rows
    assert _sweep_runs(problem, ensemble, "s") == [0]
    assert _sweep_runs(problem, ensemble, "picard") == [0]


def _block_cases():
    case = get_case("product-linear")
    grid = case.grid(16)
    ensemble = sample_ensemble(grid, 1024, seed=5)
    picard = SolverConfig(picard=True, tol=1e-8)

    def problem(generator, terminal=case.terminal_src, g=grid):
        return ProblemSpec(g, Generator.from_expression(generator),
                           Terminal.from_expression(terminal))

    bisect_grid = build_grid(1.0, 16)
    return {
        # the row path, with kernel rows and the transposed outer-node paths
        "rows": lambda: solve_s(problem("-t*y/s^2 + 0.3*z*sin(wt)"), ensemble),
        "picard": lambda: solve_s(problem("-t*y/s^2 + 0.1*zeta"), ensemble, picard),
        "zeta": lambda: solve_m(problem("-t*y/s^2 + 0.1*zeta"), ensemble),
        "bisected": lambda: solve_s(problem("(5+t)*y", "t*wT", bisect_grid),
                                    sample_ensemble(bisect_grid, 1024, seed=5), picard),
    }


@pytest.mark.parametrize("name", ["rows", "picard", "zeta", "bisected"])
def test_row_blocks_do_not_move_a_bit(monkeypatch, name):
    # the off-diagonal update is elementwise and row-independent, so a
    # 1-row block, a 3-row block (a budget that is no multiple of the
    # paths) and one block of every row give the same solve
    solve = _block_cases()[name]
    m = 1024
    results = []
    for budget in (m, 3 * m + 7, 1 << 40):
        monkeypatch.setattr(solver, "_BLOCK_VALUES", budget)
        report = solve()
        results.append(_solution_bits(report))
    if name == "bisected":
        assert report.iterations - len(report.contraction_ratios) > 1
    for other in results[:2]:
        assert other == results[2]


def test_a_one_pass_solve_m_keeps_no_rows_by_paths_buffer():
    # beside the iterate (lam and y, two (steps + 1) x paths fields) a
    # level holds only block-sized buffers: 2.64 fields above the start at
    # this size, where each (rows x paths) buffer would add about one
    case = get_case("product-linear")
    n, m = 64, 16384
    grid = case.grid(n)
    ensemble = sample_ensemble(grid, m, seed=1)
    field = (n + 1) * m * 8
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_m(case.problem(grid), ensemble)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / field < 3.25, f"{(peak - base) / field:.2f} fields above the start"


def test_the_zeta_sweep_projects_each_node_twice_and_fills_no_operand_per_cell(
        pl_small, monkeypatch):
    # each level projects its rows and fits its martingale rows; the
    # mirrored rows come from two products per cell and the H each design
    # formed when built, so a node's operand is filled at its own level alone
    case, grid, ensemble = pl_small
    calls = {"project": 0, "operand": 0}
    for name in calls:
        method = getattr(NodeDesign, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(NodeDesign, name, counted)
    n = grid.steps
    solve_m(_zeta_problem(case, grid, "-t*y/s^2 + 0.1*zeta"), ensemble)
    assert calls == {"project": 2 * n, "operand": n}
