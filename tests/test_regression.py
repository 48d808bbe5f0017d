import numpy as np
import pytest

from bsvie import (
    BasisSpec,
    DegenerateEnsembleError,
    DriftSpec,
    Driver,
    NodeDesign,
    PathEnsemble,
    RegressionError,
    build_grid,
    design_matrix,
    sample_ensemble,
    tilt,
)
from bsvie import regression
from test_solver import martingale_coeffs

NODE = 8


def _cubic(w):
    return 2.0 + 3.0 * w - 0.5 * w**2 + 0.25 * w**3


def node_design(ensemble, node, basis=BasisSpec(), weights=None, state=None):
    """The regression node ``node`` of the ensemble, on its own state unless given one."""
    state = ensemble.values[:, node] if state is None else state
    return NodeDesign(node, state, ensemble.increments[:, node], ensemble.grid.dt, basis, weights)


def cond_expect(target, ensemble, node):
    """Fitted node projection of one target (M,) or a batch (rows, M)."""
    design = node_design(ensemble, node)
    fitted = design.evaluate(design.fit(np.atleast_2d(target)))
    return fitted[0] if np.ndim(target) == 1 else fitted


def martingale_coeff(target, ensemble, node):
    """Projection of target * dW_node / dt: the one-step integrand."""
    return cond_expect(target * (ensemble.increments[:, node] / ensemble.grid.dt), ensemble, node)


def test_basis_spec_validation():
    assert BasisSpec().size == 4
    assert BasisSpec(degree=0).size == 1
    with pytest.raises(ValueError):
        BasisSpec(degree=-1)
    with pytest.raises(ValueError):
        BasisSpec(ridge=-1e-3)
    for ridge in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"ridge must be nonnegative and finite, got {ridge}"):
            BasisSpec(ridge=ridge)


def test_in_span_target_reproduced(unit_ensemble):
    w = unit_ensemble.values[:, NODE]
    target = _cubic(w)
    fitted = cond_expect(target, unit_ensemble, NODE)
    np.testing.assert_allclose(fitted, target, rtol=1e-7, atol=1e-9)


def test_sample_mean_preserved(unit_ensemble):
    target = unit_ensemble.values[:, -1] ** 3 + 1.0
    fitted = cond_expect(target, unit_ensemble, NODE)
    assert np.mean(fitted) == pytest.approx(np.mean(target), rel=1e-12)


def test_projection_is_linear(unit_ensemble):
    a = unit_ensemble.values[:, -1] ** 2
    b = np.sin(unit_ensemble.values[:, 12])
    combo = cond_expect(2.0 * a - 3.0 * b, unit_ensemble, NODE)
    parts = 2.0 * cond_expect(a, unit_ensemble, NODE) - 3.0 * cond_expect(
        b, unit_ensemble, NODE
    )
    np.testing.assert_allclose(combo, parts, rtol=1e-9, atol=1e-12)
    m_combo = martingale_coeff(2.0 * a - 3.0 * b, unit_ensemble, NODE)
    m_parts = 2.0 * martingale_coeff(a, unit_ensemble, NODE) - 3.0 * martingale_coeff(
        b, unit_ensemble, NODE
    )
    np.testing.assert_allclose(m_combo, m_parts, rtol=1e-9, atol=1e-10)


def test_coefficients_match_normal_equations_oracle(unit_ensemble):
    # independent oracle: assemble and solve the ridge-regularised
    # normal equations directly
    ens = unit_ensemble
    target = ens.values[:, -1] ** 2
    basis = BasisSpec(degree=3, ridge=1e-10)
    x = design_matrix(ens.values[:, NODE], 3)
    gram = x.T @ x / ens.n_paths
    penalty = np.eye(4)
    penalty[0, 0] = 0.0
    expected = np.linalg.solve(gram + basis.ridge * penalty, x.T @ target / ens.n_paths)
    design = node_design(ens, NODE, basis)
    np.testing.assert_allclose(design.fit(target[None, :])[0], expected, rtol=1e-9)
    assert np.isfinite(design.condition)


def test_projection_idempotent(unit_ensemble):
    target = unit_ensemble.values[:, -1] ** 3
    once = cond_expect(target, unit_ensemble, NODE)
    twice = cond_expect(once, unit_ensemble, NODE)
    np.testing.assert_allclose(twice, once, rtol=1e-8, atol=1e-10)


def test_tower_collapses_for_in_span_inner_target(unit_ensemble):
    # the inner projection returns its argument, so the chained estimate
    # agrees with the direct one
    inner_node, outer_node = 12, 4
    target = _cubic(unit_ensemble.values[:, inner_node])
    chained = cond_expect(
        cond_expect(target, unit_ensemble, inner_node), unit_ensemble, outer_node
    )
    direct = cond_expect(target, unit_ensemble, outer_node)
    np.testing.assert_allclose(chained, direct, rtol=1e-6, atol=1e-8)


def test_martingale_property_error_shrinks_with_paths(unit_grid):
    errors = []
    for m in (4096, 16384):
        ens = sample_ensemble(unit_grid, m, seed=21)
        fitted = cond_expect(ens.values[:, -1], ens, NODE)
        ref = ens.values[:, NODE]
        errors.append(
            float(np.sqrt(np.mean((fitted - ref) ** 2) / np.mean(ref**2)))
        )
    assert errors[0] < 0.10
    assert errors[1] < errors[0]


def test_martingale_coeff_recovers_square_integrand(unit_grid):
    # for W(t_{k+1})^2 the representation integrand over the next step
    # is 2 W(t_k), a member of the basis
    ens = sample_ensemble(unit_grid, 65536, seed=22)
    driver = Driver.from_ensemble(ens)
    coeffs = martingale_coeffs(driver._node_designs(BasisSpec()), ens.values**2)
    fitted = design_matrix(ens.values[:, NODE], 3) @ coeffs[NODE + 1, NODE]
    ref = 2.0 * ens.values[:, NODE]
    err = float(np.sqrt(np.mean((fitted - ref) ** 2)))
    assert err < 0.15


def test_weighted_design_reproduces_in_span_target(unit_ensemble):
    ens = unit_ensemble
    w = ens.values[:, NODE]
    weights = np.exp(0.1 * w)
    design = node_design(ens, NODE, weights=weights)
    target = _cubic(w)
    fitted = design.evaluate(design.fit(target[None, :]))
    np.testing.assert_allclose(fitted[0], target, rtol=1e-7, atol=1e-9)


def test_weight_shape_mismatch_rejected(unit_ensemble):
    with pytest.raises(ValueError):
        node_design(unit_ensemble, NODE, weights=np.ones(3))


def test_degenerate_state_raises(unit_ensemble):
    state = np.full(unit_ensemble.n_paths, 1e8)
    with pytest.raises(DegenerateEnsembleError, match=rf"^node {NODE}: normal equations"):
        node_design(unit_ensemble, NODE, state=state)


def test_origin_node_collapses_to_plain_mean(unit_ensemble):
    # the state is identically zero there; only the constant feature
    # survives, so the fit is the sample mean
    target = unit_ensemble.values[:, -1] ** 2
    fitted = cond_expect(target, unit_ensemble, 0)
    np.testing.assert_allclose(fitted, np.mean(target), rtol=1e-9)


def test_non_finite_target_rejected(unit_ensemble):
    target = unit_ensemble.values[:, -1].copy()
    target[0] = np.nan
    with pytest.raises(RegressionError, match=rf"^node {NODE}: non-finite regression targets"):
        cond_expect(target, unit_ensemble, NODE)


def test_too_few_paths_rejected(unit_grid):
    tiny = sample_ensemble(unit_grid, 3, seed=1)
    with pytest.raises(ValueError):
        node_design(tiny, NODE, BasisSpec(degree=3))


def test_target_shape_validation(unit_ensemble):
    design = node_design(unit_ensemble, NODE)
    with pytest.raises(ValueError):
        design.fit(np.ones((1, 7)))


def test_batched_targets_match_single_calls(unit_ensemble):
    rows = np.stack([unit_ensemble.values[:, -1], unit_ensemble.values[:, -1] ** 2])
    batched = cond_expect(rows, unit_ensemble, NODE)
    assert batched.shape == rows.shape
    np.testing.assert_allclose(
        batched[0], cond_expect(rows[0], unit_ensemble, NODE), rtol=1e-12, atol=1e-13
    )
    np.testing.assert_allclose(
        batched[1], cond_expect(rows[1], unit_ensemble, NODE), rtol=1e-12, atol=1e-13
    )


def _three_fits(design, rows):
    """The fit/evaluate chain that NodeDesign.project computes in one pass."""
    increments, dt = design.increments, design.dt
    ce_plain = design.evaluate(design.fit(rows))
    bz = design.fit((rows - ce_plain) * (increments / dt))
    c = design.fit(rows - design.evaluate(bz) * increments)
    return c, bz


@pytest.mark.parametrize("tilted", [False, True])
def test_project_matches_the_three_fit_sequence(unit_ensemble, tilted):
    ens = unit_ensemble
    driver = tilt(ens, DriftSpec(r1=0.5)) if tilted else Driver.from_ensemble(ens)
    design = driver._node_designs(BasisSpec())[NODE]
    assert (design.weights is None) != tilted
    w = ens.values
    rows = np.stack([
        w[:, -1], w[:, 12] ** 2, np.sin(3.0 * w[:, 15]), np.exp(0.3 * w[:, 10]),
        w[:, NODE + 1] * w[:, -1], np.full(ens.n_paths, 2.5),
    ])
    # the operand fill writes the caller's scratch in full
    scratch = np.full((2 * BasisSpec().size, ens.n_paths), np.nan)
    c, bz = design.project(rows, design.operand(scratch))
    c_ref, bz_ref = _three_fits(design, rows)
    assert c.shape == bz.shape == (rows.shape[0], BasisSpec().size)
    for new, ref in ((c, c_ref), (bz, bz_ref)):
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("tilted", [False, True])
def test_kernel_row_is_the_kernel_of_project(unit_ensemble, tilted):
    # one row through two products with X: project's kernel to rounding
    ens = unit_ensemble
    driver = tilt(ens, DriftSpec(r1=0.5)) if tilted else Driver.from_ensemble(ens)
    design = driver._node_designs(BasisSpec())[NODE]
    fresh = driver._node_design(BasisSpec(), NODE)
    row = np.sin(3.0 * ens.values[:, 15]) + ens.values[:, -1]
    yw = row if design.weights is None else row * design.weights
    yw2 = np.stack([yw, yw * design.increments])
    scratch = np.empty((2 * BasisSpec().size, ens.n_paths))
    got = design.kernel_row(yw2, np.empty(ens.n_paths))
    ref = fresh.evaluate(fresh.project(row[None], fresh.operand(scratch))[1])[0]
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_project_rejects_non_finite_rows(unit_ensemble):
    design = node_design(unit_ensemble, NODE)
    rows = np.ones((3, unit_ensemble.n_paths))
    rows[1, 7] = np.inf
    with pytest.raises(RegressionError, match=rf"^node {NODE}: non-finite regression targets$"):
        design.project(rows, design.operand(np.empty((2 * BasisSpec().size,
                                                      unit_ensemble.n_paths))))


def test_design_keeps_its_node_data_without_copies(unit_ensemble):
    driver = Driver.from_ensemble(unit_ensemble)
    for j, design in enumerate(driver._node_designs(BasisSpec())):
        assert design.node == j
        assert design.dt == unit_ensemble.grid.dt
        assert np.shares_memory(design.increments, driver.increments)
        np.testing.assert_array_equal(design.increments, driver.increments[:, j])


def test_a_tilted_driver_normalizes_its_weights_once(unit_ensemble):
    driver = tilt(unit_ensemble, DriftSpec(r1=0.5))
    designs = driver._node_designs(BasisSpec())
    assert all(d.weights is designs[0].weights for d in designs)
    np.testing.assert_array_equal(designs[0].weights,
                                  driver.weights / np.mean(driver.weights))


def test_kernel_product_is_formed_once_per_design(unit_ensemble, monkeypatch):
    # H = X^T diag(w dW) X / M depends on the node alone and is formed
    # with the design: two projections make one product of the rows each
    calls = []
    original = regression._chunked_ab

    def counted(a, b):
        calls.append(b.shape)
        return original(a, b)

    design = node_design(unit_ensemble, NODE)
    rows = np.stack([unit_ensemble.values[:, -1], unit_ensemble.values[:, -1] ** 2])
    scratch = design.operand(np.empty((2 * BasisSpec().size, unit_ensemble.n_paths)))
    monkeypatch.setattr(regression, "_chunked_ab", counted)
    first = design.project(rows, scratch)
    second = design.project(rows, scratch)
    assert len(calls) == 2
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("layout", ["node-major", "path-major"])
@pytest.mark.parametrize("tilted", [False, True])
@pytest.mark.parametrize("m", [3001, 16384, 40000])
def test_h_formed_with_the_design_has_the_bits_of_the_operand_product(m, tilted, layout):
    # H is formed from X w dW laid out (M, k) when the design is built; it
    # keeps the bits of the product with the operand's (k, M) rows, at one
    # path chunk, exactly one, and three (40000 paths)
    grid = build_grid(1.0, 4)
    ens = sample_ensemble(grid, m, seed=5)
    if layout == "path-major":
        ens = PathEnsemble(grid, m, ens.seed, ens.increments.copy(order="C"),
                           ens.values.copy(order="C"))
    driver = tilt(ens, DriftSpec(r1=0.5)) if tilted else Driver.from_ensemble(ens)
    k = BasisSpec().size
    xw2 = np.empty((2 * k, m))
    for design in driver._node_designs(BasisSpec()):
        operand = design.operand(xw2)
        assert design._h.tobytes() == (regression._chunked_ab(design.x, operand[k:].T)
                                       / m).tobytes(), design.node


@pytest.mark.parametrize("weighted", [False, True])
def test_gram_quadratic_form_is_the_path_mean_square(unit_ensemble, weighted):
    w = unit_ensemble.values[:, NODE]
    design = node_design(unit_ensemble, NODE, weights=np.exp(0.4 * w) if weighted else None)
    coeffs = np.random.default_rng(3).standard_normal((5, BasisSpec().size))
    quadratic = np.sum((coeffs @ design.gram) * coeffs, axis=1)
    mean_square = np.mean(design.evaluate(coeffs) ** 2, axis=1)
    np.testing.assert_allclose(quadratic, mean_square, rtol=1e-12, atol=0)
