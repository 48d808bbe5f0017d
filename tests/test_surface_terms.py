"""Kernel statistics from coefficients against the per-path formulas.

A kernel cell reads X_j c, so its path mean, mean square, variance and
error against a reference are forms in c with the moments of column j
(``bsvie.norms.column_moments``).  The per-path numpy expressions they
replace live here as oracles.  The forms agree with them to rounding,
not bitwise: to 1e-13 relative, a cell's mean and standard error on
the cell's own scale (its root mean square, and that over sqrt(M)).  What
stays bitwise is checked bitwise: the per-path helpers that ``Y``'s
tables still use, a reference table padded with zero columns, and the
CLI's figures against the package's own functions.
"""

import csv
import hashlib
import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from bsvie import (
    ReferenceFields,
    SurfaceField,
    SymmetricSurface,
    build_grid,
    s2_norm,
    sample_ensemble,
)
from bsvie.analytic import error_metrics, get_case, kernel_errors, reference_fields
from bsvie.cli import _mean_stderr, _surface_rows, main
from bsvie.fields import region_cells
from bsvie.norms import cell_forms, column_moments, mean_square, triangle_norm
from bsvie.solver import solve_adapted, solve_m, solve_s

SOLVERS = {"s": solve_s, "m": solve_m, "adapted": solve_adapted}
REL = 1e-13


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


# -- oracles: the per-path formulas ------------------------------------------


def oracle_mean(vals):
    return float(vals.mean())


def oracle_stderr(vals):
    m = vals.shape[0]
    return float(vals.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0


def oracle_mean_square(v):
    return float(np.mean(v**2))


def oracle_err_term(num, c):
    return float(np.mean((num - np.full(num.shape[0], c)) ** 2))


def oracle_ref_term(c, m):
    return float(np.mean(np.full(m, c) ** 2))


def _cells():
    """(name, values) cells that the helpers and forms must read like the oracles."""
    rng = np.random.default_rng(7)
    out = [(f"random-{m}", rng.standard_normal(m) * 3.0 + 0.5)
           for m in (1, 2, 3, 4097, 16384)]
    out.append(("constant", np.full(4097, 0.1)))
    negzero = rng.standard_normal(4097)
    negzero[::3] = -0.0
    out.append(("negative-zero", negzero))
    out.append(("all-negative-zero", np.full(5, -0.0)))
    table = rng.standard_normal((4097, 65))
    out.append(("strided-column", table[:, 17]))
    return out


CELLS = _cells()


def close_mean(got, vals) -> bool:
    """A mean to REL of its cell's root mean square: a mean near zero has no digits of its own."""
    return abs(got - oracle_mean(vals)) <= REL * math.sqrt(oracle_mean_square(vals))


def close_stderr(got, vals) -> bool:
    """A stderr to REL of itself, or of its cell's scale rms / sqrt(M) when that is larger.

    A constant cell's stderr is exactly 0.0 from its coefficients, where
    the path formula leaves rounding residue.
    """
    scale = math.sqrt(oracle_mean_square(vals) / vals.shape[0])
    want = oracle_stderr(vals)
    return abs(got - want) <= REL * max(want, scale)


def _identity_kernel(vals):
    """A two-step kernel whose nine cells read ``vals``: X [0, 1] on the state ``vals``."""
    grid = build_grid(1.0, 2)
    coeffs = np.zeros((3, 3, 2))
    coeffs[:, :, 1] = 1.0
    return SurfaceField(grid, np.stack([vals] * 3, axis=1), coeffs, region="full")


@pytest.mark.parametrize("vals", [v for _, v in CELLS], ids=[n for n, _ in CELLS])
def test_mean_and_stderr_have_the_bits_of_mean_and_std(vals):
    before = vals.copy()
    mean, stderr = _mean_stderr(vals)
    assert bits(mean) == bits(oracle_mean(vals))
    assert bits(stderr) == bits(oracle_stderr(vals))
    assert vals.tobytes() == before.tobytes()


@pytest.mark.parametrize("vals", [v for _, v in CELLS], ids=[n for n, _ in CELLS])
def test_coefficient_mean_and_stderr_match_the_path_formulas(vals):
    z = _identity_kernel(vals)
    np.testing.assert_array_equal(z.at(1, 0), vals)
    grams, centred = column_moments(z.state, 2)
    rows = list(_surface_rows(z, grams, centred, z.grid.nodes))
    assert len(rows) == 9
    # the forms round on the scale of the values: on a constant state the
    # chunked mean is off by 6.7e-16, so the centred column is not exactly
    # zero and the stderr reads 1.0e-17 where the path formula reads 0.0
    for *_, mean, stderr in rows:
        assert close_mean(mean, vals), (mean, oracle_mean(vals))
        assert close_stderr(stderr, vals), (stderr, oracle_stderr(vals))


@pytest.mark.parametrize("vals", [v for _, v in CELLS], ids=[n for n, _ in CELLS])
def test_mean_square_has_the_bits_of_np_mean(vals):
    before = vals.copy()
    assert bits(mean_square(vals)) == bits(oracle_mean_square(vals))
    assert vals.tobytes() == before.tobytes()
    scratch = vals.copy()
    assert bits(mean_square(scratch, out=scratch)) == bits(oracle_mean_square(vals))


@pytest.mark.parametrize("c", [0.3, -0.0, 0.0, 2.5e-3])
@pytest.mark.parametrize("vals", [v for _, v in CELLS], ids=[n for n, _ in CELLS])
def test_error_terms_have_the_bits_of_a_full_reference(vals, c):
    # a cell that reads ``vals`` against the constant c: the error term is
    # d^T G d with d = [-c, 1], the reference term c^2 G_00
    before = vals.copy()
    z = _identity_kernel(vals)
    ref = np.zeros_like(z.coeffs)
    ref[:, :, 0] = c
    grams, _ = column_moments(z.state, 2)
    err_term = float(cell_forms(z.coeffs - ref, grams)[1, 0])
    ref_term = float(cell_forms(ref, grams)[1, 0])
    assert err_term == pytest.approx(oracle_err_term(vals, c), rel=REL, abs=0.0)
    assert ref_term == pytest.approx(oracle_ref_term(c, vals.shape[0]), rel=REL, abs=0.0)
    assert vals.tobytes() == before.tobytes()


def test_zero_coefficients_read_exact_zeros():
    # a cell with zero coefficients has mean, stderr, mean square and
    # error exactly 0.0, whatever its column's state
    z = _identity_kernel(np.random.default_rng(2).standard_normal(4097))
    zero = SurfaceField(z.grid, z.state, np.zeros_like(z.coeffs), region="full")
    grams, centred = column_moments(z.state, 2)
    for *_, mean, stderr in _surface_rows(zero, grams, centred, z.grid.nodes):
        assert bits(mean) == bits(0.0) and bits(stderr) == bits(0.0)
    assert not np.any(cell_forms(zero.coeffs, grams))
    assert not np.any(cell_forms(zero.coeffs - zero.coeffs, grams))


# -- error metrics -----------------------------------------------------------


def _oracle_region(z_num, z_ref, cells, dt2):
    err_sq = ref_sq = 0.0
    for i, j in cells:
        ref = z_ref.at(i, j)
        err_sq += float(np.mean((z_num.at(i, j) - ref) ** 2)) * dt2
        ref_sq += float(np.mean(ref**2)) * dt2
    err, ref = math.sqrt(err_sq), math.sqrt(ref_sq)
    return err / ref if ref > 1e-12 else err


def oracle_error_metrics(report, reference):
    """``ErrorReport`` fields from ``np.mean`` over each cell read alone."""
    z_ref = reference.z_m if report.mode == "m-solution" else reference.z_s
    y, y_ref = report.y.values, reference.y.values
    grid = reference.y.grid
    n, dt, dt2 = grid.steps, grid.dt, grid.dt**2
    err_sq = float(sum(np.mean((y[:, i] - y_ref[:, i]) ** 2) * dt for i in range(n)))
    ref_sq = float(sum(np.mean(y_ref[:, i] ** 2) * dt for i in range(n)))
    err, ref = math.sqrt(err_sq), math.sqrt(ref_sq)
    lower = None
    if report.z.region == z_ref.region == "full":
        lower = _oracle_region(report.z, z_ref, region_cells("lower", n), dt2)
    return {
        "y": err / ref if ref > 1e-12 else err,
        "z_upper": _oracle_region(report.z, z_ref, region_cells("upper", n), dt2),
        "z_lower": lower,
        "z_diag": _oracle_region(report.z, z_ref, [(i, i) for i in range(n)], dt2),
    }


def _as_dict(errors):
    return {"y": errors.y_error, "z_upper": errors.z_upper_error,
            "z_lower": errors.z_lower_error, "z_diag": errors.z_diag_error}


def assert_errors_match(errors: dict, oracle: dict) -> None:
    # y has no coefficients: its error keeps the per-path bits
    assert bits(errors["y"]) == bits(oracle["y"])
    assert (errors["z_lower"] is None) == (oracle["z_lower"] is None)
    for key in ("z_upper", "z_lower", "z_diag"):
        if oracle[key] is not None:
            assert errors[key] == pytest.approx(oracle[key], rel=REL, abs=0.0), key


def _padded_twin(z, k):
    """The same kernel with its table widened to k columns by zeros."""
    coeffs = np.zeros((*z.coeffs.shape[:2], k))
    coeffs[:, :, : z.coeffs.shape[2]] = z.coeffs
    if isinstance(z, SymmetricSurface):
        return SymmetricSurface(SurfaceField(z.grid, z.state, coeffs, region="upper"))
    return SurfaceField(z.grid, z.state, coeffs, region=z.region)


@pytest.mark.parametrize("mode", ["s", "m"])
def test_a_constant_reference_read_as_a_number_keeps_the_bits_of_a_per_path_one(mode):
    # a constant reference is column 0 of a 2-column table; widened to the
    # solve's 4 columns it gives the same bits, because the difference is
    # padded to one width anyway
    case = get_case("product-linear")
    grid = case.grid(16)
    ensemble = sample_ensemble(grid, 2048, seed=4)
    report = SOLVERS[mode](case.problem(grid), ensemble)
    reference = reference_fields(case, ensemble)
    assert not np.any(reference.z_m.coeffs[:, :, 1])
    twin = ReferenceFields(y=reference.y, z_s=_padded_twin(reference.z_s, 4),
                           z_m=_padded_twin(reference.z_m, 4))
    errors = _as_dict(error_metrics(report, reference))
    assert repr(errors) == repr(_as_dict(error_metrics(report, twin)))
    assert_errors_match(errors, oracle_error_metrics(report, reference))


@pytest.mark.parametrize("mode", ["s", "m"])
def test_a_per_path_reference_keeps_its_bits(mode):
    # squared-driver's kernel 2 t_i W(t_j) varies by path: column 1 of its table
    case = get_case("squared-driver")
    grid = case.grid(16)
    ensemble = sample_ensemble(grid, 2048, seed=4)
    report = SOLVERS[mode](case.problem(grid), ensemble)
    reference = reference_fields(case, ensemble)
    assert np.any(reference.z_m.coeffs[:, :, 1])
    assert_errors_match(_as_dict(error_metrics(report, reference)),
                        oracle_error_metrics(report, reference))


@pytest.mark.parametrize("mode", ["s", "m"])
def test_equal_upper_tables_give_equal_upper_figures_bitwise(mode):
    # the s- and m-solutions share their upper table bit for bit, so the
    # norm and the upper and diagonal errors agree bit for bit
    case = get_case("shifted-product")
    grid = case.grid(16)
    ensemble = sample_ensemble(grid, 2048, seed=4)
    s_report = solve_s(case.problem(grid), ensemble)
    m_report = solve_m(case.problem(grid), ensemble)
    assert np.array_equal(np.triu(s_report.z.coeffs.transpose(2, 0, 1)),
                          np.triu(m_report.z.coeffs.transpose(2, 0, 1)))
    assert bits(s2_norm(s_report.y, s_report.z)) == bits(s2_norm(m_report.y, m_report.z))
    reference = reference_fields(case, ensemble)
    s_err, m_err = error_metrics(s_report, reference), error_metrics(m_report, reference)
    assert bits(s_err.z_upper_error) == bits(m_err.z_upper_error)
    assert bits(s_err.z_diag_error) == bits(m_err.z_diag_error)


# -- the CLI's tables ----------------------------------------------------------


def _csv_bytes(header, rows) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(x) if isinstance(x, float) else str(x) for x in row])
    return out.getvalue().encode("utf-8")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case_id, mode", [
    ("product-linear", "m"), ("product-linear", "s"), ("product-linear", "adapted"),
    ("squared-driver", "m"),
])
def test_cli_tables_are_the_bytes_of_the_oracle_formulas(tmp_path, capsys, case_id, mode):
    steps, paths = 16, 2048
    assert main(["solve", "--case", case_id, "--mode", mode, "--n", str(steps),
                 "--m", str(paths), "--output.dir", str(tmp_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    with open(f"{run_dir}/manifest.json", encoding="utf-8") as fh:
        tables = json.load(fh)["tables"]

    case = get_case(case_id)
    grid = case.grid(steps)
    ensemble = sample_ensemble(grid, paths, seed=1)
    report = SOLVERS[mode](case.problem(grid), ensemble)
    reference = reference_fields(case, ensemble)
    nodes = grid.nodes
    y = report.y.values
    y_rows = [(i, float(t), oracle_mean(y[:, i]), oracle_stderr(y[:, i]),
               float(np.sqrt(np.mean(y[:, i] ** 2)))) for i, t in enumerate(nodes)]
    assert tables["y_table.csv"] == _sha(_csv_bytes(["i", "t", "mean", "stderr", "l2"], y_rows))

    z = report.z
    with open(f"{run_dir}/z_surface.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    cells = region_cells(z.region, steps + 1)
    assert [(int(r[0]), int(r[1])) for r in rows] == cells
    for (i, j), row in zip(cells, rows):
        vals = z.at(i, j)
        assert row[2:4] == [repr(float(nodes[i])), repr(float(nodes[j]))]
        assert close_mean(float(row[4]), vals), (i, j)
        assert close_stderr(float(row[5]), vals), (i, j)

    with open(f"{run_dir}/errors.json", encoding="utf-8") as fh:
        errors = json.load(fh)
    assert_errors_match(errors, oracle_error_metrics(report, reference))
    # the CLI's shared moments give the figures of the standalone functions
    data = json.dumps(_as_dict(error_metrics(report, reference)), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    assert tables["errors.json"] == _sha(data.encode("utf-8"))
    with open(f"{run_dir}/summary.json", encoding="utf-8") as fh:
        assert json.load(fh)["s2_norm"] == s2_norm(report.y, report.z)


# -- memory --------------------------------------------------------------------


def test_one_pass_holds_no_more_than_the_parent_formulas_and_keeps_no_buffer():
    case = get_case("product-linear")
    grid = case.grid(16)
    m = 4096
    ensemble = sample_ensemble(grid, m, seed=1)
    report = solve_m(case.problem(grid), ensemble)
    reference = reference_fields(case, ensemble)

    def statistics():
        grams, centred = column_moments(report.z.state, report.z.coeffs.shape[2])
        return (triangle_norm(report.y, report.z, grams),
                list(_surface_rows(report.z, grams, centred, grid.nodes)),
                kernel_errors(report, reference, grams))

    statistics()
    tracemalloc.start()
    try:
        totals = statistics()
        peak = tracemalloc.get_traced_memory()[1]
        left = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # With np.mean, std and a np.full reference per cell, this test read
    # a peak of 377,896 bytes (11.53 buffers of 4096 float64s) under
    # Python 3.11 and numpy 2.4; the fused per-path terms read 318,672
    # (9.73).  The moments hold one design of 4 columns at a time.
    assert peak <= 377_896, f"{peak} bytes, {peak / (8 * m):.2f} buffers"
    kept = [trace.size for trace in left.traces if trace.size >= 8 * m]
    assert not kept, f"{kept} bytes of path-sized buffers outlive the statistics"
    assert len(totals) == 3
