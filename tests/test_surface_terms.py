"""The surface pass's per-cell terms against the numpy formulas they fuse.

Each consumer of the pass reduces a cell's path values with fewer sweeps
and temporaries than the plain numpy expression, but with the same
operations in the same order.  The plain expressions live here as
oracles, and every figure must carry their bits: per term, through
``error_metrics``, and as the bytes of the CLI's tables.
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

from bsvie import AdaptedField, FuncSurface, ReferenceFields, build_grid, sample_ensemble
from bsvie.analytic import error_metrics, error_sum, get_case, reference_fields
from bsvie.cli import _mean_stderr, _surface_sum, main
from bsvie.fields import region_cells, surface_pass
from bsvie.norms import mean_square, s2_sum
from bsvie.solver import SolveReport, solve_adapted, solve_m, solve_s

SOLVERS = {"s": solve_s, "m": solve_m, "adapted": solve_adapted}


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


# -- oracles: the formulas the fused terms replace ---------------------------


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
    """(name, values) cells that the fused terms must read like the oracles."""
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


@pytest.mark.parametrize("vals", [v for _, v in CELLS], ids=[n for n, _ in CELLS])
def test_mean_and_stderr_have_the_bits_of_mean_and_std(vals):
    before = vals.copy()
    mean, stderr = _mean_stderr(vals)
    assert bits(mean) == bits(oracle_mean(vals))
    assert bits(stderr) == bits(oracle_stderr(vals))
    assert vals.tobytes() == before.tobytes()


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
    # the consumer's own term, with the reference cell read as one number
    m = vals.shape[0]
    grid = build_grid(1.0, 2)
    num = FuncSurface(grid, m, lambda i, j: vals)
    ref = FuncSurface(grid, m, lambda i, j: c)
    y = AdaptedField(grid, np.zeros((m, len(grid))))
    report = SolveReport("m-solution", y, num, iterations=1, converged=True)
    consumer = error_sum(report, ReferenceFields(y=y, z_s=ref, z_m=ref))
    before = vals.copy()
    err_term, ref_term = consumer.term((0, 1), vals)
    dt2 = grid.dt**2
    assert bits(err_term) == bits(oracle_err_term(vals, c) * dt2)
    assert bits(ref_term) == bits(oracle_ref_term(c, m) * dt2)
    assert vals.tobytes() == before.tobytes()


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


def _per_path_twin(z, n_paths):
    """The same constant kernel, given per path as ``np.full`` arrays."""
    return FuncSurface(z.grid, n_paths, lambda i, j: np.full(n_paths, float(z.value(i, j))))


@pytest.mark.parametrize("mode", ["s", "m"])
def test_a_constant_reference_read_as_a_number_keeps_the_bits_of_a_per_path_one(mode):
    case = get_case("product-linear")
    grid = case.grid(16)
    ensemble = sample_ensemble(grid, 2048, seed=4)
    report = SOLVERS[mode](case.problem(grid), ensemble)
    reference = reference_fields(case, ensemble)
    assert reference.z_m.value(3, 1).ndim == 0
    twin = ReferenceFields(y=reference.y,
                           z_s=_per_path_twin(reference.z_s, ensemble.n_paths),
                           z_m=_per_path_twin(reference.z_m, ensemble.n_paths))
    scalar = _as_dict(error_metrics(report, reference))
    assert repr(scalar) == repr(_as_dict(error_metrics(report, twin)))
    assert repr(scalar) == repr(oracle_error_metrics(report, reference))


@pytest.mark.parametrize("mode", ["s", "m"])
def test_a_per_path_reference_keeps_its_bits(mode):
    case = get_case("squared-driver")
    grid = case.grid(16)
    ensemble = sample_ensemble(grid, 2048, seed=4)
    report = SOLVERS[mode](case.problem(grid), ensemble)
    reference = reference_fields(case, ensemble)
    assert reference.z_m.value(3, 1).shape == (2048,)
    assert repr(_as_dict(error_metrics(report, reference))) == repr(
        oracle_error_metrics(report, reference))


# -- the CLI's bytes -----------------------------------------------------------


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
    nodes = grid.nodes
    y = report.y.values
    y_rows = [(i, float(t), oracle_mean(y[:, i]), oracle_stderr(y[:, i]),
               float(np.sqrt(np.mean(y[:, i] ** 2)))) for i, t in enumerate(nodes)]
    assert tables["y_table.csv"] == _sha(_csv_bytes(["i", "t", "mean", "stderr", "l2"], y_rows))

    z = report.z
    z_rows = []
    for i, j in region_cells(z.region, steps + 1):
        vals = z.at(i, j)
        z_rows.append((i, j, float(nodes[i]), float(nodes[j]),
                       oracle_mean(vals), oracle_stderr(vals)))
    assert tables["z_surface.csv"] == _sha(
        _csv_bytes(["i", "j", "t_i", "t_j", "mean", "stderr"], z_rows))

    errors = oracle_error_metrics(report, reference_fields(case, ensemble))
    assert (errors["z_lower"] is None) == (mode == "adapted")
    data = json.dumps(errors, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert tables["errors.json"] == _sha(data.encode("utf-8"))


# -- memory --------------------------------------------------------------------


def test_one_pass_holds_no_more_than_the_parent_formulas_and_keeps_no_buffer():
    case = get_case("product-linear")
    grid = case.grid(16)
    m = 4096
    ensemble = sample_ensemble(grid, m, seed=1)
    report = solve_m(case.problem(grid), ensemble)
    reference = reference_fields(case, ensemble)

    def consumers():
        return [s2_sum(report.y, report.z), _surface_sum(report.z, grid.nodes, grid.steps),
                error_sum(report, reference)]

    surface_pass(report.z, consumers())  # the first pass fills one-off caches
    sums = consumers()
    tracemalloc.start()
    try:
        totals = surface_pass(report.z, sums)
        peak = tracemalloc.get_traced_memory()[1]
        left = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # With np.mean, std and a np.full reference per cell, this test read
    # a peak of 377,896 bytes (11.53 buffers of 4096 float64s) under
    # Python 3.11 and numpy 2.4; the fused terms read 318,672 (9.73).
    assert peak <= 377_896, f"{peak} bytes, {peak / (8 * m):.2f} buffers"
    kept = [trace.size for trace in left.traces if trace.size >= 8 * m]
    assert not kept, f"{kept} bytes of path-sized buffers outlive the pass"
    assert len(totals) == 3
