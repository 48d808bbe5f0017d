"""Kernel figures from coefficient moments against a naive row-major cell loop.

Norms, error metrics and the CLI kernel table read a kernel through its
coefficients and one set of column moments, and read no cell's path
values.  Every figure they report must agree with reading each cell on
its own with ``z.at(i, j)`` in row-major order and taking numpy's path
means, to 1e-13 relative (a cell's mean and stderr on the cell's own
scale, its root mean square and that over sqrt(M)), and must carry the
same bits whether each reader forms its moments or all of them share
one set.  Floats are compared through ``repr``, which round-trips every
bit (``-0.0`` included).
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bsvie import SurfaceField, SymmetricSurface, sample_ensemble
from bsvie import fields, norms
from bsvie.analytic import error_metrics, get_case, kernel_errors, reference_fields
from bsvie.cli import _path_rows, _surface_rows, main
from bsvie.norms import column_moments, s2_norm, triangle_norm, y_l2, z_cells_l2
from bsvie.solver import solve_m, solve_s

REL = 1e-13

# at 8 steps a wrong summation order in the error metrics still gave the
# same bits; at 16 it does not
STEPS, PATHS = 16, 512


@pytest.fixture(scope="module")
def setup():
    case = get_case("product-linear")
    grid = case.grid(STEPS)
    ensemble = sample_ensemble(grid, PATHS, seed=1)
    return case, grid, ensemble, reference_fields(case, ensemble)


@pytest.fixture(scope="module", params=["s", "m"])
def report(request, setup):
    case, grid, ensemble, _ = setup
    solve = solve_s if request.param == "s" else solve_m
    return solve(case.problem(grid), ensemble)


def _naive_cells_l2(z, cells):
    if isinstance(z, SymmetricSurface):
        cells = [(min(i, j), max(i, j)) for i, j in cells]
    total = 0.0
    for i, j in sorted(cells):
        total += float(np.mean(z.at(i, j) ** 2)) * z.grid.dt**2
    return total


def _naive_region_error(z_num, z_ref, cells, dt2):
    err_sq = ref_sq = 0.0
    for i, j in cells:
        err_sq += float(np.mean((z_num.at(i, j) - z_ref.at(i, j)) ** 2)) * dt2
        ref_sq += float(np.mean(z_ref.at(i, j) ** 2)) * dt2
    err, ref = math.sqrt(err_sq), math.sqrt(ref_sq)
    return err / ref if ref > 1e-12 else err


def test_norms_match_row_major_reads(report):
    n = STEPS
    full = [(i, j) for i in range(n) for j in range(n)]
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    assert z_cells_l2(report.z, full) == pytest.approx(_naive_cells_l2(report.z, full), rel=REL)
    assert z_cells_l2(report.z, upper) == pytest.approx(_naive_cells_l2(report.z, upper),
                                                        rel=REL)
    naive_s2 = float(np.sqrt(y_l2(report.y) + _naive_cells_l2(report.z, upper)))
    assert s2_norm(report.y, report.z) == pytest.approx(naive_s2, rel=REL)


def test_error_metrics_match_row_major_reads(setup, report):
    _, grid, _, reference = setup
    z_ref = reference.z_m if report.mode == "m-solution" else reference.z_s
    n, dt2 = grid.steps, grid.dt**2
    errors = error_metrics(report, reference)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    lower = [(i, j) for i in range(1, n) for j in range(i)]
    diag = [(i, i) for i in range(n)]
    naive = [_naive_region_error(report.z, z_ref, cells, dt2) for cells in (upper, lower, diag)]
    got = [errors.z_upper_error, errors.z_lower_error, errors.z_diag_error]
    assert got == pytest.approx(naive, rel=REL)


def test_surface_rows_match_row_major_reads(setup, report):
    _, grid, _, _ = setup
    grams, centred = column_moments(report.z.state, report.z.coeffs.shape[2])
    rows = list(_surface_rows(report.z, grams, centred, grid.nodes))
    assert len(rows) == (STEPS + 1) ** 2
    for row, (i, j) in zip(rows, [(i, j) for i in range(STEPS + 1) for j in range(STEPS + 1)]):
        vals = report.z.at(i, j)
        stderr = float(vals.std(ddof=1) / np.sqrt(vals.shape[0]))
        assert row[:4] == (i, j, float(grid.nodes[i]), float(grid.nodes[j]))
        # both to REL on the cell's own scale: a constant cell's stderr is
        # exactly 0.0 from its coefficients, where the path formula leaves
        # rounding residue of up to 1.5e-17 at 512 paths
        rms = float(np.sqrt(np.mean(vals**2)))
        assert abs(row[4] - float(vals.mean())) <= REL * rms
        assert abs(row[5] - stderr) <= REL * max(stderr, rms / np.sqrt(PATHS))


def test_shared_pass_gives_each_reader_its_own_figures(setup, report):
    # one set of column moments serves the norm, the table and the errors,
    # with the bits each reader gives from moments of its own
    _, grid, _, reference = setup
    grams, centred = column_moments(report.z.state, report.z.coeffs.shape[2])
    rows = list(_surface_rows(report.z, grams, centred, grid.nodes))
    again = column_moments(report.z.state, report.z.coeffs.shape[2])
    assert repr(rows) == repr(list(_surface_rows(report.z, *again, grid.nodes)))
    assert repr(triangle_norm(report.y, report.z, grams)) == repr(s2_norm(report.y, report.z))
    assert repr(kernel_errors(report, reference, grams)) == repr(
        error_metrics(report, reference))


def _count_reads(monkeypatch, mode):
    """Calls of ``at`` on the solve's kernel, and the designs built, while the CLI runs."""
    reads, designs = Counter(), []
    at, design_matrix = SurfaceField.at, fields.design_matrix
    kernel = SymmetricSurface if mode == "s" else fields.SurfaceField

    def counted_at(self, i, j):
        if type(self) is kernel:
            reads[i, j] += 1
        return at(self, i, j)

    def counted_design(state, degree):
        designs.append(degree)
        return design_matrix(state, degree)

    monkeypatch.setattr(SurfaceField, "at", counted_at)
    for module in (fields, norms):
        monkeypatch.setattr(module, "design_matrix", counted_design)
    return reads, designs


@pytest.mark.parametrize("mode", ["m", "s"])
def test_cli_solve_reads_each_cell_once(tmp_path, monkeypatch, capsys, mode):
    reads, designs = _count_reads(monkeypatch, mode)
    argv = ["solve", "--case", "product-linear", "--mode", mode, "--n", "8", "--m", "256",
            "--output.dir", str(tmp_path)]
    assert main(argv) == 0
    # the statistics read no cell: one design per column forms its moments
    assert not reads
    assert len(designs) == 9
    assert main([*argv, "--full-paths"]) == 0
    capsys.readouterr()
    # the export reads each cell of the square once, one design per read
    assert reads == Counter((i, j) for i in range(9) for j in range(9))
    assert len(designs) == 9 + 9 + 81


def test_full_paths_export_holds_a_few_cells(setup):
    # the rows stream from one cell read at a time, so the export holds a
    # cell's values and its design, never the kernel's paths
    case, grid, ensemble, _ = setup
    report = solve_m(case.problem(grid), ensemble)
    cell = 8 * PATHS
    tracemalloc.start()
    try:
        rows = sum(1 for _ in _path_rows(report.z, grid.nodes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == (STEPS + 1) ** 2 * PATHS
    # one design of 4 columns and one cell's values; a hold of every
    # cell would be 289 cells
    assert peak <= 8 * cell, f"{peak} bytes, {peak / cell:.2f} cells"


def test_path_rows_match_row_major_reads(tmp_path, capsys, setup, report):
    _, grid, _, _ = setup
    mode = "m" if report.mode == "m-solution" else "s"
    argv = ["solve", "--case", "product-linear", "--mode", mode, "--n", str(STEPS),
            "--m", str(PATHS), "--full-paths", "--output.dir", str(tmp_path)]
    assert main(argv) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    with open(f"{run_dir}/z_paths.csv", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\r\n")
    naive = ["p,i,j,t_i,t_j,value"]
    for i in range(STEPS + 1):
        for j in range(STEPS + 1):
            t_i, t_j = repr(float(grid.nodes[i])), repr(float(grid.nodes[j]))
            naive += [f"{p},{i},{j},{t_i},{t_j},{v!r}"
                      for p, v in enumerate(report.z.at(i, j).tolist())]
    assert lines == naive + [""]
