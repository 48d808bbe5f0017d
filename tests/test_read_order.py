"""Column-at-a-time surface reads against a naive row-major cell loop.

Norms, error metrics and the CLI kernel table read coefficient surfaces
in one column-major pass.  Every figure they report must carry the same
bits as reading each cell on its own with ``z.at(i, j)`` in row-major
order, whether each reader has a pass to itself or all of them share
one.  Floats are compared through ``repr``, which round-trips every bit
(``-0.0`` included).
"""

import math
from collections import Counter

import numpy as np
import pytest

from bsvie import CoeffSurface, SymmetricSurface, sample_ensemble
from bsvie import fields
from bsvie.analytic import error_metrics, error_sum, get_case, reference_fields
from bsvie.cli import _surface_sum, main
from bsvie.fields import read_order, surface_pass
from bsvie.norms import s2_norm, s2_sum, y_l2, z_cells_l2
from bsvie.solver import solve_m, solve_s

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


def test_read_order_is_column_major_over_representatives(report):
    n = STEPS
    full = [(i, j) for i in range(n + 1) for j in range(n + 1)]
    groups = read_order(report.z, full)
    assert [j for j, _ in groups] == list(range(n + 1))
    for j, rows in groups:
        expected = range(j + 1) if isinstance(report.z, SymmetricSurface) else range(n + 1)
        assert rows == list(expected)


def test_norms_match_row_major_reads(report):
    n = STEPS
    full = [(i, j) for i in range(n) for j in range(n)]
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    assert repr(z_cells_l2(report.z, full)) == repr(_naive_cells_l2(report.z, full))
    assert repr(z_cells_l2(report.z, upper)) == repr(_naive_cells_l2(report.z, upper))
    naive_s2 = float(np.sqrt(y_l2(report.y) + _naive_cells_l2(report.z, upper)))
    assert repr(s2_norm(report.y, report.z)) == repr(naive_s2)


def test_error_metrics_match_row_major_reads(setup, report):
    _, grid, _, reference = setup
    z_ref = reference.z_m if report.mode == "m-solution" else reference.z_s
    n, dt2 = grid.steps, grid.dt**2
    errors = error_metrics(report, reference)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    lower = [(i, j) for i in range(1, n) for j in range(i)]
    diag = [(i, i) for i in range(n)]
    naive = [_naive_region_error(report.z, z_ref, cells, dt2) for cells in (upper, lower, diag)]
    assert repr([errors.z_upper_error, errors.z_lower_error, errors.z_diag_error]) == repr(naive)


def test_surface_rows_match_row_major_reads(setup, report):
    _, grid, _, _ = setup
    rows = surface_pass(report.z, [_surface_sum(report.z, grid.nodes, grid.steps)])[0]
    naive = []
    for i in range(STEPS + 1):
        for j in range(STEPS + 1):
            vals = report.z.at(i, j)
            stderr = float(vals.std(ddof=1) / np.sqrt(vals.shape[0]))
            naive.append((i, j, float(grid.nodes[i]), float(grid.nodes[j]),
                          float(vals.mean()), stderr))
    assert repr(rows) == repr(naive)


def test_shared_pass_gives_each_reader_its_own_figures(setup, report):
    _, grid, _, reference = setup
    rows, norm, errors = surface_pass(report.z, [
        _surface_sum(report.z, grid.nodes, grid.steps),
        s2_sum(report.y, report.z),
        error_sum(report, reference),
    ])
    alone = surface_pass(report.z, [_surface_sum(report.z, grid.nodes, grid.steps)])[0]
    assert repr(rows) == repr(alone)
    assert repr(norm) == repr(s2_norm(report.y, report.z))
    assert repr(errors) == repr(error_metrics(report, reference))


@pytest.mark.parametrize("mode", ["m", "s"])
def test_cli_solve_reads_each_cell_once(tmp_path, monkeypatch, capsys, mode):
    reads, designs = Counter(), []
    column, design_matrix = CoeffSurface.column, fields.design_matrix

    def counted_column(self, j, rows):
        reads.update((i, j) for i in rows)
        return column(self, j, rows)

    def counted_design(state, degree):
        designs.append(degree)
        return design_matrix(state, degree)

    monkeypatch.setattr(CoeffSurface, "column", counted_column)
    monkeypatch.setattr(fields, "design_matrix", counted_design)
    argv = ["solve", "--case", "product-linear", "--mode", mode, "--n", "8", "--m", "256",
            "--output.dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    # the m-solution stores all 81 cells; the s-solution mirrors its 45 upper ones
    stored = [(i, j) for i in range(9) for j in range(9) if mode == "m" or i <= j]
    assert reads == Counter(stored)
    assert len(designs) == 9


def test_full_paths_export_builds_one_design_per_column(tmp_path, monkeypatch, capsys):
    designs = []
    design_matrix = fields.design_matrix

    def counted_design(state, degree):
        designs.append(degree)
        return design_matrix(state, degree)

    monkeypatch.setattr(fields, "design_matrix", counted_design)
    argv = ["solve", "--case", "product-linear", "--mode", "m", "--n", "16", "--m", "64",
            "--full-paths", "--output.dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    # one per column of the 17 x 17 table; a read per cell would build 306
    assert len(designs) == 17


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
