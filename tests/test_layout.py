"""The node-major storage of a sampled ensemble.

``sample_ensemble`` stores the increments and values as (N, M) and
(N + 1, M) C arrays and exposes their transposes, so indexing stays
path-first while every per-node read is one contiguous row.  The layout
moves no bit: the arrays equal the path-major reference, and a solve on
a path-major copy of the same paths gives the same bytes.
"""

import tracemalloc

import numpy as np
import pytest

from bsvie import (BasisSpec, DriftSpec, Driver, Generator, PathEnsemble, ProblemSpec,
                   SolverConfig, Terminal, build_grid, residual, sample_ensemble, solve_m, solve_s,
                   tilt)
from bsvie.analytic import CASES, reference_fields
from bsvie.ensemble import _FILL_PATHS, _path_normals
from bsvie.fields import SymmetricSurface


def _path_major(ensemble: PathEnsemble) -> PathEnsemble:
    """The same paths on C-ordered (paths x nodes) copies."""
    return PathEnsemble(ensemble.grid, ensemble.n_paths, ensemble.seed,
                        ensemble.increments.copy(order="C"), ensemble.values.copy(order="C"))


@pytest.mark.parametrize("n_paths", [1, 1000, 3001])
def test_sampling_has_the_bytes_of_the_path_major_reference(n_paths):
    # path counts that are not multiples of the fill's chunk of paths
    grid = build_grid(1.0, 16)
    ensemble = sample_ensemble(grid, n_paths, seed=4)
    increments = _path_normals(4, 0, n_paths, grid.steps) * np.sqrt(grid.dt)
    values = np.zeros((n_paths, grid.steps + 1))
    values[:, 1:] = np.cumsum(increments, axis=1)
    assert ensemble.increments.shape == increments.shape
    assert ensemble.values.shape == values.shape
    assert ensemble.increments.tobytes() == increments.tobytes()
    assert ensemble.values.tobytes() == values.tobytes()


def test_every_node_column_is_one_contiguous_row():
    grid = build_grid(1.0, 8)
    ensemble = sample_ensemble(grid, 300, seed=1)
    tilted = tilt(ensemble, DriftSpec(r1=0.3, r2="s"))
    for a in (ensemble.values, ensemble.increments, tilted.state, tilted.increments):
        assert all(a[:, j].flags.c_contiguous for j in range(a.shape[1]))


def test_sampling_holds_its_two_arrays_and_one_chunk():
    grid = build_grid(1.0, 32)
    sample_ensemble(grid, 2, seed=2)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ensemble = sample_ensemble(grid, 3 * _FILL_PATHS + 5, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = _FILL_PATHS * grid.steps * 8
    assert peak - base <= ensemble.increments.nbytes + ensemble.values.nbytes + chunk


@pytest.mark.parametrize("weighted", [False, True])
def test_the_operand_reads_its_increments_in_place(weighted):
    grid = build_grid(1.0, 4)
    ensemble = sample_ensemble(grid, 8192, seed=3)
    driver = tilt(ensemble, DriftSpec(r1=0.2)) if weighted else Driver.from_ensemble(ensemble)
    basis = BasisSpec()
    design = driver._node_design(basis, 2)
    xw2 = np.empty((2 * basis.size, ensemble.n_paths))
    design.operand(xw2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        design.operand(xw2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no array of one float per path is allocated
    assert peak - base < ensemble.n_paths * 8


def _coeffs(report) -> np.ndarray:
    z = report.z
    return (z.base if isinstance(z, SymmetricSurface) else z).coeffs


def _reports(problem, paths):
    drift = DriftSpec(r1=0.3, r2="0.1*s")
    return [
        solve_s(problem, paths),
        solve_s(problem, paths, SolverConfig(picard=True, tol=1e-8)),
        solve_m(problem, paths),
        solve_s(problem, tilt(paths, drift)),
        solve_m(problem, tilt(paths, drift)),
    ]


@pytest.mark.parametrize("generator, terminal", [
    ("-t*y/s^2 + 0.1*zeta", "t*T*wT"),
    ("0.1*exp(-t*y^2)*sin(w) + 0.1*cos(s*wt)^2 - 0.01*abs(y)^1.7 + 0.1*z", "sin(wT) + wt^2"),
    ("0.1*abs(y) + 0.2*z", "-0.7*wT"),  # the class path
])
def test_a_path_major_copy_solves_to_the_same_bytes(generator, terminal):
    grid = build_grid(1.0, 8, start=0.5)
    ensemble = sample_ensemble(grid, 512, seed=6)
    problem = ProblemSpec(grid, Generator.from_expression(generator),
                          Terminal.from_expression(terminal))
    for node_major, path_major in zip(_reports(problem, ensemble),
                                      _reports(problem, _path_major(ensemble))):
        assert node_major.y.values.tobytes() == path_major.y.values.tobytes()
        assert _coeffs(node_major).tobytes() == _coeffs(path_major).tobytes()
        assert node_major.update_norms == path_major.update_norms


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("form", ["row", "column"])
def test_a_path_major_copy_has_the_same_residual(case, form):
    # the generator's sum over the inner nodes runs along each path, past
    # eight nodes pairwise, so the layout of the paths must not order it
    case = CASES[case]
    grid = case.grid(16)
    ensemble = sample_ensemble(grid, 256, seed=3)
    per_node = []
    for paths in (ensemble, _path_major(ensemble)):
        fields = reference_fields(case, paths)
        row, column = residual(case.problem(grid), fields.y, fields.z_s, paths)
        per_node.append({"row": row, "column": column}[form].per_node)
    assert per_node[0].tobytes() == per_node[1].tobytes()
