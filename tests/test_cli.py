import csv
import hashlib
import io
import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

from bsvie import (
    Aggregator,
    DriftSpec,
    RiskSpec,
    build_grid,
    girsanov_selftest,
    rho,
    sample_ensemble,
    tilt,
)
from bsvie.cli import CliError, _Emitter, _SCHEMAS, _cell, _field_rows, main, parse_config_text


def _read_json(run_dir, name):
    with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.strip().splitlines(), captured.err


def _last_run_dir(out_lines):
    return out_lines[-1]


# -- config parsing ---------------------------------------------------------


def test_parse_config_text_round_trip():
    schema = _SCHEMAS["solve"]
    text = """
    # a comment line
    grid.steps = 16

    ensemble.paths = 512
    problem.case = "zero"
    solver.picard = true
    """
    parsed = parse_config_text(text, schema)
    assert parsed == {
        "grid.steps": 16,
        "ensemble.paths": 512,
        "problem.case": "zero",
        "solver.picard": True,
    }


def test_parse_config_text_rejects_unknown_key():
    with pytest.raises(CliError, match="known keys"):
        parse_config_text("grid.stepz = 16", _SCHEMAS["solve"])


def test_parse_config_text_rejects_bad_value():
    with pytest.raises(CliError):
        parse_config_text("grid.steps = sixteen", _SCHEMAS["solve"])
    with pytest.raises(CliError):
        parse_config_text("solver.picard = maybe", _SCHEMAS["solve"])


def test_parse_config_text_rejects_missing_equals():
    with pytest.raises(CliError, match="key = value"):
        parse_config_text("grid.steps 16", _SCHEMAS["solve"])


# -- solve ------------------------------------------------------------------


def test_solve_zero_case_artifacts(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, lines, _ = _run(
        capsys,
        ["solve", "--case", "zero", "--n", "8", "--m", "256", "--output.dir", out],
    )
    assert code == 0
    run_dir = _last_run_dir(lines)
    assert run_dir.startswith(out + os.sep + "solve-")
    for name in ("y_table.csv", "z_surface.csv", "summary.json", "errors.json",
                 "manifest.json"):
        assert os.path.exists(os.path.join(run_dir, name)), name
    summary = _read_json(run_dir, "summary.json")
    assert summary["converged"] is True
    assert summary["s2_norm"] == 0.0
    assert _read_json(run_dir, "errors.json")["y"] == 0.0


def test_solve_csv_uses_crlf_rows(tmp_path, capsys):
    out = str(tmp_path / "runs")
    _, lines, _ = _run(
        capsys,
        ["solve", "--case", "zero", "--n", "4", "--m", "64", "--output.dir", out],
    )
    with open(os.path.join(_last_run_dir(lines), "y_table.csv"), "rb") as fh:
        data = fh.read()
    assert b"\r\n" in data
    assert data.decode("utf-8").splitlines()[0] == "i,t,mean,stderr,l2"


def test_solve_unknown_case_exits_one(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        ["solve", "--case", "cubic", "--output.dir", str(tmp_path)],
    )
    assert code == 1
    assert "error:" in err
    assert "available" in err


def test_solve_case_and_expressions_conflict(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        ["solve", "--case", "zero", "--problem.generator", "0",
         "--output.dir", str(tmp_path)],
    )
    assert code == 1
    assert "either" in err


def test_solve_expression_problem(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, lines, _ = _run(
        capsys,
        ["solve", "--problem.generator", "0", "--problem.terminal", "wT",
         "--n", "8", "--m", "512", "--output.dir", out],
    )
    assert code == 0
    summary = _read_json(_last_run_dir(lines), "summary.json")
    assert summary["mode"] == "s-solution"
    assert summary["s2_norm"] > 0.0


def test_readme_expression_example_runs(tmp_path, capsys):
    # argparse takes a value that starts with "-" only after "="; the
    # generator divides by s, so the interval starts off zero
    code, lines, err = _run(
        capsys,
        ["solve", "--problem.generator=-t*y/s^2", "--problem.terminal", "t*T*wT",
         "--grid.start", "0.5", "--n", "32", "--m", "512",
         "--output.dir", str(tmp_path / "runs")],
    )
    assert code == 0, err
    summary = _read_json(_last_run_dir(lines), "summary.json")
    assert summary["steps"] == 32


def test_solve_non_convergence_exits_two(tmp_path, capsys):
    code, lines, err = _run(
        capsys,
        ["solve", "--case", "product-linear", "--n", "8", "--m", "512",
         "--solver.picard", "true", "--solver.max_iter", "1",
         "--solver.tol", "1e-14", "--output.dir", str(tmp_path / "runs")],
    )
    assert code == 2
    summary = _read_json(_last_run_dir(lines), "summary.json")
    assert summary["converged"] is False
    assert err == ("error: the Picard iteration did not converge; the tables hold its last "
                   "iterate\n")


def test_zero_iteration_budget_exits_one_without_run_dir(tmp_path, capsys):
    out = tmp_path / "runs"
    code, lines, err = _run(
        capsys,
        ["solve", "--case", "product-linear", "--n", "8", "--m", "256",
         "--solver.picard", "true", "--solver.max_iter", "0", "--output.dir", str(out)],
    )
    assert code == 1
    assert lines == []
    assert "max_iter" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, concept", [
    (["solve", "--case", "product-linear", "--mode", "m"], "m-solution"),
    (["solve", "--case", "product-linear", "--mode", "adapted"], "adapted solution"),
    (["verify", "--case", "product-linear", "--mode", "m", "--levels", "4,8"], "m-solution"),
])
def test_picard_for_a_one_sweep_solve_exits_one_without_run_dir(tmp_path, capsys, argv,
                                                                  concept):
    # only the s-solution iterates; a Picard flag on another solve is refused
    out = tmp_path / "runs"
    code, lines, err = _run(capsys, [*argv, "--n", "4", "--m", "256",
                                     "--solver.picard", "true", "--output.dir", str(out)])
    assert code == 1
    assert lines == []
    assert err.startswith(f"error: the {concept} is one backward sweep") and err.count("\n") == 1
    assert not out.exists()


def test_solver_failure_exits_four_without_run_dir(tmp_path, capsys):
    out = tmp_path / "runs"
    code, lines, err = _run(
        capsys,
        ["solve", "--problem.generator", "y/(s-s)", "--problem.terminal", "wT",
         "--n", "8", "--m", "256", "--output.dir", str(out)],
    )
    assert code == 4
    assert lines == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(i=7, j=7)" in err
    assert not out.exists()


def test_non_finite_terminal_exits_four_without_run_dir(tmp_path, capsys):
    out = tmp_path / "runs"
    code, lines, err = _run(
        capsys,
        ["solve", "--problem.generator=-t*y/s^2", "--problem.terminal", "log(T-t)",
         "--grid.start", "0.5", "--n", "16", "--m", "2048", "--output.dir", str(out)],
    )
    assert code == 4
    assert lines == []
    assert err == "error: numerical failure: terminal data is non-finite at node 16\n"
    assert not out.exists()


@pytest.mark.parametrize("generator, terminal, message", [
    ("y + T/T1", "wT", "generator returned non-finite values at (i=3, j=3)"),
    ("y", "wT*T/T1", "terminal data is non-finite at node 0"),
])
def test_dividing_by_a_zero_start_exits_four(tmp_path, capsys, generator, terminal, message):
    # T and T1 are numpy scalars, so T/T1 at start 0 is inf, not a ZeroDivisionError
    out = tmp_path / "runs"
    code, lines, err = _run(
        capsys,
        ["solve", "--problem.generator", generator, "--problem.terminal", terminal,
         "--n", "4", "--m", "256", "--output.dir", str(out)],
    )
    assert code == 4
    assert lines == []
    assert err == f"error: numerical failure: {message}\n"
    assert not out.exists()


def test_degenerate_ensemble_exits_four_without_run_dir(tmp_path, capsys):
    out = tmp_path / "runs"
    # without the ridge, the deterministic state at node 0 leaves the
    # normal equations singular
    code, lines, err = _run(
        capsys,
        ["solve", "--case", "zero", "--solver.ridge", "0", "--n", "8", "--m", "256",
         "--output.dir", str(out)],
    )
    assert code == 4
    assert lines == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "node 0" in err and "degenerate" in err
    assert not out.exists()


def test_overflowing_design_names_its_node_without_warnings(tmp_path, capsys, recwarn):
    out = tmp_path / "runs"
    # W is of order 1e153 from node 1 on, so its cube overflows the design;
    # the backward sweep builds node 3's design first
    code, lines, err = _run(
        capsys,
        ["solve", "--problem.generator", "y", "--problem.terminal", "1", "--n", "4",
         "--m", "64", "--grid.horizon", "1e308", "--output.dir", str(out)],
    )
    assert code == 4
    assert lines == []
    assert err.startswith("error: numerical failure: ") and err.count("\n") == 1
    assert "node 3" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--problem.generator", "y", "--problem.terminal", "1e307*wT"],
    ["risk", "--risk.position", "1e307*wT"],
])
def test_overflowing_projection_prints_one_error_line(tmp_path, capsys, recwarn, argv):
    out = tmp_path / "runs"
    # the last node's regression sums of 1e307 * W(T) overflow
    code, lines, err = _run(capsys, argv + ["--n", "8", "--m", "256", "--output.dir", str(out)])
    assert code == 4
    assert lines == []
    assert err == "error: numerical failure: node 7: non-finite regression targets\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--verify.levels", "3"],  # a flag of another subcommand
    [],  # no subcommand
    ["simulate"],  # not a subcommand
    # a zero shift would compare the base risk with itself
    ["axioms", "--preset", "linear", "--axioms.shift", "0", "--n", "4", "--m", "64"],
    ["axioms", "--preset", "linear", "--axioms.companion", "inf", "--n", "4", "--m", "64"],
    # the companion key is a number, so an expression is rejected before any solve
    ["axioms", "--preset", "linear", "--axioms.companion", "1e308*wT*wT", "--n", "4",
     "--m", "64"],
    # an infinite tolerance would accept the first sweep as converged
    ["solve", "--case", "product-linear", "--solver.picard", "true", "--solver.tol", "inf",
     "--n", "8", "--m", "256"],
    ["solve", "--case", "product-linear", "--solver.picard", "true", "--solver.tol", "-1",
     "--n", "8", "--m", "256"],
    ["solve", "--case", "product-linear", "--solver.picard", "true", "--solver.tol", "nan",
     "--n", "8", "--m", "256"],
    ["solve", "--case", "product-linear", "--solver.ridge", "nan", "--n", "8", "--m", "256"],
    ["risk", "--solver.ridge", "inf", "--n", "8", "--m", "256"],
    # a seed outside [0, 2^64) would draw the paths of its masked twin
    ["solve", "--seed", "-1", "--n", "4", "--m", "64"],
    ["solve", "--seed", str(2**64), "--n", "4", "--m", "64"],
])
def test_usage_errors_exit_one_with_one_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, lines, err = _run(capsys, argv)
    assert code == 1
    assert lines == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


class _NoAllocation:
    """The solver's numpy, with its allocating calls failing the test."""

    def __getattr__(self, name):
        if name in ("empty", "zeros", "full", "ones", "require", "empty_like", "zeros_like"):
            raise AssertionError(f"the solve allocated (np.{name}) before checking its paths")
        return getattr(np, name)


def test_too_few_paths_for_the_basis_exit_one_before_the_solve_allocates(tmp_path, capsys,
                                                                         monkeypatch):
    # 2 paths cannot fit a basis of 4; at --n 100000 the coefficient table
    # alone would be 298 GiB, so the check comes before any allocation
    from bsvie import solver

    monkeypatch.setattr(solver, "np", _NoAllocation())
    out = tmp_path / "runs"
    code, lines, err = _run(capsys, ["solve", "--case", "zero", "--n", "8", "--m", "2",
                                     "--output.dir", str(out)])
    assert code == 1
    assert lines == []
    assert err == "error: basis of size 4 needs more than 3 paths, got 2\n"
    assert not out.exists()


def _out_of_memory(*args, **kwargs):
    raise np._core._exceptions._ArrayMemoryError((100001, 100001, 4), np.dtype(float))


@pytest.mark.parametrize("allocation", ["sample_ensemble", "column_moments"])
def test_out_of_memory_exits_five_with_one_line_and_no_run_dir(tmp_path, capsys, monkeypatch,
                                                                allocation):
    # the ensemble fails before any table; the kernel's moments after
    # y_table.csv is written, so the run removes the directory it made
    from bsvie import cli

    monkeypatch.setattr(cli, allocation, _out_of_memory)
    out = tmp_path / "runs"
    code, lines, err = _run(capsys, ["solve", "--case", "zero", "--n", "4", "--m", "64",
                                     "--output.dir", str(out)])
    assert code == 5
    assert lines == []
    assert err == ("error: out of memory: Unable to allocate 298. GiB for an array with shape "
                   "(100001, 100001, 4) and data type float64\n")
    assert not out.exists() or not os.listdir(out)


def test_a_failed_run_keeps_a_directory_it_did_not_make(tmp_path, capsys, monkeypatch):
    from bsvie import cli

    argv = ["solve", "--case", "zero", "--n", "4", "--m", "64", "--output.dir", str(tmp_path)]
    code, lines, _ = _run(capsys, argv)
    assert code == 0
    monkeypatch.setattr(cli, "column_moments", _out_of_memory)
    assert _run(capsys, argv)[0] == 5
    assert os.path.isdir(lines[-1])


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--full-paths" in capsys.readouterr().out


def test_full_paths_export_warns_and_writes(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, lines, err = _run(
        capsys,
        ["solve", "--case", "zero", "--n", "4", "--m", "32",
         "--full-paths", "--output.dir", out],
    )
    assert code == 0
    assert "warning" in err
    run_dir = _last_run_dir(lines)
    assert os.path.exists(os.path.join(run_dir, "y_paths.csv"))
    assert os.path.exists(os.path.join(run_dir, "z_paths.csv"))


def test_full_paths_without_csv_tables_is_silent(tmp_path, capsys):
    # nothing per path is written, so nothing is warned about
    code, lines, err = _run(
        capsys,
        ["solve", "--case", "zero", "--n", "4", "--m", "64", "--output.csv", "false",
         "--full-paths", "--output.dir", str(tmp_path / "runs")],
    )
    assert code == 0
    assert err == ""
    assert not any(name.endswith(".csv") for name in os.listdir(_last_run_dir(lines)))


def test_unwritable_output_dir_is_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n")
    code, lines, err = _run(
        capsys,
        ["solve", "--case", "zero", "--n", "4", "--m", "64",
         "--output.dir", str(blocker / "x")],
    )
    assert code == 1
    assert lines == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_csv_tables_stream_to_disk(tmp_path):
    # the bytes are those of the whole table written at once, and the
    # manifest checksum is theirs, but no copy of the table is held
    header = ["p", "label", "value"]
    odd = [(0, "a,b", 1.5), (1, 'say "hi"', -0.0), (2, "two\nlines", float("nan")),
           (3, "äö", True), (4, "", 7)]
    whole = io.StringIO()
    writer = csv.writer(whole)
    writer.writerow(header)
    for row in odd:
        writer.writerow([_cell(x) for x in row])
    emit = _Emitter(str(tmp_path / "run"), {"output.csv": True})
    emit.csv("odd.csv", header, odd)
    data = (tmp_path / "run" / "odd.csv").read_bytes()
    assert data == whole.getvalue().encode("utf-8")
    assert emit.tables["odd.csv"] == hashlib.sha256(data).hexdigest()

    rows = ((p, i, 0.1 * p + i) for p in range(25000) for i in range(10))
    tracemalloc.start()
    try:
        emit.csv("big.csv", ["p", "i", "value"], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "run" / "big.csv").stat().st_size
    assert size > 4_000_000
    assert peak < size // 20, f"{peak} bytes traced for a {size}-byte table"
    with open(tmp_path / "run" / "big.csv", "rb") as fh:
        assert emit.tables["big.csv"] == hashlib.sha256(fh.read()).hexdigest()


# -- determinism ------------------------------------------------------------


def test_rerun_reproduces_identical_tables(tmp_path, capsys):
    out = str(tmp_path / "runs")
    argv = ["solve", "--case", "product-linear", "--n", "8", "--m", "512",
            "--output.dir", out]
    _, lines, _ = _run(capsys, argv)
    run_dir = _last_run_dir(lines)
    first = _read_json(run_dir, "manifest.json")
    _, lines, _ = _run(capsys, argv)
    assert _last_run_dir(lines) == run_dir
    second = _read_json(run_dir, "manifest.json")
    assert first["tables"] == second["tables"]
    assert first["config_sha256"] == second["config_sha256"]


def test_manifest_hashes_name_the_file_bytes(tmp_path, capsys):
    out = str(tmp_path / "runs")
    _, lines, _ = _run(
        capsys,
        ["solve", "--case", "zero", "--n", "4", "--m", "64", "--output.dir", out],
    )
    run_dir = _last_run_dir(lines)
    manifest = _read_json(run_dir, "manifest.json")
    assert manifest["tables"]
    for name, digest in manifest["tables"].items():
        with open(os.path.join(run_dir, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem.case = zero\ngrid.steps = 4\nensemble.paths = 32\n",
        encoding="utf-8",
    )
    out = str(tmp_path / "runs")
    # the flag overrides the file's step count
    code, lines, _ = _run(
        capsys,
        ["solve", "--config", str(cfg), "--n", "8", "--output.dir", out],
    )
    assert code == 0
    summary = _read_json(_last_run_dir(lines), "summary.json")
    assert summary["steps"] == 8
    assert summary["paths"] == 32


def test_output_root_env_var(tmp_path, capsys, monkeypatch):
    root = tmp_path / "env-root"
    monkeypatch.setenv("BSVIE_OUTPUT_ROOT", str(root))
    code, lines, _ = _run(capsys, ["solve", "--case", "zero", "--n", "4", "--m", "32"])
    assert code == 0
    assert _last_run_dir(lines).startswith(str(root) + os.sep)


# -- risk -------------------------------------------------------------------


def test_risk_girsanov_summary_includes_selftest(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, lines, _ = _run(
        capsys,
        ["risk", "--route", "girsanov", "--risk.r1", "0.3", "--n", "8",
         "--m", "1024", "--output.dir", out],
    )
    assert code == 0
    run_dir = _last_run_dir(lines)
    summary = _read_json(run_dir, "summary.json")
    assert summary["route"] == "girsanov"
    assert summary["selftest"]["passed"] is True
    assert os.path.exists(os.path.join(run_dir, "rho_table.csv"))


def test_risk_girsanov_tilts_once(tmp_path, capsys, monkeypatch):
    tilts = []

    def counted_tilt(ensemble, drift):
        tilts.append(drift)
        return tilt(ensemble, drift)

    # every module that imported the function by name calls the counter
    for name, module in list(sys.modules.items()):
        if name.startswith("bsvie") and getattr(module, "tilt", None) is tilt:
            monkeypatch.setattr(module, "tilt", counted_tilt)
    code, lines, _ = _run(
        capsys,
        ["risk", "--route", "girsanov", "--risk.r1", "0.3", "--n", "8",
         "--m", "1024", "--output.dir", str(tmp_path / "runs")],
    )
    assert code == 0
    assert len(tilts) == 1
    run_dir = _last_run_dir(lines)

    # the shared tilt gives the figures of a solve and a self-test that
    # each tilt on their own
    spec = RiskSpec(position="0.7*wT", aggregator=Aggregator.linear("0.1"),
                    drift=DriftSpec(r1="0.3"), route="girsanov")
    grid = build_grid(1.0, 8)
    ensemble = sample_ensemble(grid, 1024, seed=1)
    values = rho(spec, ensemble).values
    selftest = girsanov_selftest(tilt(ensemble, spec.drift.negated()))
    with open(os.path.join(run_dir, "rho_table.csv"), encoding="utf-8") as fh:
        table = [[float(x) for x in line.split(",")] for line in fh.read().splitlines()[1:]]
    assert table == [list(row) for row in _field_rows(values, grid.nodes)]
    summary = _read_json(run_dir, "summary.json")
    assert summary["selftest"] == {"passed": bool(selftest.passed),
                                   "max_score": float(selftest.max_score)}
    assert summary["sup_node_l2"] == max(row[-1] for row in table)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_risk_summary_sup_is_the_largest_l2_of_its_table(tmp_path, capsys, seed):
    # one figure, summed once: a mean over the whole field sums in
    # another order and read 0.7188163551696625 against the table's
    # 0.7188163551696619 at seed 1
    code, lines, _ = _run(
        capsys,
        ["risk", "--n", "16", "--m", "4096", "--seed", str(seed),
         "--output.dir", str(tmp_path / "runs")],
    )
    assert code == 0
    run_dir = _last_run_dir(lines)
    with open(os.path.join(run_dir, "rho_table.csv"), encoding="utf-8") as fh:
        l2 = [float(line.split(",")[-1]) for line in fh.read().splitlines()[1:]]
    assert len(l2) == 17
    assert _read_json(run_dir, "summary.json")["sup_node_l2"] == max(l2)


def test_risk_direct_summary_has_no_selftest(tmp_path, capsys):
    code, lines, _ = _run(
        capsys,
        ["risk", "--n", "8", "--m", "512", "--output.dir", str(tmp_path / "runs")],
    )
    assert code == 0
    summary = _read_json(_last_run_dir(lines), "summary.json")
    assert "selftest" not in summary


def test_risk_expression_aggregator_needs_its_source(tmp_path, capsys):
    out = tmp_path / "runs"
    code, lines, err = _run(
        capsys,
        ["risk", "--risk.aggregator", "expr", "--n", "8", "--m", "256",
         "--output.dir", str(out)],
    )
    assert code == 1
    assert lines == []
    assert err == "error: risk.aggregator = expr needs risk.expr\n"
    assert not out.exists()


# -- verify -----------------------------------------------------------------


def test_verify_zero_case_all_zero_tables(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, lines, _ = _run(
        capsys,
        ["verify", "--case", "zero", "--levels", "4,8", "--m", "128",
         "--output.dir", out],
    )
    assert code == 0
    run_dir = _last_run_dir(lines)
    orders = _read_json(run_dir, "orders.json")
    assert orders["errors_decrease"] is True
    # strict JSON: undefined orders become nulls, never NaN literals
    assert all(o is None for o in orders["y_orders"])
    with open(os.path.join(run_dir, "chart.svg"), encoding="utf-8") as fh:
        assert "machine zero" in fh.read()


def test_verify_non_decreasing_errors_exit_three(tmp_path, capsys):
    code, lines, err = _run(
        capsys,
        ["verify", "--case", "product-linear", "--levels", "16,32,64",
         "--m", "128", "--seed", "1", "--output.dir", str(tmp_path / "runs")],
    )
    assert code == 3
    orders = _read_json(_last_run_dir(lines), "orders.json")
    assert orders["errors_decrease"] is False
    assert err == "error: a verification or axiom check failed; the tables say which\n"


def test_verify_needs_two_levels(tmp_path, capsys):
    out = tmp_path / "runs"
    code, lines, err = _run(
        capsys,
        ["verify", "--case", "zero", "--levels", ",", "--m", "128", "--output.dir", str(out)],
    )
    assert code == 1
    assert lines == []
    assert "two levels" in err
    assert not out.exists()


def test_verify_requires_case(tmp_path, capsys):
    code, _, err = _run(capsys, ["verify", "--output.dir", str(tmp_path)])
    assert code == 1
    assert "verify.case" in err


# -- axioms -----------------------------------------------------------------


def test_axioms_linear_preset(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, lines, _ = _run(
        capsys,
        ["axioms", "--preset", "linear", "--eta", "0.1", "--c", "1.0",
         "--n", "8", "--m", "1024", "--output.dir", out],
    )
    assert code == 0
    run_dir = _last_run_dir(lines)
    summary = _read_json(run_dir, "summary.json")
    assert summary["passed"] is True
    assert summary["axioms"]["translation"]["max_violation"] <= 1e-10
    assert os.path.exists(os.path.join(run_dir, "axioms.csv"))
    assert os.path.exists(os.path.join(run_dir, "discount.csv"))


def test_axioms_absolute_preset_has_no_discount_table(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, lines, _ = _run(
        capsys,
        ["axioms", "--preset", "absolute", "--n", "8", "--m", "1024",
         "--output.dir", out],
    )
    assert code == 0
    run_dir = _last_run_dir(lines)
    assert not os.path.exists(os.path.join(run_dir, "discount.csv"))
    summary = _read_json(run_dir, "summary.json")
    assert "translation" not in summary["axioms"]


# -- residual ---------------------------------------------------------------


def test_residual_symmetric_forms_match(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, lines, _ = _run(
        capsys,
        ["residual", "--case", "product-linear", "--n", "8", "--m", "512",
         "--output.dir", out],
    )
    assert code == 0
    summary = _read_json(_last_run_dir(lines), "summary.json")
    assert summary["forms_match_bitwise"] is True
    assert summary["row_aggregate"] == summary["column_aggregate"]
