"""The CLI's failure contract as a property, at tiny sizes.

``main`` is driven with values drawn per schema key, well-formed and
malformed, at no more than 8 steps and 256 paths.  Whatever the values,
the exit code is one the README's table lists; a non-zero exit prints
exactly one ``error:`` line and no traceback; and a run that fails with
code 1, 4 or 5 leaves no run directory.  Memory failures are provoked by
patching an allocation to raise, never by asking for a large array.
"""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bsvie import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# well-formed values of the keys whose kind alone does not say what is valid
VALID = {
    "grid.horizon": ["1.0", "2.5"],
    "grid.start": ["0.0", "0.5"],
    "grid.steps": ["4", "8", "2"],
    "ensemble.paths": ["64", "256", "16", "2"],
    "ensemble.seed": ["0", "1", "7"],
    "solver.degree": ["3", "1", "0"],
    "solver.ridge": ["1e-10", "0"],
    "solver.tol": ["1e-6", "0.01"],
    "solver.max_iter": ["1", "5"],
    "problem.case": ["product-linear", "zero", "squared-driver", "shifted-product"],
    "problem.generator": ["0.1*y", "-t*y/s^2", "0.2*y+0.1*zeta", "y+z"],
    "problem.terminal": ["wT", "t*T*wT", "1"],
    "problem.mode": ["s", "m", "adapted"],
    "risk.position": ["0.7*wT", "1"],
    "risk.aggregator": ["zero", "linear", "absolute", "expr"],
    "risk.rate": ["0.1", "-0.05"],
    "risk.expr": ["", "0.1*abs(z)"],
    "risk.r1": ["0", "0.3"],
    "risk.r2": ["0", "0.2"],
    "risk.route": ["direct", "girsanov"],
    "verify.case": ["zero", "product-linear"],
    "verify.levels": ["2,4", "4,8", "2,4,8"],
    "verify.mode": ["s", "m"],
    "axioms.preset": ["zero", "linear", "absolute", "expr"],
    "axioms.rate": ["0.1"],
    "axioms.expr": ["", "0.1*abs(z)"],
    "axioms.position": ["0.7*wT", "wT"],
    "axioms.shift": ["1.0", "0.5"],
    "axioms.scale": ["2.0"],
    "axioms.companion": ["0.5"],
    "axioms.route": ["direct", "girsanov"],
    "axioms.r1": ["0", "0.3"],
    "axioms.r2": ["0"],
    "residual.case": ["zero", "product-linear", "squared-driver"],
}
VALID_BY_KIND = {"bool": ["true", "false"]}
MALFORMED_BY_KIND = {
    "int": ["x", "-1", "0", "2.5"],
    "float": ["x", "nan", "inf", "-1", "0"],
    "bool": ["maybe", "2"],
    "str": ["(", "cubic", "wT+", "1/0*y", "log(T-t)"],
    "ints": ["x", ",", "3", "8,4"],
}
# drawn in every run, so that none falls back to the default 64 x 16384
SIZE_KEYS = ("grid.steps", "ensemble.paths")
# drawn in every run of a subcommand, one group of them: what it solves
ALWAYS = {"solve": (("problem.case",), ("problem.generator", "problem.terminal")),
          "verify": (("verify.case", "verify.levels"),), "residual": (("residual.case",),)}


@st.composite
def invocations(draw, sub: str):
    """argv of one run, at most one of its values malformed, and the call to run out of memory."""
    schema = cli._SCHEMAS[sub]
    always = (*SIZE_KEYS, *draw(st.sampled_from(ALWAYS.get(sub, ((),)))))
    keys = [k for k in schema if k != "output.dir" and k not in always]
    chosen = [*always, *draw(st.lists(st.sampled_from(keys), unique=True, max_size=5))]
    bad = draw(st.sampled_from([None, None, None, *chosen]))
    argv = [sub]
    for key in chosen:
        kind = schema[key][0]
        values = MALFORMED_BY_KIND[kind] if key == bad else VALID.get(key, VALID_BY_KIND.get(kind))
        argv.append(f"--{key}={draw(st.sampled_from(values))}")
    return argv, draw(st.sampled_from((None, None, "sample_ensemble", "column_moments")))


def _listed_codes() -> set:
    return {int(m) for m in re.findall(r"^\| (\d) \|", README.read_text(encoding="utf-8"), re.M)}


def _out_of_memory(*args, **kwargs):
    raise np._core._exceptions._ArrayMemoryError((100001, 100001, 4), np.dtype(float))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def _check_contract(sub, data):
    argv, oom = data.draw(invocations(sub))
    with tempfile.TemporaryDirectory() as root:
        out, err = io.StringIO(), io.StringIO()
        patch = mock.patch.object(cli, oom, _out_of_memory) if oom else contextlib.nullcontext()
        with patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--output.dir", root])
        assert code in _listed_codes(), (argv, code)
        stderr = err.getvalue()
        assert "Traceback" not in stderr, (argv, stderr)
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == (code != 0), (argv, code, stderr)
        if code in (1, 4, 5):
            assert os.listdir(root) == [], (argv, code, os.listdir(root))
            assert out.getvalue() == ""
        if code == 5:
            assert errors == ["error: out of memory: Unable to allocate 298. GiB for an array "
                              "with shape (100001, 100001, 4) and data type float64"]


def test_readme_lists_every_exit_code():
    assert _listed_codes() == {0, 1, 2, 3, 4, 5}


def test_solve_keeps_the_failure_contract():
    _check_contract("solve")


def test_risk_keeps_the_failure_contract():
    _check_contract("risk")


def test_verify_keeps_the_failure_contract():
    _check_contract("verify")


def test_axioms_keeps_the_failure_contract():
    _check_contract("axioms")


def test_residual_keeps_the_failure_contract():
    _check_contract("residual")
