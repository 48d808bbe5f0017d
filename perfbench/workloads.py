"""The three benchmark workloads: inputs from a seed, one run, output checks.

Each workload declares its operations up front.  An operation is a call
into bsvie (a solver, axiom check, tilt or CLI call) or an output check;
every declared operation is attempted in every repetition, and one that
raises, fails or is never reached because an earlier call raised counts
as failed.  bsvie and numpy are imported inside ``setup`` so that their
import time is part of the measured set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from statistics import NormalDist

SIZES = {
    # (steps, paths); "default" is what the timed runs use, "pinned" is the
    # acceptance configuration of the test suite, "smoke" only checks plumbing
    # (reference-cli needs 4096 paths there for its kernel-error bounds to hold)
    "reference-cli": {"default": (64, 16384), "pinned": (64, 65536), "smoke": (16, 4096)},
    "risk-axioms": {"default": (64, 8192), "pinned": (64, 65536), "smoke": (8, 512)},
    "picard-zeta": {"default": (64, 8192), "pinned": (64, 65536), "smoke": (8, 512)},
}


class Ops:
    """Outcome of every declared operation of one repetition."""

    def __init__(self, names: tuple) -> None:
        self.names = names
        self.outcome: dict[str, tuple[bool, str]] = {}

    def call(self, name: str, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            self.outcome[name] = (False, f"{type(e).__name__}: {e}")
            raise
        self.outcome[name] = (True, "")
        return result

    def check(self, name: str, passed, detail="") -> None:
        self.outcome[name] = (bool(passed), str(detail))

    def rows(self) -> list:
        return [[n, *self.outcome.get(n, (False, "not reached"))] for n in self.names]


def _relative(a, b) -> float:
    import numpy as np

    ref = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / ref if ref > 0 else float(np.linalg.norm(a))


class Workload:
    name: str
    ops: tuple

    def teardown(self, inputs: dict) -> None:
        pass


# -- reference-cli ------------------------------------------------------------


class ReferenceCli(Workload):
    """`bsvie solve` on product-linear in martingale mode, as a batch user runs it."""

    name = "reference-cli"
    ops = ("call:cli.main", "check:exit_code", "check:manifest_checksums",
           "check:table_shapes", "check:y_err", "check:z_upper_err", "check:z_lower_err")

    def setup(self, steps: int, paths: int, seed: int, scratch: str) -> dict:
        import bsvie.cli

        out_dir = tempfile.mkdtemp(prefix="cli-", dir=scratch)
        argv = ["solve", "--case", "product-linear", "--mode", "m", "--n", str(steps),
                "--m", str(paths), "--seed", str(seed), "--output.dir", out_dir]
        return {"cli": bsvie.cli, "argv": argv, "out_dir": out_dir, "steps": steps}

    def run(self, inputs: dict, ops: Ops) -> dict:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = ops.call("call:cli.main", inputs["cli"].main, inputs["argv"])
        ops.check("check:exit_code", code == 0, f"exit code {code}")
        run_dir = printed.getvalue().strip().splitlines()[-1]

        with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
            tables = json.load(fh)["tables"]
        on_disk = {}
        for name in sorted(os.listdir(run_dir)):
            if name != "manifest.json":
                with open(os.path.join(run_dir, name), "rb") as fh:
                    on_disk[name] = hashlib.sha256(fh.read()).hexdigest()
        ops.check("check:manifest_checksums", on_disk == tables,
                  "" if on_disk == tables else f"manifest {tables} != disk {on_disk}")

        n = inputs["steps"]
        lines = {name: _line_count(os.path.join(run_dir, name))
                 for name in ("y_table.csv", "z_surface.csv")}
        expected = {"y_table.csv": n + 2, "z_surface.csv": (n + 1) ** 2 + 1}
        ops.check("check:table_shapes", lines == expected, f"lines {lines}")

        with open(os.path.join(run_dir, "errors.json"), encoding="utf-8") as fh:
            errors = json.load(fh)
        ops.check("check:y_err", errors["y"] <= 0.05, errors["y"])
        ops.check("check:z_upper_err", errors["z_upper"] <= 0.10, errors["z_upper"])
        ops.check("check:z_lower_err", errors["z_lower"] <= 0.10, errors["z_lower"])
        return {
            "quality": {"y_rel_err": errors["y"], "z_upper_rel_err": errors["z_upper"],
                        "z_lower_rel_err": errors["z_lower"]},
            "checksums": tables,
            "written": {
                "cli.rows_written": sum(_line_count(os.path.join(run_dir, name)) - 1
                                        for name in tables if name.endswith(".csv")),
                # the hashed tables only: the manifest carries a wall-clock time
                "cli.bytes_written": sum(os.path.getsize(os.path.join(run_dir, name))
                                         for name in tables),
            },
        }

    def teardown(self, inputs: dict) -> None:
        shutil.rmtree(inputs["out_dir"], ignore_errors=True)


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


# -- risk-axioms --------------------------------------------------------------


class RiskAxioms(Workload):
    """The axiom ladder of both presets on one ensemble, then the tilt self-test."""

    name = "risk-axioms"
    ops = ("call:check_axioms:absolute", "call:check_axioms:linear", "call:tilt",
           "call:girsanov_selftest",
           "check:absolute:passed", "check:absolute:past-independence",
           "check:absolute:monotonicity", "check:absolute:homogeneity",
           "check:absolute:sub-additivity-q99",
           "check:linear:passed", "check:linear:past-independence",
           "check:linear:monotonicity", "check:linear:translation",
           "check:linear:homogeneity", "check:linear:sub-additivity",
           "check:selftest:passed")

    def setup(self, steps: int, paths: int, seed: int, scratch: str) -> dict:
        import bsvie

        grid = bsvie.build_grid(1.0, steps)
        return {
            "bsvie": bsvie,
            "ensemble": bsvie.sample_ensemble(grid, paths, seed),
            # the `bsvie axioms` presets at rate 0.1 and position 0.7*wT
            "absolute": bsvie.RiskSpec(position="0.7*wT",
                                       aggregator=bsvie.Aggregator.absolute("0.1"),
                                       route="direct"),
            "linear": bsvie.RiskSpec(position="0.7*wT",
                                     aggregator=bsvie.Aggregator.linear("0.1"),
                                     drift=bsvie.DriftSpec(r1="0.3"), route="girsanov"),
        }

    def run(self, inputs: dict, ops: Ops) -> dict:
        bsvie, ens = inputs["bsvie"], inputs["ensemble"]
        absolute = ops.call("call:check_axioms:absolute", bsvie.check_axioms,
                            inputs["absolute"], ens, bsvie.SolverConfig(), shift=0.5)
        linear = ops.call("call:check_axioms:linear", bsvie.check_axioms,
                          inputs["linear"], ens, bsvie.SolverConfig())
        tilted = ops.call("call:tilt", bsvie.tilt, ens, inputs["linear"].drift.negated())
        # The self-test scores 2N+1 moments.  At its default four sigma it
        # false-alarms on about 3% of seeds at 8192 paths (2 of seeds 1-60,
        # max score 4.04), so test the family at a false-alarm rate of 1e-4
        # (Bonferroni, 4.94 sigma at N = 64).  A density of the wrong sign
        # scores 8.8 at this size and still fails.
        scores = 2 * ens.grid.steps + 1
        threshold = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * scores))
        selftest = ops.call("call:girsanov_selftest", bsvie.girsanov_selftest, tilted,
                            threshold=threshold)

        for label, report in (("absolute", absolute), ("linear", linear)):
            # sub-additivity has checks of its own below
            ops.check(f"check:{label}:passed",
                      all(c.passed for c in report.checks if c.axiom != "sub-additivity"),
                      [c.axiom for c in report.checks if not c.passed])
            for axiom, bound, exact in (("past-independence", 0.0, True),
                                        ("monotonicity", 0.0, True),
                                        ("translation", 1e-10, False),
                                        ("homogeneity", 1e-10, False)):
                name = f"check:{label}:{axiom}"
                if name in self.ops:
                    v = report.check(axiom).max_violation
                    ops.check(name, v == 0.0 if exact else v <= bound, v)
        v = linear.check("sub-additivity").max_violation
        ops.check("check:linear:sub-additivity", v <= 0.02, v)
        # Where the absolute preset's largest violation exceeds 0.02 (about
        # 2% of seeds), it sits on the one path that strays furthest, 4.8-5.6
        # sigma at its node, where the polynomial regression extrapolates;
        # it does not shrink with the path count.  Its 99th percentile is set
        # by the basis bias instead: 0.0040-0.0052 over 300 seeds.  A
        # concave aggregator of rate -0.02 lifts it to 0.017.
        q99 = absolute.check("sub-additivity").quantiles["q99"]
        ops.check("check:absolute:sub-additivity-q99", q99 <= 0.01, q99)
        ops.check("check:selftest:passed", selftest.passed, selftest.max_score)
        return {"quality": {
            "subadd_violation": absolute.check("sub-additivity").max_violation,
            "subadd_q99": q99,
            "selftest_max_score": selftest.max_score,
        }}


# -- picard-zeta ----------------------------------------------------------------


class PicardZeta(Workload):
    """Both fixed-point loops on product-linear, against the one-pass solve."""

    name = "picard-zeta"
    ops = ("call:solve_s:one-pass", "call:solve_s:picard", "call:solve_m:zeta",
           "check:picard:converged", "check:picard:ratios", "check:zeta:converged",
           "check:zeta:ratios", "check:picard:y_gap", "check:picard:z_coeff_gap")

    def setup(self, steps: int, paths: int, seed: int, scratch: str) -> dict:
        import bsvie

        case = bsvie.get_case("product-linear")
        grid = case.grid(steps)
        zeta = bsvie.ProblemSpec(
            grid=grid,
            generator=bsvie.Generator.from_expression("-t*y/s^2 + 0.1*zeta"),
            terminal=bsvie.Terminal.from_expression(case.terminal_src),
        )
        return {"bsvie": bsvie, "problem": case.problem(grid), "zeta": zeta,
                "ensemble": bsvie.sample_ensemble(grid, paths, seed)}

    def run(self, inputs: dict, ops: Ops) -> dict:
        bsvie, ens, problem = inputs["bsvie"], inputs["ensemble"], inputs["problem"]
        one = ops.call("call:solve_s:one-pass", bsvie.solve_s, problem, ens)
        picard = ops.call("call:solve_s:picard", bsvie.solve_s, problem, ens,
                          bsvie.SolverConfig(picard=True, tol=1e-8))
        zeta = ops.call("call:solve_m:zeta", bsvie.solve_m, inputs["zeta"], ens)

        for label, report in (("picard", picard), ("zeta", zeta)):
            ops.check(f"check:{label}:converged", report.converged, report.iterations)
            ratios = report.contraction_ratios
            ops.check(f"check:{label}:ratios", all(r < 1.0 for r in ratios), ratios)
        y_gap = _relative(picard.y.values, one.y.values)
        ops.check("check:picard:y_gap", y_gap <= 1e-6, y_gap)
        z_gap = _relative(picard.z.base.coeffs, one.z.base.coeffs)
        ops.check("check:picard:z_coeff_gap", z_gap <= 1e-6, z_gap)

        grid = ens.grid
        exact = grid.nodes[None, :] ** 2 * ens.values
        n = grid.steps  # left-point rule: nodes 0..N-1, as in the package's norms
        return {"quality": {
            "y_rel_err": _relative(picard.y.values[:, :n], exact[:, :n]),
            "picard_iterations": picard.iterations,
            "zeta_iterations": zeta.iterations,
        }}


WORKLOADS = {w.name: w for w in (ReferenceCli(), RiskAxioms(), PicardZeta())}
