"""In-memory span recorder wrapped around bsvie's public entry points.

Tracing is installed at run time by replacing functions and methods with
timing wrappers; nothing in the package itself changes.  A function that
other bsvie modules imported by name is replaced in every one of them, so
calls through any import path are seen.

Each span records its name, layer (module), start, end and the index of
its parent span.  A span's self time is its duration minus the durations
of its direct children; calls are single-threaded, so children never
overlap and their durations add up to the time they cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

NAME, LAYER, START, END, PARENT = range(5)

_SOLVERS = ("solve_s", "solve_m", "solve_adapted")


class Tracer:
    """Collects spans and counters for one traced repetition."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_ratio = 0.0
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str, after=None):
        """Timing wrapper; ``after(tracer, args, result)`` adds counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced


def _replace_everywhere(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname != "bsvie" and not modname.startswith("bsvie."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _count_fit(tracer: Tracer, args, coeffs) -> None:
    targets = args[1]
    tracer.counts["regression.fit_rows"] += targets.shape[0] if targets.ndim == 2 else 1
    tracer.counts["regression.bytes_computed"] += targets.nbytes + coeffs.nbytes


def _count_evaluate(tracer: Tracer, args, values) -> None:
    tracer.counts["regression.bytes_computed"] += args[1].nbytes + values.nbytes


def _count_solve(tracer: Tracer, args, report) -> None:
    # levels swept, as the report states them: one pass is `steps` levels
    tracer.counts["solver.sweep_levels"] += report.iterations * report.y.grid.steps
    if report.update_norms:
        tracer.counts["solver.picard_iterations"] += report.iterations
    for ratio in report.contraction_ratios:
        tracer.max_ratio = max(tracer.max_ratio, float(ratio))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of an imported bsvie package."""
    import bsvie.analytic as analytic
    import bsvie.cli as cli
    import bsvie.ensemble as ensemble
    import bsvie.expr as expr
    import bsvie.fields as fields
    import bsvie.girsanov as girsanov
    import bsvie.norms as norms
    import bsvie.regression as regression
    import bsvie.risk as risk
    import bsvie.solver as solver

    def function(module, attr: str, layer: str, after=None, before=None):
        original = getattr(module, attr)
        inner = original if before is None else before(original)
        _replace_everywhere(original, tracer.wrap(inner, attr, layer, after))

    def method(cls, attr: str, layer: str, after=None):
        original = getattr(cls, attr)
        setattr(cls, attr, tracer.wrap(original, f"{cls.__name__}.{attr}", layer, after))

    def listing_cells(original):
        # the cell iterable is usually a generator: list it to count it
        @functools.wraps(original)
        def counted(z, cells):
            cells = list(cells)
            tracer.counts["norms.cells_summed"] += len(cells)
            return original(z, cells)

        return counted

    function(ensemble, "sample_ensemble", "ensemble")
    method(regression.NodeDesign, "__init__", "regression")
    method(regression.NodeDesign, "fit", "regression", _count_fit)
    method(regression.NodeDesign, "evaluate", "regression", _count_evaluate)
    function(expr, "parse", "expr")
    function(expr, "eval_expr", "expr")
    method(fields.SurfaceField, "at", "fields")
    function(fields, "design_matrix", "fields")
    function(norms, "s2_norm", "norms")
    function(norms, "z_cells_l2", "norms", before=listing_cells)
    for name in _SOLVERS:
        function(solver, name, "solver", _count_solve)
    function(girsanov, "tilt", "girsanov")
    function(girsanov, "girsanov_selftest", "girsanov")
    function(risk, "check_axioms", "risk")
    function(analytic, "reference_fields", "analytic")
    function(analytic, "error_metrics", "analytic")
    function(cli, "main", "cli")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times (seconds) from the recorded spans."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    outer_reads = solves_in_checks = 0
    for k, s in enumerate(spans):
        name, duration = s[NAME], s[END] - s[START]
        own = duration - child_time[k]
        calls[name] += 1
        total[name] += duration
        self_time[name] += own
        layer_self[s[LAYER]] += own
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if name == "SurfaceField.at" and parent != "SurfaceField.at":
            outer_reads += 1
        if name in _SOLVERS and _has_ancestor(spans, k, "check_axioms"):
            solves_in_checks += 1

    counts = tracer.counts
    checks = calls["check_axioms"]
    return {
        "ensemble.sample_s": total["sample_ensemble"],
        "regression.design_builds": calls["NodeDesign.__init__"],
        "regression.design_s": self_time["NodeDesign.__init__"],
        "regression.fit_calls": calls["NodeDesign.fit"],
        "regression.fit_rows": counts["regression.fit_rows"],
        "regression.fit_s": self_time["NodeDesign.fit"],
        "regression.evaluate_calls": calls["NodeDesign.evaluate"],
        "regression.evaluate_s": self_time["NodeDesign.evaluate"],
        "regression.bytes_computed": counts["regression.bytes_computed"],
        "expr.parse_calls": calls["parse"],
        "expr.eval_calls": calls["eval_expr"],
        "expr.eval_s": self_time["eval_expr"],
        "fields.surface_reads": outer_reads,
        "fields.surface_read_s": self_time["SurfaceField.at"],
        "fields.design_matrix_calls": calls["design_matrix"],
        "fields.design_matrix_s": self_time["design_matrix"],
        "norms.cells_summed": counts["norms.cells_summed"],
        "norms.s2_norm_s": total["s2_norm"],
        "solver.solves": sum(calls[n] for n in _SOLVERS),
        "solver.sweep_levels": counts["solver.sweep_levels"],
        "solver.self_s": layer_self["solver"],
        "solver.picard_iterations": counts["solver.picard_iterations"],
        "solver.max_contraction_ratio": tracer.max_ratio,
        "girsanov.tilts": calls["tilt"],
        "girsanov.tilt_s": total["tilt"],
        "girsanov.selftest_s": total["girsanov_selftest"],
        "risk.checks": checks,
        "risk.solves_per_check": solves_in_checks / checks if checks else 0.0,
        "risk.self_s": layer_self["risk"],
        "analytic.reference_fields_s": total["reference_fields"],
        "analytic.error_metrics_s": self_time["error_metrics"],
        "cli.self_s": layer_self["cli"],
        "trace.spans": len(spans),
    }


def _has_ancestor(spans: list, k: int, name: str) -> bool:
    parent = spans[k][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
