"""Command-line front end: flat-file configs in, tables and a manifest out.

Configs are UTF-8 ``key = value`` lines with dotted keys; expressions
are quoted strings.  Every config key has a flag of the same name, and
flags win over the file.  A run writes into a directory keyed by the
hash of its resolved config, so rerunning the same config reproduces
every table byte for byte; the manifest records one checksum per table
(wall-clock time is recorded but hashed into nothing).

Exit codes: 0 success, 1 bad configuration or usage, 2 a Picard solve
(``solver.picard``) did not converge, 3 a verification or axiom check
failed, 4 numerical failure (a sweep produced non-finite values or a node
regression stayed degenerate), 5 out of memory.  Every non-zero exit
prints one ``error:`` line; codes 2 and 3 still write their tables.  The
run directory appears with its first table, and a run that fails with
code 1, 4 or 5 removes the directory it made.  ``solve`` reads the
kernel's figures from one set of column moments
(:func:`~bsvie.norms.column_moments`), and ``z_paths.csv`` streams from
one cell read at a time.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
import time

import numpy as np

from .analytic import CASES, convergence_study, get_case, kernel_errors, reference_fields
from .ensemble import sample_ensemble
from .fields import region_cells
from .girsanov import DriftSpec, girsanov_selftest
from .grid import build_grid
from .norms import cell_forms, column_moments, mean_square, triangle_norm
from .regression import BasisSpec, DegenerateEnsembleError, RegressionError
from .risk import Aggregator, RiskSpec, check_axioms, discount_factor, route
from .solver import (
    Generator,
    ProblemSpec,
    SolverConfig,
    SolverError,
    Terminal,
    residual,
    solve_adapted,
    solve_m,
    solve_s,
)

ARTIFACT_VERSION = "1"
OUTPUT_ROOT_VAR = "BSVIE_OUTPUT_ROOT"

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_NO_CONVERGENCE = 2
_EXIT_CHECK_FAILED = 3
_EXIT_NUMERICAL = 4
_EXIT_MEMORY = 5
# the failures that still write their tables
_OUTCOMES = {_EXIT_NO_CONVERGENCE: "the Picard iteration did not converge; the tables hold "
                                   "its last iterate",
             _EXIT_CHECK_FAILED: "a verification or axiom check failed; the tables say which"}


class CliError(Exception):
    """Configuration problem; maps to exit code 1."""


# -- config schema ----------------------------------------------------------

# key -> (kind, default); kinds: int, float, bool, str, ints
_COMMON_KEYS = {
    "grid.horizon": ("float", 1.0),
    "grid.start": ("float", 0.0),
    "grid.steps": ("int", 64),
    "ensemble.paths": ("int", 16384),
    "ensemble.seed": ("int", 1),
    "solver.degree": ("int", 3),
    "solver.ridge": ("float", 1e-10),
    "solver.picard": ("bool", False),
    "solver.tol": ("float", 1e-6),
    "solver.max_iter": ("int", 50),
    "output.dir": ("str", ""),
    "output.csv": ("bool", True),
    "output.json": ("bool", True),
    "output.svg": ("bool", False),
    "output.full_paths": ("bool", False),
}

_SCHEMAS = {
    "solve": {
        **_COMMON_KEYS,
        "problem.case": ("str", ""),
        "problem.generator": ("str", ""),
        "problem.terminal": ("str", ""),
        "problem.mode": ("str", "s"),
    },
    "risk": {
        **_COMMON_KEYS,
        "risk.position": ("str", "0.7*wT"),
        "risk.aggregator": ("str", "linear"),
        "risk.rate": ("str", "0.1"),
        "risk.expr": ("str", ""),
        "risk.r1": ("str", "0"),
        "risk.r2": ("str", "0"),
        "risk.route": ("str", "direct"),
    },
    "verify": {
        **{**_COMMON_KEYS, "output.svg": ("bool", True)},
        "verify.case": ("str", ""),
        "verify.levels": ("ints", (16, 32, 64)),
        "verify.mode": ("str", "s"),
    },
    "axioms": {
        **_COMMON_KEYS,
        "axioms.preset": ("str", "linear"),
        "axioms.rate": ("str", "0.1"),
        "axioms.expr": ("str", ""),
        "axioms.position": ("str", "0.7*wT"),
        "axioms.shift": ("float", 1.0),
        "axioms.scale": ("float", 2.0),
        "axioms.companion": ("float", 0.5),
        "axioms.route": ("str", "direct"),
        "axioms.r1": ("str", "0"),
        "axioms.r2": ("str", "0"),
    },
    "residual": {
        **_COMMON_KEYS,
        "residual.case": ("str", ""),
    },
}

# ergonomic aliases; every one maps onto a schema key
_ALIASES = {
    "solve": {"case": "problem.case", "mode": "problem.mode"},
    "risk": {"route": "risk.route", "position": "risk.position"},
    "verify": {"case": "verify.case", "levels": "verify.levels", "mode": "verify.mode"},
    "axioms": {"preset": "axioms.preset", "eta": "axioms.rate", "c": "axioms.shift",
               "route": "axioms.route"},
    "residual": {"case": "residual.case"},
}
_COMMON_ALIASES = {"n": "grid.steps", "m": "ensemble.paths", "seed": "ensemble.seed",
                   "degree": "solver.degree"}


def _coerce(key: str, kind: str, raw: str):
    text = raw.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "bool":
            low = text.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(low)
        if kind == "ints":
            return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise CliError(f"key {key}: cannot read {raw!r} as {kind}") from None
    return text


def _unquote(value: str) -> str:
    v = value.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "\"'":
        return v[1:-1]
    return v


def parse_config_text(text: str, schema: dict) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment line."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"config line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in schema:
            raise CliError(
                f"config line {lineno}: unknown key {key!r}; known keys: "
                + ", ".join(sorted(schema))
            )
        out[key] = _coerce(key, schema[key][0], _unquote(value))
    return out


def _resolve_config(sub: str, args: argparse.Namespace) -> dict:
    schema = _SCHEMAS[sub]
    config = {key: default for key, (_, default) in schema.items()}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise CliError(f"cannot read config file: {e}") from None
        config.update(parse_config_text(text, schema))
    values = vars(args)
    for key in schema:
        if values.get(key) is not None:
            config[key] = _coerce(key, schema[key][0], values[key])
    return config


def _canonical(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return f'"{value}"'


def _config_digest(sub: str, config: dict) -> str:
    lines = [f"subcommand = {sub}"]
    lines += [f"{k} = {_canonical(config[k])}" for k in sorted(config)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# -- emission ---------------------------------------------------------------


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _json_safe(obj):
    """Strict JSON: numpy scalars unwrapped, non-finite floats to null."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


class _HashedFile(io.BufferedWriter):
    """A new binary file that hashes the bytes written to it."""

    def __init__(self, path: str) -> None:
        super().__init__(io.FileIO(path, "wb"))
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return super().write(data)


class _Emitter:
    def __init__(self, run_dir: str, flags: dict):
        self.run_dir = run_dir
        self.flags = flags
        self.tables: dict[str, str] = {}
        self.created = False

    def _open(self, name: str) -> _HashedFile:
        # the directory appears with its first file, so a run that fails
        # before writing anything leaves nothing behind
        if not os.path.isdir(self.run_dir):
            os.makedirs(self.run_dir)
            self.created = True
        return _HashedFile(os.path.join(self.run_dir, name))

    def discard(self) -> None:
        """Remove the run directory of a failed run, if the run made it."""
        if self.created:
            shutil.rmtree(self.run_dir, ignore_errors=True)

    def _store(self, name: str, data: bytes) -> None:
        with self._open(name) as fh:
            fh.write(data)
        self.tables[name] = fh.sha256.hexdigest()

    def csv(self, name: str, header: list, rows) -> None:
        if not self.flags.get("output.csv", True):
            return
        # rows stream to disk, so no copy of the table is held in memory
        with io.TextIOWrapper(self._open(name), encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)  # RFC 4180: CRLF rows, minimal quoting
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(x) for x in row])
        self.tables[name] = fh.buffer.sha256.hexdigest()

    def json(self, name: str, payload) -> None:
        if not self.flags.get("output.json", True):
            return
        data = json.dumps(_json_safe(payload), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
        self._store(name, data.encode("utf-8"))

    def svg(self, name: str, text: str) -> None:
        if not self.flags.get("output.svg", False):
            return
        self._store(name, text.encode("utf-8"))

    def manifest(self, sub: str, config: dict, digest: str, elapsed: float) -> None:
        payload = {
            "subcommand": sub,
            "artifact_version": ARTIFACT_VERSION,
            "config": {k: _canonical(v) for k, v in config.items()},
            "config_sha256": digest,
            "seed": config["ensemble.seed"],
            "wall_clock_seconds": round(elapsed, 3),
            "tables": dict(sorted(self.tables.items())),
        }
        data = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        with self._open("manifest.json") as fh:
            fh.write(data.encode("utf-8"))


def _svg_chart(title: str, series: list) -> str:
    """Log-log error-vs-level line chart; the only chart we draw."""
    width, height = 640, 440
    left, right, top, bottom = 70, 610, 50, 390
    pts = [(x, y) for _, data in series for x, y in data if x > 0 and y > 0]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(left + right) // 2}" y="28" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{title}</text>',
    ]
    if not pts:
        out.append(f'<text x="{(left + right) // 2}" y="{(top + bottom) // 2}" '
                   f'text-anchor="middle" font-family="monospace" font-size="13">'
                   f'all errors at machine zero</text></svg>')
        return "\n".join(out)
    lx = [math.log10(x) for x, _ in pts]
    ly = [math.log10(y) for _, y in pts]
    x0, x1 = min(lx) - 0.05, max(lx) + 0.05
    y0, y1 = min(ly) - 0.2, max(ly) + 0.2

    def px(v):
        return left + (math.log10(v) - x0) / (x1 - x0) * (right - left)

    def py(v):
        return bottom - (math.log10(v) - y0) / (y1 - y0) * (bottom - top)

    out.append(f'<rect x="{left}" y="{top}" width="{right - left}" '
               f'height="{bottom - top}" fill="none" stroke="#888"/>')
    for d in range(int(math.floor(y0)), int(math.ceil(y1)) + 1):
        v = 10.0**d
        if y0 <= d <= y1:
            yy = py(v)
            out.append(f'<line x1="{left}" y1="{yy:.1f}" x2="{right}" y2="{yy:.1f}" '
                       f'stroke="#ddd"/>')
            out.append(f'<text x="{left - 8}" y="{yy + 4:.1f}" text-anchor="end" '
                       f'font-family="monospace" font-size="11">1e{d}</text>')
    for x in sorted({x for x, _ in pts}):
        xx = px(x)
        out.append(f'<line x1="{xx:.1f}" y1="{bottom}" x2="{xx:.1f}" y2="{bottom + 5}" '
                   f'stroke="#888"/>')
        out.append(f'<text x="{xx:.1f}" y="{bottom + 20}" text-anchor="middle" '
                   f'font-family="monospace" font-size="11">{int(x)}</text>')
    out.append(f'<text x="{(left + right) // 2}" y="{height - 12}" text-anchor="middle" '
               f'font-family="monospace" font-size="12">level (log)</text>')
    colors = ("#1f6feb", "#d29922", "#3fb950", "#f85149")
    for k, (label, data) in enumerate(series):
        data = [(x, y) for x, y in data if x > 0 and y > 0]
        if not data:
            continue
        color = colors[k % len(colors)]
        path = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in data)
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in data:
            out.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        out.append(f'<text x="{right - 6}" y="{top + 18 + 16 * k}" text-anchor="end" '
                   f'font-family="monospace" font-size="12" fill="{color}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out)


# -- shared run pieces ------------------------------------------------------


def _solver_config(config: dict) -> SolverConfig:
    return SolverConfig(
        basis=BasisSpec(degree=config["solver.degree"], ridge=config["solver.ridge"]),
        picard=config["solver.picard"],
        tol=config["solver.tol"],
        max_iter=config["solver.max_iter"],
    )


def _run_dir(sub: str, config: dict, digest: str) -> str:
    root = config["output.dir"] or os.environ.get(OUTPUT_ROOT_VAR, "runs")
    return os.path.join(root, f"{sub}-{digest[:12]}")


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """Path mean and standard error, with the bits of ``vals.mean()`` and
    ``vals.std(ddof=1) / np.sqrt(m)`` (0.0 for one path).

    One sum serves the mean and the centring, and the centred values are
    squared in place in the one temporary the subtraction makes.
    """
    m = vals.shape[0]
    mean = np.add.reduce(vals) / m
    if m == 1:
        return float(mean), 0.0
    centred = np.subtract(vals, mean)
    sum_sq = np.add.reduce(np.square(centred, out=centred))
    return float(mean), float(np.sqrt(sum_sq / (m - 1)) / np.sqrt(m))


def _field_rows(field_values: np.ndarray, nodes: np.ndarray):
    for i, t in enumerate(nodes):
        col = field_values[:, i]
        yield i, float(t), *_mean_stderr(col), float(np.sqrt(mean_square(col)))


def _surface_rows(z, grams: np.ndarray, centred: np.ndarray, nodes: np.ndarray):
    """The ``z_surface.csv`` rows: each cell's path mean and standard error.

    Both come from the cell's coefficients c and its column's moments
    (:func:`~bsvie.norms.column_moments`): the mean is c . G_j[0], and the
    standard error sqrt(max(c^T C_j c, 0) M / (M - 1)) / sqrt(M), 0.0 for
    one path.
    """
    coeffs, m = z.coeffs, z.n_paths
    mean = np.zeros(coeffs.shape[:2])
    for a in range(coeffs.shape[2]):
        mean += coeffs[:, :, a] * grams[:, 0, a]
    stderr = np.zeros_like(mean)
    if m > 1:
        stderr = np.sqrt(np.maximum(cell_forms(coeffs, centred), 0.0) * m / (m - 1)) / np.sqrt(m)
    for i, j in region_cells(z.region, len(nodes)):
        rep = z.representative(i, j)
        yield i, j, float(nodes[i]), float(nodes[j]), float(mean[rep]), float(stderr[rep])


def _path_rows(z, nodes: np.ndarray):
    """The ``z_paths.csv`` rows in (i, j, p) order, read one cell at a time."""
    for i, j in region_cells(z.region, len(nodes)):
        t_i, t_j = float(nodes[i]), float(nodes[j])
        for p, v in enumerate(z.at(i, j)):
            yield p, i, j, t_i, t_j, float(v)


# -- subcommands ------------------------------------------------------------


def _cmd_solve(config: dict, emit: _Emitter) -> int:
    case = None
    if config["problem.case"]:
        if config["problem.generator"] or config["problem.terminal"]:
            raise CliError("give either problem.case or generator+terminal expressions")
        case = get_case(config["problem.case"])
        grid = case.grid(config["grid.steps"])
        problem = case.problem(grid)
    else:
        if not (config["problem.generator"] and config["problem.terminal"]):
            raise CliError("need problem.case, or both problem.generator and problem.terminal")
        grid = build_grid(config["grid.horizon"], config["grid.steps"], config["grid.start"])
        problem = ProblemSpec(
            grid=grid,
            generator=Generator.from_expression(config["problem.generator"]),
            terminal=Terminal.from_expression(config["problem.terminal"]),
        )
    mode = config["problem.mode"]
    solvers = {"s": solve_s, "m": solve_m, "adapted": solve_adapted}
    if mode not in solvers:
        raise CliError(f"problem.mode must be one of {sorted(solvers)}, got {mode!r}")
    solver_config = _solver_config(config)
    ensemble = sample_ensemble(grid, config["ensemble.paths"], config["ensemble.seed"])
    report = solvers[mode](problem, ensemble, solver_config)

    emit.csv("y_table.csv", ["i", "t", "mean", "stderr", "l2"],
             _field_rows(report.y.values, grid.nodes))
    # the norm, the kernel table and the error metrics read one set of column moments
    k = report.z.coeffs.shape[2]
    if case is not None:
        reference = reference_fields(case, ensemble)
        k = max(k, reference.z_s.coeffs.shape[2])
    grams, centred = column_moments(report.z.state, k)
    emit.csv("z_surface.csv", ["i", "j", "t_i", "t_j", "mean", "stderr"],
             _surface_rows(report.z, grams, centred, grid.nodes))
    if config["output.csv"] and config["output.full_paths"]:
        print(
            "warning: per-path export is O(paths * steps^2) rows "
            f"(~{config['ensemble.paths'] * (grid.steps + 1) ** 2} here)",
            file=sys.stderr,
        )
        emit.csv("y_paths.csv", ["p", "i", "t", "value"],
                 ((p, i, float(grid.nodes[i]), float(v))
                  for p in range(ensemble.n_paths)
                  for i, v in enumerate(report.y.values[p])))
        emit.csv("z_paths.csv", ["p", "i", "j", "t_i", "t_j", "value"],
                 _path_rows(report.z, grid.nodes))

    summary = {
        "mode": report.mode,
        "iterations": report.iterations,
        "converged": bool(report.converged),
        "update_norms": [float(u) for u in report.update_norms],
        "contraction_ratios": [float(r) for r in report.contraction_ratios],
        "s2_norm": triangle_norm(report.y, report.z, grams),
        "steps": grid.steps,
        "paths": ensemble.n_paths,
    }
    if case is not None:
        errors = kernel_errors(report, reference, grams)
        summary["errors"] = {
            "y": errors.y_error,
            "z_upper": errors.z_upper_error,
            "z_lower": errors.z_lower_error,
            "z_diag": errors.z_diag_error,
        }
        emit.json("errors.json", summary["errors"])
    emit.json("summary.json", summary)
    return _EXIT_OK if report.converged else _EXIT_NO_CONVERGENCE


def _aggregator(kind_key: str, prefix: str, config: dict) -> Aggregator:
    kind = config[kind_key]
    if kind == "zero":
        return Aggregator.zero()
    if kind == "linear":
        return Aggregator.linear(config[f"{prefix}.rate"])
    if kind == "absolute":
        return Aggregator.absolute(config[f"{prefix}.rate"])
    if kind == "expr":
        if not config[f"{prefix}.expr"]:
            raise CliError(f"{kind_key} = expr needs {prefix}.expr")
        return Aggregator.expression(config[f"{prefix}.expr"])
    raise CliError(f"{kind_key} must be zero|linear|absolute|expr, got {kind!r}")


def _risk_spec(prefix: str, kind_key: str, config: dict):
    """Risk spec, grid and ensemble from ``kind_key`` and the ``prefix.*`` keys."""
    spec = RiskSpec(
        position=config[f"{prefix}.position"],
        aggregator=_aggregator(kind_key, prefix, config),
        drift=DriftSpec(r1=config[f"{prefix}.r1"], r2=config[f"{prefix}.r2"]),
        route=config[f"{prefix}.route"],
    )
    grid = build_grid(config["grid.horizon"], config["grid.steps"], config["grid.start"])
    ensemble = sample_ensemble(grid, config["ensemble.paths"], config["ensemble.seed"])
    return spec, grid, ensemble


def _cmd_risk(config: dict, emit: _Emitter) -> int:
    solver_config = _solver_config(config)
    spec, grid, ensemble = _risk_spec("risk", "risk.aggregator", config)
    # one route driver serves the solve and, on the girsanov route, the self-test
    driver, solve = route(spec, ensemble, solver_config)
    report = solve(spec.position)
    field = report.y

    # the summary's sup reads the table's own l2 figures, so the two agree bitwise
    rows = list(_field_rows(field.values, grid.nodes))
    emit.csv("rho_table.csv", ["i", "t", "mean", "stderr", "l2"], rows)
    summary = {
        "route": spec.route,
        "position": config["risk.position"],
        "aggregator": spec.aggregator.describe(),
        "converged": bool(report.converged),
        "iterations": report.iterations,
        "sup_node_l2": max(row[-1] for row in rows),
    }
    if spec.route == "girsanov":
        selftest = girsanov_selftest(driver)
        summary["selftest"] = {"passed": bool(selftest.passed),
                               "max_score": float(selftest.max_score)}
    emit.json("summary.json", summary)
    return _EXIT_OK if report.converged else _EXIT_NO_CONVERGENCE


def _decreasing_or_zero(errors: list[float]) -> bool:
    if all(v <= 1e-12 for v in errors):
        return True
    return all(b < a for a, b in zip(errors, errors[1:]))


def _cmd_verify(config: dict, emit: _Emitter) -> int:
    if not config["verify.case"]:
        raise CliError("verify needs verify.case (one of: " + ", ".join(sorted(CASES)) + ")")
    levels = [(n, config["ensemble.paths"]) for n in config["verify.levels"]]
    table = convergence_study(
        config["verify.case"],
        levels,
        config=_solver_config(config),
        seed=config["ensemble.seed"],
        mode=config["verify.mode"],
    )
    rows = []
    for (steps, paths), rep in zip(table.levels, table.reports):
        rows.append([steps, paths, rep.y_error, rep.z_upper_error,
                     "" if rep.z_lower_error is None else rep.z_lower_error,
                     rep.z_diag_error])
    emit.csv("errors.csv", ["steps", "paths", "y_error", "z_upper", "z_lower", "z_diag"], rows)

    y_series = [r.y_error for r in table.reports]
    z_series = [r.z_upper_error for r in table.reports]
    passed = _decreasing_or_zero(y_series) and _decreasing_or_zero(z_series)
    emit.json("orders.json", {
        "case": table.case,
        "levels": [list(l) for l in table.levels],
        "y_orders": table.y_orders,
        "z_orders": table.z_orders,
        "errors_decrease": passed,
    })
    steps_axis = [s for s, _ in table.levels]
    emit.svg("chart.svg", _svg_chart(
        f"{table.case}: error vs steps",
        [("Y", list(zip(steps_axis, y_series))),
         ("Z upper", list(zip(steps_axis, z_series)))],
    ))
    return _EXIT_OK if passed else _EXIT_CHECK_FAILED


def _cmd_axioms(config: dict, emit: _Emitter) -> int:
    solver_config = _solver_config(config)
    spec, grid, ensemble = _risk_spec("axioms", "axioms.preset", config)
    report = check_axioms(
        spec, ensemble, solver_config,
        shift=config["axioms.shift"],
        scale=config["axioms.scale"],
        companion=config["axioms.companion"],
    )
    rows = []
    for c in report.checks:
        q = c.quantiles or {}
        rows.append([c.axiom, c.max_violation, c.tolerance, c.passed, c.sample_size,
                     q.get("q50", ""), q.get("q90", ""), q.get("q99", ""), c.detail])
    emit.csv("axioms.csv",
             ["axiom", "max_violation", "tolerance", "passed", "sample_size",
              "q50", "q90", "q99", "detail"], rows)
    if spec.aggregator.kind == "linear":
        factor = discount_factor(spec.aggregator.rate, grid)
        emit.csv("discount.csv", ["i", "t", "ode_factor"],
                 ((i, float(t), float(f)) for i, (t, f) in
                  enumerate(zip(grid.nodes, factor))))
    emit.json("summary.json", {
        "route": report.route,
        "steps": report.steps,
        "paths": report.n_paths,
        "passed": bool(report.passed),
        "axioms": {c.axiom: {"max_violation": c.max_violation, "passed": bool(c.passed)}
                   for c in report.checks},
    })
    return _EXIT_OK if report.passed else _EXIT_CHECK_FAILED


def _cmd_residual(config: dict, emit: _Emitter) -> int:
    if not config["residual.case"]:
        raise CliError("residual needs residual.case (one of: " + ", ".join(sorted(CASES)) + ")")
    case = get_case(config["residual.case"])
    grid = case.grid(config["grid.steps"])
    problem = case.problem(grid)
    ensemble = sample_ensemble(grid, config["ensemble.paths"], config["ensemble.seed"])
    fields = reference_fields(case, ensemble)
    row = residual(problem, fields.y, fields.z_s, ensemble, form="row")
    col = residual(problem, fields.y, fields.z_s, ensemble, form="column")
    emit.csv("residuals.csv", ["i", "t", "row_rms", "column_rms"],
             ((i, float(t), float(a), float(b)) for i, (t, a, b) in
              enumerate(zip(grid.nodes, row.per_node, col.per_node))))
    emit.json("summary.json", {
        "case": case.id,
        "row_aggregate": row.aggregate,
        "column_aggregate": col.aggregate,
        "forms_match_bitwise": bool(np.array_equal(row.per_node, col.per_node)),
    })
    return _EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "risk": _cmd_risk,
    "verify": _cmd_verify,
    "axioms": _cmd_axioms,
    "residual": _cmd_residual,
}


# -- argument plumbing ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`CliError` (exit 1) instead of exiting 2."""

    def error(self, message: str):
        raise CliError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bsvie",
        description="Regression Monte-Carlo solvers for two-time backward systems",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for sub, schema in _SCHEMAS.items():
        p = subs.add_parser(sub)
        p.add_argument("--config", help="flat key = value config file")
        for key in schema:
            p.add_argument(f"--{key}", dest=key, metavar="V")
        aliases = {**_COMMON_ALIASES, **_ALIASES.get(sub, {})}
        for alias, key in aliases.items():
            p.add_argument(f"--{alias}", dest=key, metavar="V")
        if "output.full_paths" in schema:
            p.add_argument("--full-paths", dest="output.full_paths",
                           action="store_const", const="true")
    return parser


def main(argv: list | None = None) -> int:
    started = time.perf_counter()
    emit = None
    try:
        args = _build_parser().parse_args(argv)
        config = _resolve_config(args.subcommand, args)
        digest = _config_digest(args.subcommand, config)
        emit = _Emitter(_run_dir(args.subcommand, config, digest),
                        {k: config[k] for k in config if k.startswith("output.")})
        code = _COMMANDS[args.subcommand](config, emit)
        emit.manifest(args.subcommand, config, digest, time.perf_counter() - started)
    except CliError as e:
        code, message = _EXIT_CONFIG, str(e)
    except (SolverError, DegenerateEnsembleError, RegressionError) as e:
        code, message = _EXIT_NUMERICAL, f"numerical failure: {e}"
    except MemoryError as e:
        code, message = _EXIT_MEMORY, f"out of memory: {str(e) or 'an allocation failed'}"
    except (KeyError, ValueError) as e:
        code, message = _EXIT_CONFIG, str(e)
    except OSError as e:
        code, message = _EXIT_CONFIG, f"cannot write output: {e}"
    else:
        print(emit.run_dir)
        if code in _OUTCOMES:
            print(f"error: {_OUTCOMES[code]}", file=sys.stderr)
        return code
    if emit is not None:
        emit.discard()
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
