"""Dynamic coherent risk of a terminal position, with axiom checks.

The risk of a position psi at node t_i is the Y-component of a
symmetric-kernel backward system with free term -psi, an aggregator
f(t, s, y) under the integral, and deterministic rates multiplying the
kernel and its mirror.  Two routes compute it: fold the rate terms into
the generator, or remove them by tilting the driver and reweighting
paths.  Both read the same physical ensemble, so their gap is scheme
error, not sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .ensemble import PathEnsemble
from .expr import Bin, Call, Node as ExprNode, Num, Var, format_expr, free_variables, parse
from .fields import AdaptedField
from .girsanov import (
    DriftSpec,
    SelftestReport,
    girsanov_selftest,
    rate_ast,
    rate_on_grid,
    tilt,
)
from .grid import TimeGrid
from .solver import Driver, Generator, ProblemSpec, SolveReport, SolverConfig, Terminal, solve_s

_AGG_NAMES = frozenset(("t", "s", "y", "T", "T1"))

ROUTES = ("direct", "girsanov")

# axiom tolerances, relative to the sup-node L2 size of the base risk
# (monotonicity, sub-additivity) or absolute (the exact-algebra checks)
_MONOTONICITY_TOL = 0.02
_SUBADDITIVITY_TOL = 0.02
_EXACT_TOL = 1e-10
_FACTOR_TOL = 1e-3


class RiskSetupError(ValueError):
    """Ill-posed risk setup."""


@dataclass(frozen=True)
class Aggregator:
    """Running cost f(t, s, y) under the outer integral.

    The two rate presets keep the letter-free surface: ``linear`` is
    rate(s) * y and the coherent workhorse; ``absolute`` is
    rate(s) * |y|, sub-additive and positively homogeneous but not
    additive, which is what the axiom checks need to exercise.
    """

    kind: str = "zero"
    rate: str | float = 0.0
    expr: str | None = None

    @classmethod
    def zero(cls) -> "Aggregator":
        return cls("zero")

    @classmethod
    def linear(cls, rate: str | float) -> "Aggregator":
        return cls("linear", rate=rate)

    @classmethod
    def absolute(cls, rate: str | float) -> "Aggregator":
        return cls("absolute", rate=rate)

    @classmethod
    def expression(cls, src: str) -> "Aggregator":
        ast = parse(src)
        stray = free_variables(ast) - _AGG_NAMES
        if stray:
            raise RiskSetupError(
                f"aggregator may read {sorted(_AGG_NAMES)} only, got {sorted(stray)}"
            )
        return cls("expr", expr=format_expr(ast))

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "linear", "absolute", "expr"):
            raise RiskSetupError(f"unknown aggregator kind {self.kind!r}")
        if self.kind == "expr" and self.expr is None:
            raise RiskSetupError("expression aggregator needs a source")

    @property
    def is_linear(self) -> bool:
        return self.kind in ("zero", "linear")

    @property
    def is_homogeneous(self) -> bool:
        """Positively homogeneous in y, so scaling commutes with solving."""
        return self.kind in ("zero", "linear", "absolute")

    def ast(self) -> ExprNode:
        """f as an expression in (t, s, y, T, T1)."""
        if self.kind == "zero":
            return Num(0.0)
        if self.kind == "expr":
            return parse(self.expr)
        rate = rate_ast(self.rate, "aggregator rate", RiskSetupError)
        y = Var("y") if self.kind == "linear" else Call("abs", (Var("y"),))
        return Bin("*", rate, y)

    def describe(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "expr":
            return self.expr
        rate = self.rate if isinstance(self.rate, str) else repr(float(self.rate))
        return f"{rate} * y" if self.kind == "linear" else f"{rate} * |y|"


def position_terminal(position: str | float | Terminal) -> Terminal:
    """Accept a constant, an expression in (t, wt, wT), or a Terminal."""
    if isinstance(position, Terminal):
        return position
    if isinstance(position, (int, float)):
        return Terminal.constant(float(position))
    return Terminal.from_expression(position)


@dataclass(frozen=True)
class RiskSpec:
    """Position, aggregator, kernel rates, and the evaluation route."""

    position: str | float | Terminal
    aggregator: Aggregator = Aggregator.zero()
    drift: DriftSpec = DriftSpec()
    route: str = "direct"

    def __post_init__(self) -> None:
        if self.route not in ROUTES:
            raise RiskSetupError(f"route must be one of {ROUTES}, got {self.route!r}")


def _direct_generator(spec: RiskSpec) -> Generator:
    r1 = rate_ast(spec.drift.r1, "rate r1", RiskSetupError)
    r2 = rate_ast(spec.drift.r2, "rate r2", RiskSetupError)
    f = spec.aggregator.ast()
    # the symmetric solver identifies the mirrored kernel with the
    # kernel, so both rates act on z: f + (r1 + r2) * z.  Two literal
    # zero rates leave f alone, so the sweep never evaluates the kernel
    if r1 == Num(0.0) and r2 == Num(0.0):
        return Generator.from_expression(f)
    return Generator.from_expression(Bin("+", f, Bin("*", Bin("+", r1, r2), Var("z"))))


def route(
    spec: RiskSpec, ensemble: PathEnsemble, config: SolverConfig | None = None
) -> tuple[Driver, Callable[[str | float | Terminal], SolveReport]]:
    """The spec's route on ``ensemble``: its driver, and ``solve(position)`` on it.

    The driver and generator are built once, so every solve shares the
    driver's node designs; the free term -psi stays on the physical paths.
    """
    if spec.route == "direct":
        driver = Driver.from_ensemble(ensemble)
        generator = _direct_generator(spec)
    else:
        # rates enter the equation with a plus sign, so absorbing them into
        # the driver means shifting it the other way: the drift-free form
        # lives on W - int(r), which is the tilt by the negated rate
        driver = tilt(ensemble, spec.drift.negated())
        generator = Generator.from_expression(spec.aggregator.ast())

    def solve(position: str | float | Terminal) -> SolveReport:
        psi = position_terminal(position)

        def negated(grid: TimeGrid, w: np.ndarray) -> np.ndarray:
            values = psi.eval_all(grid, w)
            return np.negative(values, out=values)

        terminal = Terminal(negated, repeats=psi.repeats)
        problem = ProblemSpec(grid=ensemble.grid, generator=generator, terminal=terminal)
        return solve_s(problem, driver, config)

    return driver, solve


def rho(spec: RiskSpec, ensemble: PathEnsemble,
        config: SolverConfig | None = None) -> AdaptedField:
    """Risk field rho(t_i) per path, positive for adverse positions."""
    return route(spec, ensemble, config)[1](spec.position).y


@dataclass(frozen=True)
class RouteReport:
    """Gap between the risk computed both ways on one ensemble."""

    selftest: SelftestReport
    max_gap: float
    relative_gap: float


def _sup_node_l2(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(values**2, axis=0)).max())


def route_agreement(spec: RiskSpec, ensemble: PathEnsemble,
                    config: SolverConfig | None = None) -> RouteReport:
    """Direct and tilted routes on common paths; gap in sup-node L2.

    One tilt serves both the tilted solve and the self-test.
    """
    tilted, solve_tilted = route(replace(spec, route="girsanov"), ensemble, config)
    direct = rho(replace(spec, route="direct"), ensemble, config).values
    diff = solve_tilted(spec.position).y.values - direct
    scale = max(_sup_node_l2(direct), 1e-12)
    return RouteReport(
        selftest=girsanov_selftest(tilted),
        max_gap=_sup_node_l2(diff),
        relative_gap=_sup_node_l2(diff) / scale,
    )


def discount_factor(rate: str | float, grid: TimeGrid) -> np.ndarray:
    """exp of the tail integral of the rate, per node; trapezoid tail.

    Closed-form response of the linear-aggregator risk to a unit
    position shift; exact for constant rates.
    """
    vals = rate_on_grid(rate, grid, "rate", RiskSetupError)
    tail = np.zeros(len(grid))
    steps = 0.5 * grid.dt * (vals[:-1] + vals[1:])
    tail[:-1] = np.cumsum(steps[::-1])[::-1]
    return np.exp(tail)


# -- axioms ----------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    max_violation: float
    tolerance: float
    passed: bool
    sample_size: int
    detail: str = ""
    quantiles: dict | None = None


@dataclass(frozen=True)
class AxiomReport:
    """One row per axiom: worst violation, tolerance, verdict."""

    checks: tuple
    steps: int
    n_paths: int
    route: str
    rho: AdaptedField

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(f"no check named {axiom!r}; have {[c.axiom for c in self.checks]}")


def _perturbed(psi: Terminal, edit: Callable, repeats: bool = True) -> Terminal:
    """``psi`` with ``edit(values, grid, w)`` applied to its values.

    The edit runs inside the evaluation, so each solve builds its own
    perturbed free term and none outlives the solve that reads it.  It
    keeps ``psi``'s hint that rows repeat (:attr:`Terminal.repeats`)
    only if ``repeats`` holds too, so a sum takes the hint of both terms.
    """
    return Terminal(lambda grid, w: edit(psi.eval_all(grid, w), grid, w),
                    repeats=psi.repeats and repeats)


def _positive_part_stats(defect: np.ndarray, scale: float) -> tuple[float, dict]:
    """Largest and quantiles of max(defect, 0) / scale.

    Consumes ``defect``: its positive part is formed in place and the
    quantiles partition it, so pass an array nobody reads afterwards.
    """
    viol = np.maximum(defect, 0.0, out=defect)
    viol /= scale
    top = float(viol.max())
    q50, q90, q99 = np.quantile(viol, (0.5, 0.9, 0.99), overwrite_input=True)
    return top, {"q50": float(q50), "q90": float(q90), "q99": float(q99), "max": top}


def check_axioms(
    spec: RiskSpec,
    ensemble: PathEnsemble,
    config: SolverConfig | None = None,
    *,
    shift: float = 1.0,
    scale: float = 2.0,
    companion: str | float | Terminal = 0.5,
    node: int | None = None,
) -> AxiomReport:
    """Re-solve under perturbed positions on common paths and measure
    each coherence axiom's defect.

    Translation and its discount factor are only checked for the linear
    aggregator; homogeneity needs a positively homogeneous one.  All
    runs share ``ensemble``, so every defect compares common paths, and
    one route driver, so the node designs are built once per call.  The
    arguments are checked before the first solve.  Each perturbed field
    lives only until its defect is formed, and each defect is built in
    the one array it allocates, so every solve runs beside the base risk
    and at most one other field of paths x nodes.
    """
    grid = ensemble.grid
    n = grid.steps
    psi = position_terminal(spec.position)
    other = position_terminal(companion)
    i0 = n // 2 if node is None else int(node)
    if not 0 < i0 <= n:
        raise RiskSetupError(f"edit node must lie in (0, {n}], got {i0}")
    lam = float(scale)
    if spec.aggregator.is_homogeneous and not 0 < lam < np.inf:
        raise RiskSetupError(f"homogeneity scale must be positive and finite, got {lam!r}")
    if shift == 0 or not np.isfinite(shift):
        raise RiskSetupError(f"position shift must be nonzero and finite, got {shift!r}")
    bad = ~np.isfinite(other.eval_all(grid, ensemble.values)).all(axis=1)
    if bad.any():
        raise RiskSetupError(
            f"companion position {other.source or '?'} is not finite at node "
            f"{int(np.argmax(bad))}"
        )

    _, solve = route(spec, ensemble, config)
    rho0 = solve(psi).y
    base = rho0.values
    norm = max(_sup_node_l2(base), 1e-12)
    m = ensemble.n_paths
    size = m * (n + 1)
    checks: list[AxiomCheck] = []

    def run(position: Terminal) -> np.ndarray:
        return solve(position).y.values

    # past independence: the sweep reads the free term row by row and
    # never below the current node, so editing early rows must leave
    # later rows bitwise intact
    def edit_head(values: np.ndarray, *_) -> np.ndarray:
        values[:i0] = 2.0 * values[:i0] + 3.0
        return values

    edited = run(_perturbed(psi, edit_head))
    head_changed = bool(np.any(edited[:, :i0] != base[:, :i0]))
    tail = edited[:, i0:] - base[:, i0:]
    del edited
    tail_gap = float(np.abs(tail, out=tail).max())
    del tail
    checks.append(AxiomCheck(
        axiom="past-independence",
        max_violation=tail_gap,
        tolerance=0.0,
        passed=(tail_gap == 0.0) and head_changed,
        sample_size=m * (n + 1 - i0),
        detail=f"edited below node {i0}; earlier rows changed: {head_changed}",
    ))

    # monotonicity: a larger position cannot carry more risk
    mono_max, mono_q = _positive_part_stats(
        run(_perturbed(psi, lambda v, *_: v + abs(shift))) - base, norm)
    checks.append(AxiomCheck(
        axiom="monotonicity",
        max_violation=mono_max,
        tolerance=_MONOTONICITY_TOL,
        passed=mono_max <= _MONOTONICITY_TOL,
        sample_size=size,
        detail=f"position shift +{abs(shift)!r}, violations relative to sup-node L2",
        quantiles=mono_q,
    ))

    if spec.aggregator.is_linear:
        # translation: the response to a constant shift is the solver's
        # own unit response, exactly, by linearity of every sweep step
        unit = run(Terminal.constant(-1.0))
        defect = run(_perturbed(psi, lambda v, *_: v + shift)) - base
        defect += shift * unit
        trans_max = float(np.abs(defect, out=defect).max())
        del defect
        checks.append(AxiomCheck(
            axiom="translation",
            max_violation=trans_max,
            tolerance=_EXACT_TOL,
            passed=trans_max <= _EXACT_TOL,
            sample_size=size,
            detail=f"shift {shift!r} against the unit response, common paths",
        ))
        if spec.aggregator.kind == "linear":
            factor = discount_factor(spec.aggregator.rate, grid)
            gap = np.abs(unit.mean(axis=0) - factor) / factor
            factor_max = float(gap.max())
            checks.append(AxiomCheck(
                axiom="translation-factor",
                max_violation=factor_max,
                tolerance=_FACTOR_TOL,
                passed=factor_max <= _FACTOR_TOL,
                sample_size=n + 1,
                detail="unit response against the tail-integral discount factor",
            ))
        del unit

    if spec.aggregator.is_homogeneous:
        scaled = run(_perturbed(psi, lambda v, *_: lam * v))
        defect = lam * base
        np.subtract(scaled, defect, out=defect)
        del scaled
        homo = float(np.abs(defect, out=defect).max())
        del defect
        checks.append(AxiomCheck(
            axiom="homogeneity",
            max_violation=homo,
            tolerance=_EXACT_TOL,
            passed=homo <= _EXACT_TOL,
            sample_size=size,
            detail=f"scale {lam!r}",
        ))

    # sub-additivity: risk of the sum at most the sum of risks
    rho_other = run(other)
    sub_defect = run(_perturbed(psi, lambda v, grid, w: v + other.eval_all(grid, w),
                                other.repeats)) - base
    sub_defect -= rho_other
    del rho_other
    detail = "companion position " + (other.source or "?")
    if spec.aggregator.is_linear:
        detail += f"; linear, equality defect {float(np.abs(sub_defect).max()):.3e}"
    sub_max, sub_q = _positive_part_stats(sub_defect, norm)
    checks.append(AxiomCheck(
        axiom="sub-additivity",
        max_violation=sub_max,
        tolerance=_SUBADDITIVITY_TOL,
        passed=sub_max <= _SUBADDITIVITY_TOL,
        sample_size=size,
        detail=detail,
        quantiles=sub_q,
    ))

    return AxiomReport(
        checks=tuple(checks),
        steps=n,
        n_paths=m,
        route=spec.route,
        rho=rho0,
    )
