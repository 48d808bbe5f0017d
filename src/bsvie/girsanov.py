"""Deterministic-drift measure change over a path ensemble.

Shifting the driver by a deterministic drift and reweighting paths with
the exponential density lets the same regression machinery estimate
conditional expectations under the shifted measure.  The ensemble is
never resampled: both computation routes share the physical paths, so
route comparisons see regression error, not fresh Monte-Carlo noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import PathEnsemble
from .expr import Node as ExprNode, eval_expr, free_variables, parse
from .grid import TimeGrid
from .solver import Driver

_RATE_NAMES = frozenset(("s", "T", "T1"))


class DriftError(ValueError):
    """Inadmissible drift: non-finite rate or diverging quadrature."""


def rate_ast(
    src: str | float | ExprNode, what: str = "drift rate", error: type = DriftError
) -> ExprNode:
    """Parse a deterministic rate: it may read only s, T and T1.

    ``what`` names the rate in the ``error`` raised for any other name.
    """
    if isinstance(src, (int, float)):
        return parse(repr(float(src)))
    ast = parse(src) if isinstance(src, str) else src
    stray = free_variables(ast) - _RATE_NAMES
    if stray:
        raise error(
            f"{what} must be a deterministic function of the inner time; "
            f"got free names {sorted(stray)}"
        )
    return ast


def rate_on_grid(
    src: str | float | ExprNode, grid: TimeGrid, what: str = "drift rate",
    error: type = DriftError,
) -> np.ndarray:
    """Read-only values of a deterministic rate at every grid node."""
    env = {"s": grid.nodes, "T": np.float64(grid.horizon), "T1": np.float64(grid.start)}
    values = np.asarray(eval_expr(rate_ast(src, what, error), env), dtype=np.float64)
    return np.broadcast_to(values, (len(grid),))


@dataclass(frozen=True)
class DriftSpec:
    """Pair of deterministic rates; the tilt uses their sum."""

    r1: str | float = 0.0
    r2: str | float = 0.0

    def rate_values(self, grid: TimeGrid) -> np.ndarray:
        """Combined rate r1 + r2 at every grid node."""
        total = np.zeros(len(grid))
        for src in (self.r1, self.r2):
            total = total + rate_on_grid(src, grid)
        if not np.all(np.isfinite(total)):
            bad = int(np.argwhere(~np.isfinite(total))[0][0])
            raise DriftError(f"drift rate is non-finite at node {bad}")
        return total

    def negated(self) -> "DriftSpec":
        def neg(src: str | float) -> str | float:
            if isinstance(src, (int, float)):
                return -float(src)
            return f"-({src})"

        return DriftSpec(r1=neg(self.r1), r2=neg(self.r2))


def _trapezoid_cumulative(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * dt * (values[:-1] + values[1:]))
    return out


def tilt(ensemble: PathEnsemble, drift: DriftSpec) -> Driver:
    """Sweep driver of the tilted measure over ``ensemble``: the physical
    paths shifted by the drift's cumulative integral, node by node, with
    the likelihood weights under which the shifted paths are a Brownian
    motion.

    The weights are positive with sample mean near one.  The ensemble
    itself is left as it is and held by the driver; the free term and the
    generator keep reading its physical paths.
    """
    rates = drift.rate_values(ensemble.grid)
    dt = ensemble.grid.dt
    integral = _trapezoid_cumulative(rates, dt)
    square_integral = float(_trapezoid_cumulative(rates**2, dt)[-1])
    if not np.isfinite(square_integral):
        raise DriftError("squared-rate quadrature diverges")
    # the sums keep the ensemble's layout, node-major for a sampled one
    tilted_values = ensemble.values + integral[None, :]
    tilted_increments = ensemble.increments + np.diff(integral)[None, :]
    # density against the sampling measure: under it the shifted paths
    # regain Brownian moments; the stochastic integral is left-point.
    # BLAS picks its gemv kernel, and so its rounding, by the operand's
    # layout: a path-major operand keeps the weights' bits in any layout
    log_weights = np.negative(ensemble.increments, order="C") @ rates[:-1] \
        - 0.5 * square_integral
    weights = np.exp(log_weights)
    if not np.all(np.isfinite(weights)) or not np.all(weights > 0.0):
        raise DriftError("likelihood weights degenerate; drift too large for the horizon")
    for a in (tilted_values, tilted_increments, weights):
        a.flags.writeable = False
    return Driver(ensemble=ensemble, state=tilted_values, increments=tilted_increments,
                  weights=weights)


@dataclass(frozen=True)
class SelftestReport:
    """Weighted moments of the shifted increments against (0, dt)."""

    mean_scores: np.ndarray
    var_scores: np.ndarray
    weight_mean_score: float
    threshold: float

    @property
    def max_score(self) -> float:
        return float(
            max(
                np.abs(self.mean_scores).max(),
                np.abs(self.var_scores).max(),
                abs(self.weight_mean_score),
            )
        )

    @property
    def passed(self) -> bool:
        return self.max_score <= self.threshold


def girsanov_selftest(tilted: Driver, threshold: float = 4.0) -> SelftestReport:
    """Score a tilted driver: each shifted increment must have weighted
    mean 0 and weighted variance dt, and the weights must average 1.

    Scores are standardized by the weighted standard errors, so a sign
    mistake in the density shifts every mean score by about 2 r sqrt(dt
    M) and fails loudly.  ``threshold`` must be positive and finite.
    """
    w = tilted.weights
    if w is None:
        raise ValueError("the self-test needs a tilted driver; this one carries no weights")
    if not 0 < threshold < np.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    m = w.shape[0]
    dt = tilted.grid.dt
    w_sum = float(np.sum(w))
    # the one array this allocates, laid out path-major: BLAS rounds these
    # products by the operand's layout, so the scores keep their bits
    # whatever the driver's layout (see tilt)
    sq = tilted.increments.copy(order="C")
    means = (w @ sq) / w_sum
    # the squared centred increments, then their squared spread, in place
    sq -= means[None, :]
    np.square(sq, out=sq)
    se_mean = np.sqrt((w**2) @ sq) / w_sum
    mean_scores = means / np.maximum(se_mean, 1e-300)
    variances = (w @ sq) / w_sum
    sq -= variances[None, :]
    np.square(sq, out=sq)
    spread = (w**2) @ sq
    se_var = np.sqrt(spread) / w_sum
    var_scores = (variances - dt) / np.maximum(se_var, 1e-300)
    weight_mean = w_sum / m
    se_w = float(np.std(w)) / np.sqrt(m)
    weight_mean_score = (weight_mean - 1.0) / max(se_w, 1e-300)
    return SelftestReport(
        mean_scores=mean_scores,
        var_scores=var_scores,
        weight_mean_score=weight_mean_score,
        threshold=threshold,
    )
