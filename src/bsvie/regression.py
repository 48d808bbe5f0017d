"""Least-squares Monte-Carlo projections on polynomial bases.

Conditional expectations at a node are estimated by ridge-stabilised
least squares of the target against powers of the driver state at that
node; martingale integrands by the same projection applied to
target * dW / dt.  The ridge never touches the constant feature, so
constants survive the projection exactly and the (weighted) sample mean
of the fitted values equals that of the target to rounding.

Cross-path reductions are accumulated over fixed-size path chunks in a
fixed order, which keeps results bitwise identical run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import design_matrix

_CHUNK = 1 << 14
_COND_LIMIT = 1e14


class DegenerateEnsembleError(ValueError):
    """Normal equations stayed rank-deficient after the ridge."""


class RegressionError(ValueError):
    """Regression inputs produced non-finite normal equations."""


@dataclass(frozen=True)
class BasisSpec:
    """Polynomial basis in the driver state at one node."""

    degree: int = 3
    ridge: float = 1e-10

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree must be nonnegative, got {self.degree}")
        if self.ridge < 0:
            raise ValueError(f"ridge must be nonnegative, got {self.ridge}")

    @property
    def size(self) -> int:
        return self.degree + 1


def _chunked_ab(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b accumulated over fixed path chunks (a, b are (M, ...))."""
    m = a.shape[0]
    out = a[:_CHUNK].T @ b[:_CHUNK]
    for lo in range(_CHUNK, m, _CHUNK):
        out += a[lo : lo + _CHUNK].T @ b[lo : lo + _CHUNK]
    return out


class NodeDesign:
    """Factorised design of one regression node, reusable across targets."""

    def __init__(
        self,
        state: np.ndarray,
        basis: BasisSpec,
        weights: np.ndarray | None = None,
    ) -> None:
        m = state.shape[0]
        if m <= basis.degree:
            raise ValueError(
                f"basis of size {basis.size} needs more than {basis.degree} paths, got {m}"
            )
        self.basis = basis
        self.n_paths = m
        self.x = design_matrix(state, basis.degree)
        if weights is None:
            self.weights = None
            xw = self.x
        else:
            if weights.shape != (m,):
                raise ValueError("weight vector shape disagrees with paths")
            self.weights = weights / np.mean(weights)
            xw = self.x * self.weights[:, None]
        gram = _chunked_ab(self.x, xw) / m
        penalty = np.eye(basis.size)
        penalty[0, 0] = 0.0  # the constant feature is never shrunk
        self._system = gram + basis.ridge * penalty
        if not np.all(np.isfinite(self._system)):
            raise RegressionError("non-finite normal equations")
        self.condition = float(np.linalg.cond(self._system))
        if not np.isfinite(self.condition) or self.condition > _COND_LIMIT:
            raise DegenerateEnsembleError(
                f"normal equations remain degenerate after ridge "
                f"(condition {self.condition:.3e})"
            )

    def fit(self, targets: np.ndarray) -> np.ndarray:
        """Coefficients (rows, size) for a batch of targets (rows, M)."""
        t = targets if self.weights is None else targets * self.weights
        rhs = _chunked_ab(t.T, self.x) / self.n_paths
        if not np.all(np.isfinite(rhs)):
            raise RegressionError("non-finite regression targets")
        return np.linalg.solve(self._system, rhs.T).T

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """Fitted values (rows, M) of a coefficient batch (rows, size)."""
        return coeffs @ self.x.T
