"""Least-squares Monte-Carlo projections on polynomial bases.

Conditional expectations at a node are estimated by ridge-stabilised
least squares of the target against powers of the driver state at that
node; martingale integrands by the same projection applied to
target * dW / dt.  The ridge never touches the constant feature, so
constants survive the projection exactly and the (weighted) sample mean
of the fitted values equals that of the target to rounding.
:meth:`NodeDesign.project` gives both estimates of a row batch from one
pass over the paths, using that the projection is linear; the node's
operand for it (:meth:`NodeDesign.operand`) is filled once and serves
every batch.  :meth:`NodeDesign.kernel_row` gives one row's fitted
kernel values from two products with the design, without the operand.
Both read the node's H = X^T diag(w dW) X / M, formed with its design.

Cross-path reductions are accumulated over fixed-size path chunks in a
fixed order, which keeps results bitwise identical run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        if not (self.ridge >= 0 and math.isfinite(self.ridge)):
            raise ValueError(f"ridge must be nonnegative and finite, got {self.ridge}")

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
    """Regression node ``node``: its factorised design, increments dW and step dt.

    The increments are kept as given, a view of the driver's column, and so
    are the weights, which arrive normalized to mean one: the driver's one
    array, shared by all of its nodes.  A sampled ensemble stores its
    paths node-major, so the state and increments are contiguous rows and
    :meth:`operand` reads dW in place.  Every failure of the node's normal
    equations or regression sums names the node.
    """

    def __init__(self, node: int, state: np.ndarray, increments: np.ndarray, dt: float,
                 basis: BasisSpec, weights: np.ndarray | None = None) -> None:
        m = state.shape[0]
        if m <= basis.degree:
            raise ValueError(
                f"basis of size {basis.size} needs more than {basis.degree} paths, got {m}"
            )
        self.node = node
        self.basis = basis
        self.n_paths = m
        self.increments = increments
        self.dt = dt
        self.x = design_matrix(state, basis.degree)
        if weights is not None and weights.shape != (m,):
            raise ValueError("weight vector shape disagrees with paths")
        self.weights = weights
        xw = self.x if weights is None else self.x * weights[:, None]
        gram = _chunked_ab(self.x, xw) / m
        self._h = _chunked_ab(self.x, xw * increments[:, None]) / m  # X^T diag(w dW) X / M
        penalty = np.eye(basis.size)
        penalty[0, 0] = 0.0  # the constant feature is never shrunk
        self._system = gram + basis.ridge * penalty
        if not np.all(np.isfinite(self._system)):
            raise RegressionError(f"node {node}: non-finite normal equations")
        self.condition = float(np.linalg.cond(self._system))
        if not np.isfinite(self.condition) or self.condition > _COND_LIMIT:
            raise DegenerateEnsembleError(
                f"node {node}: normal equations remain degenerate after ridge "
                f"(condition {self.condition:.3e})"
            )

    def fit(self, targets: np.ndarray) -> np.ndarray:
        """Coefficients (rows, size) for a batch of targets (rows, M)."""
        t = targets if self.weights is None else targets * self.weights
        rhs = _chunked_ab(t.T, self.x) / self.n_paths
        if not np.all(np.isfinite(rhs)):
            raise RegressionError(f"node {self.node}: non-finite regression targets")
        return np.linalg.solve(self._system, rhs.T).T

    def evaluate(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Fitted values (rows, M) of a coefficient batch (rows, size).

        ``out``, when given, is a C-contiguous (rows, M) array to write them into.
        """
        return np.matmul(coeffs, self.x.T, out=out)

    @cached_property
    def gram(self) -> np.ndarray:
        """Unweighted Gram matrix X^T X / M.

        The path mean of the squared fitted values of coefficients c is
        the quadratic form c^T gram c.
        """
        return _chunked_ab(self.x, self.x) / self.n_paths

    def operand(self, xw2: np.ndarray) -> np.ndarray:
        """Write the node's projection operand [X w, X w dW] into ``xw2``.

        ``xw2`` is a caller's (2k, M) scratch; it is returned.  Every
        :meth:`project` call reads the operand of its node, so one fill
        serves any number of row batches.
        """
        k = self.basis.size
        # laid out (2k, M), so each column scales in one long loop
        if self.weights is None:
            xw2[:k] = self.x.T
        else:
            np.multiply(self.x.T, self.weights, out=xw2[:k])
        np.multiply(xw2[:k], self.increments, out=xw2[k:])
        return xw2

    def project(self, rows: np.ndarray, xw2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Conditional-expectation and kernel coefficients of a row batch.

        With C the coefficient map of :meth:`fit` and dW the node's
        increments, this returns, for rows (r, M), coefficients (c, bz),
        each (r, size), equal in exact arithmetic to

            bz = C((rows - X C(rows)) * dW / dt)
            c  = C(rows - (X bz) * dW)

        i.e. the kernel regresses the one-step martingale difference, and
        the conditional expectation is fitted after the increment the
        kernel explains is removed.  C is linear, so with G the ridge
        system, H = X^T diag(w dW) X / M and S = G^-1 H, both follow from
        A = C(rows) and B = C(rows * dW): bz = (B - S A) / dt and
        c = A - S bz.  A and B come from one path-chunked product of the
        rows with the node's operand [X w, X w dW], which ``xw2`` must
        hold (:meth:`operand`); no (r, M) intermediate is formed.  H
        depends on the node alone; the design forms it when it is built.
        """
        # an overflow of the sums shows in their finiteness check
        with np.errstate(all="ignore"):
            rhs = _chunked_ab(rows.T, xw2.T) / self.n_paths
        return self._solve(rhs)

    def kernel_row(self, yw2: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fitted kernel values X bz of one row y, bz as :meth:`project` defines it.

        ``yw2`` (2, M) must hold y w and y w dW (w = 1 when unweighted);
        two products of it with X replace the operand, and the design's
        own H serves the solve.  Writes ``out`` (M,) and returns it; its
        bits may differ from a batched :meth:`project` by rounding.
        """
        with np.errstate(all="ignore"):
            rhs = _chunked_ab(self.x, yw2.T).T.reshape(1, -1) / self.n_paths
        _, bz = self._solve(rhs)
        return np.matmul(self.x, bz[0], out=out)

    def _solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(c, bz) of :meth:`project` from the path means [y w X, y w dW X], (r, 2k)."""
        k, r = self.basis.size, rhs.shape[0]
        if not np.all(np.isfinite(rhs)):
            raise RegressionError(f"node {self.node}: non-finite regression targets")
        stacked = np.concatenate((rhs.T[:k], rhs.T[k:], self._h), axis=1)
        sol = np.linalg.solve(self._system, stacked)
        a, b, s = sol[:, :r].T, sol[:, r : 2 * r].T, sol[:, 2 * r :]
        bz = (b - a @ s.T) / self.dt
        return a - bz @ s.T, bz
