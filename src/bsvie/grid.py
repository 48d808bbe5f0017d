"""Uniform time grids on [S, T] with the index conventions used throughout.

Index pairs (i, j) address the square [S, T] x [S, T].  The lower triangle
{t_i > t_j} carries the martingale-extended part of a kernel surface, the
closed upper triangle {t_i <= t_j} the part produced directly by the
backward sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_0 = S < t_1 < ... < t_N = T."""

    horizon: float
    steps: int
    start: float = 0.0
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.horizon) or not np.isfinite(self.start):
            raise ValueError("grid endpoints must be finite")
        if self.horizon <= self.start:
            raise ValueError(
                f"horizon {self.horizon} must exceed start {self.start}"
            )
        if self.steps < 2:
            raise ValueError(f"need at least 2 steps, got {self.steps}")
        # endpoints are exact by construction: S + k/N * (T - S)
        k = np.arange(self.steps + 1, dtype=np.float64)
        nodes = self.start + (k / self.steps) * (self.horizon - self.start)
        nodes[-1] = self.horizon
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def dt(self) -> float:
        return (self.horizon - self.start) / self.steps

    def __len__(self) -> int:
        return self.steps + 1


def build_grid(horizon: float, steps: int, start: float = 0.0) -> TimeGrid:
    """Validated constructor for :class:`TimeGrid`."""
    return TimeGrid(horizon=float(horizon), steps=int(steps), start=float(start))
