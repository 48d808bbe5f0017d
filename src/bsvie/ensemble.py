"""Brownian path ensembles with counter-based, per-path random streams.

Path p is a pure function of (seed, p): every path owns a Philox stream
keyed by the pair, so enlarging the ensemble extends it without
reshuffling existing paths, and identical (seed, M, N) inputs reproduce
bit-identical arrays on any platform.  One bit generator serves every
path; it is re-keyed, with its counter and buffer reset, before each
path is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import TimeGrid

_KEY_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class PathEnsemble:
    """M discrete Brownian paths on a :class:`TimeGrid`.

    ``increments[p, j]`` holds W(t_{j+1}) - W(t_j); ``values[p, i]`` the
    running sum with values[p, 0] = 0.  Arrays are read-only: solvers
    share one ensemble and must never mutate it.
    """

    grid: TimeGrid
    n_paths: int
    seed: int
    increments: np.ndarray = field(repr=False, compare=False)
    values: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        m, n = self.increments.shape
        if m != self.n_paths or n != self.grid.steps:
            raise ValueError("increment array shape disagrees with grid/paths")
        if self.values.shape != (m, n + 1):
            raise ValueError("value array shape disagrees with grid/paths")

    @property
    def dt(self) -> float:
        return self.grid.dt

    def terminal(self) -> np.ndarray:
        """W(T) per path."""
        return self.values[:, -1]


def _path_normals(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """Standard normals for paths [first, first+count), one keyed stream each.

    Philox is a pure function of (key, counter), so setting one bit
    generator's state to a path's key, a zero counter and an empty buffer
    draws the same stream as a generator built fresh for that key.
    """
    out = np.empty((count, n), dtype=np.float64)
    bit = np.random.Philox()
    gen = np.random.Generator(bit)
    # a snapshot taken before any draw: zero counter, empty buffer
    state = bit.state
    key = state["state"]["key"]
    key[1] = int(seed) & _KEY_MASK
    for p in range(count):
        key[0] = first + p
        bit.state = state
        gen.standard_normal(n, out=out[p])
    return out


def sample_ensemble(grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Draw an ensemble of ``n_paths`` Brownian paths on ``grid``.

    ``seed`` is the high word of every path's key, so it must lie in
    [0, 2^64): a seed outside would draw the paths of its masked twin.
    """
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    if not 0 <= int(seed) <= _KEY_MASK:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    normals = _path_normals(seed, 0, n_paths, grid.steps)
    # scaled in place: sampling holds one (paths x steps) array
    increments = np.multiply(normals, np.sqrt(grid.dt), out=normals)
    values = np.empty((n_paths, grid.steps + 1), dtype=np.float64)
    values[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=values[:, 1:])
    increments.flags.writeable = False
    values.flags.writeable = False
    return PathEnsemble(
        grid=grid, n_paths=n_paths, seed=int(seed),
        increments=increments, values=values,
    )
