"""Brownian path ensembles with counter-based, per-path random streams.

Path p is a pure function of (seed, p): every path owns a Philox stream
keyed by the pair, so enlarging the ensemble extends it without
reshuffling existing paths, and identical (seed, M, N) inputs reproduce
bit-identical arrays on any platform.  One bit generator serves every
path; it is re-keyed, with its counter and buffer reset, before each
path is drawn.

The arrays are stored node-major, one contiguous row of paths per node,
because every reader of an ensemble (a regression node's design and
increments, the generator's and the free term's path arguments, the
reference fields) reads one node across all paths at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import TimeGrid

_KEY_MASK = (1 << 64) - 1
# paths drawn per chunk of the node-major fill: 512 KB of normals at 64 steps
_FILL_PATHS = 1 << 10


@dataclass(frozen=True)
class PathEnsemble:
    """M discrete Brownian paths on a :class:`TimeGrid`.

    ``increments[p, j]`` holds W(t_{j+1}) - W(t_j); ``values[p, i]`` the
    running sum with values[p, 0] = 0.  Arrays are read-only: solvers
    share one ensemble and must never mutate it.

    :func:`sample_ensemble` stores both node-major, as (N, M) and
    (N + 1, M) C arrays, and exposes their transposes, so indexing is
    path-first as above while ``values[:, i]`` and ``increments[:, j]``
    are contiguous rows.  Any layout solves: an ensemble built on
    path-major arrays gives the same results, only its per-node reads are
    strided.
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

    The arrays are filled node-major from fixed-size chunks of paths, so
    sampling holds the two arrays and one chunk.

    ``seed`` is the high word of every path's key, so it must lie in
    [0, 2^64): a seed outside would draw the paths of its masked twin.
    """
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    if not 0 <= int(seed) <= _KEY_MASK:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    n = grid.steps
    scale = np.sqrt(grid.dt)
    increments = np.empty((n, n_paths))
    for lo in range(0, n_paths, _FILL_PATHS):
        hi = min(lo + _FILL_PATHS, n_paths)
        normals = _path_normals(seed, lo, hi - lo, n)
        np.multiply(normals.T, scale, out=increments[:, lo:hi])
        del normals  # the next chunk is drawn with none alive
    values = np.empty((n + 1, n_paths))
    values[0] = 0.0
    values[1] = increments[0]
    # the running sum one node row at a time: each path's adds in the order
    # of a cumsum along the path, without a cumsum's strided pass down nodes
    for j in range(1, n):
        np.add(values[j], increments[j], out=values[j + 1])
    increments.flags.writeable = False
    values.flags.writeable = False
    return PathEnsemble(
        grid=grid, n_paths=n_paths, seed=int(seed),
        increments=increments.T, values=values.T,
    )
