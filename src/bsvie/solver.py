"""Backward sweeps for two-time stochastic Volterra systems.

The continuous object is a family of backward equations indexed by the
outer time t_i, coupled through the diagonal Y(t_j) and, for the
martingale-extended solution concept, through kernel values mirrored
across the diagonal.  One level kernel serves every mode:

    Z[i][j]   <- regression of Lambda[i][j+1] * dW_j / dt at node j
    Lambda[i][j] <- regression of Lambda[i][j+1] at node j
                    + dt * g(t_i, t_j, y_arg, Z[i][j], zeta_arg)

swept for j = N-1 .. 0 over rows i <= j.  The y-argument at an
off-diagonal cell is the same-level diagonal value Y(t_j) (or, in the
Picard mode, a frozen iterate of it); at the diagonal cell it is the
freshly regressed conditional expectation, which keeps the one-pass
sweep and the fixed-point iteration solving literally the same discrete
system.  The martingale-extended solution's mirrored value Z(t_j, t_i),
i < j, is node i's martingale regression of Y(t_j), final once level
j's diagonal cell is done, so that solution is one backward sweep too;
the Picard mode is the only iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .ensemble import PathEnsemble
from .expr import VARIABLES, Node as ExprNode, Program, format_expr, free_variables, parse
from .fields import AdaptedField, CoeffSurface, SurfaceField, SymmetricSurface
from .grid import TimeGrid
from .norms import mean_square
from .regression import BasisSpec, NodeDesign

_TERMINAL_NAMES = frozenset(("t", "wt", "wT", "T1", "T"))
# the names that vary with the outer node
_OUTER_NAMES = frozenset(("t", "wt"))


class SolverError(RuntimeError):
    """Numerical failure inside a sweep, located by grid indices."""


class Generator:
    """Integrand g(t, s, y, z, zeta) with declared data dependencies.

    ``needs`` names the arguments ``fn`` reads, and the sweep relies on
    it: kernel values are evaluated over the row batch only for a
    generator that declares ``z`` or ``zeta``, and mirrored values only
    for one that declares ``zeta``; otherwise ``z`` and ``zeta`` are
    passed as None.

    On the class path of the sweep (see :class:`_Sweep`), taken only for
    a generator that declares neither ``t`` nor ``wt``, the off-diagonal
    arguments are one row per run of bitwise-equal free-term rows, not
    per outer node, and ``t`` and ``wt`` are None there.

    The sweep evaluates the off-diagonal cells of a level one block of
    rows at a time, each block in its own call, so the row arguments
    hold at most one block of rows.  ``y`` is the level's Y column as one
    contiguous row.  That copy keeps Y's bits only while numpy rounds a
    strided and a contiguous operand alike, which it need not do for
    exp, log, sin, cos and power, whose loops may round differently by
    operand strides; ``test_a_strided_y_gives_the_bytes_of_a_contiguous_one``
    checks this on the numpy in use, so its failure means Y's bits moved.
    The path arguments ``w``, ``wt`` and ``wT`` are contiguous rows of a
    sampled ensemble's node-major paths, and strided ones of a
    path-major ensemble; ``test_node_major_paths_give_the_bytes_of_path_major_ones``
    checks that both give the same bytes.

    The arrays in ``env`` are borrowed for the duration of the call.
    The sweep reuses their memory at later cells, so a generator that
    keeps one past the call must copy it, and it must not write into
    them.  The sweep in turn never writes into an array the generator
    received or returned before it has read the result.
    """

    def __init__(self, fn: Callable[[dict], np.ndarray], needs):
        unknown = frozenset(needs).difference(VARIABLES)
        if unknown:
            raise ValueError(f"generator reads unknown names {sorted(unknown)}")
        self._fn = fn
        self.needs = frozenset(needs)

    @classmethod
    def from_expression(cls, src: str | ExprNode) -> "Generator":
        ast = parse(src) if isinstance(src, str) else src
        return cls(Program(ast), free_variables(ast))

    @property
    def uses_zeta(self) -> bool:
        return "zeta" in self.needs

    def __call__(self, env: dict) -> np.ndarray:
        return self._fn(env)


class Terminal:
    """Free term of the system: per-path values at every outer node.

    ``fn(grid, w)`` returns a fresh array on every call, so a reader of
    :meth:`eval_all` may write into it.

    ``repeats`` hints that neighbouring rows may be bitwise equal.  The
    sweep then compares them and, when the generator allows it, carries
    one iterate row per run of equal rows (see :class:`_Sweep`).  The
    hint cannot be wrong: rows that all differ take the row path.  It is
    True for an expression that reads neither ``t`` nor ``wt`` and for
    a constant; a raw function defaults to False, whose rows are never
    compared, so a free term capped in ``t`` keeps one batch per level.
    """

    def __init__(self, fn: Callable[[TimeGrid, np.ndarray], np.ndarray],
                 source: str | None = None, repeats: bool = False):
        self._fn = fn
        self.source = source
        self.repeats = repeats

    @classmethod
    def from_expression(cls, src: str | ExprNode) -> "Terminal":
        ast = parse(src) if isinstance(src, str) else src
        stray = free_variables(ast) - _TERMINAL_NAMES
        if stray:
            raise ValueError(
                f"terminal data may only read {sorted(_TERMINAL_NAMES)}, got {sorted(stray)}"
            )
        program = Program(ast)

        def fn(grid: TimeGrid, w: np.ndarray) -> np.ndarray:
            # every outer node at once; the inner-time names stay unread
            env = _generator_env(grid, w, slice(None), slice(None), None, None, None)
            out = program(env)
            return np.broadcast_to(out, (len(grid), w.shape[0])).astype(np.float64, copy=True)

        # without an outer-node name every row is the same broadcast row
        return cls(fn, format_expr(ast), not free_variables(ast) & _OUTER_NAMES)

    @classmethod
    def constant(cls, value: float) -> "Terminal":
        v = float(value)
        return cls(lambda grid, w: np.full((len(grid), w.shape[0]), v), repr(v), True)

    def eval_all(self, grid: TimeGrid, w: np.ndarray) -> np.ndarray:
        out = np.asarray(self._fn(grid, w), dtype=np.float64)
        if out.shape != (len(grid), w.shape[0]):
            raise ValueError("terminal evaluator returned a wrong shape")
        return out


@dataclass(frozen=True)
class ProblemSpec:
    """One two-time backward problem on a grid."""

    grid: TimeGrid
    generator: Generator
    terminal: Terminal


@dataclass(frozen=True)
class Driver:
    """The path input of a solve: an ensemble and the regressions that sweep it.

    The ensemble's physical paths feed the free term and the generator;
    the regression state and martingale increments feed the node
    designs.  For plain problems they are the ensemble's own
    (:meth:`from_ensemble`).  A measure change
    (:func:`bsvie.girsanov.tilt`) shifts them by the drift's integral and
    adds the likelihood weights, so the same sweeps estimate conditional
    expectations under the tilted measure.  ``weights`` stays the raw
    density; the designs share one copy of it divided by its mean.
    Indexing is path-first, ``state[p, j]``.  A sampled ensemble stores
    its arrays node-major and a tilt keeps that layout, so each node's
    state and increments column is one contiguous row.

    The driver owns the regression nodes, each a design over its state
    with a view of its increments.  A driver given to a solve builds
    them on the first solve that reads them, one set per basis, and
    keeps them for its lifetime: M x (degree + 1) floats per node, 16 MB
    at 64 steps x 8192 paths.  Pass one driver to several solves to
    share them.  A solve given an ensemble sweeps a fresh driver of its
    own.  The sweep's solution concept decides whether it keeps them
    (see :class:`_Sweep`): the Picard mode, which sweeps again, and a
    ``solve_m`` whose generator reads ``zeta``, whose level j reads the
    designs of the nodes below j, keep every design for the solve; the
    other solves build node j's design at level j and drop it when the
    level ends.  ``dataclasses.replace`` (new state or weights) starts
    from no designs.
    """

    ensemble: PathEnsemble
    state: np.ndarray
    increments: np.ndarray
    weights: np.ndarray | None = None
    _designs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.state.shape != self.ensemble.values.shape \
                or self.increments.shape != self.ensemble.increments.shape:
            raise ValueError("driver state or increments disagree with its ensemble")

    @classmethod
    def from_ensemble(cls, ensemble: PathEnsemble) -> "Driver":
        return cls(ensemble=ensemble, state=ensemble.values, increments=ensemble.increments)

    @property
    def grid(self) -> TimeGrid:
        return self.ensemble.grid

    @cached_property
    def _unit_weights(self) -> np.ndarray | None:
        """The weights divided by their mean: one array, shared by every node."""
        if self.weights is None:
            return None
        with np.errstate(all="ignore"):
            return self.weights / np.mean(self.weights)

    def _node_design(self, basis: BasisSpec, j: int) -> NodeDesign:
        """A new design of regression node j of the state."""
        # an overflow shows in the finiteness check of the build
        with np.errstate(all="ignore"):
            return NodeDesign(j, self.state[:, j], self.increments[:, j], self.grid.dt, basis,
                              self._unit_weights)

    def _node_designs(self, basis: BasisSpec) -> list[NodeDesign]:
        """The regression nodes 0..N-1 of the state, built once per basis and kept."""
        if basis not in self._designs:
            self._designs[basis] = [
                self._node_design(basis, j) for j in range(self.state.shape[1] - 1)
            ]
        return self._designs[basis]


@dataclass(frozen=True)
class SolverConfig:
    basis: BasisSpec = BasisSpec()
    picard: bool = False
    tol: float = 1e-6
    max_iter: int = 50

    def __post_init__(self) -> None:
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class SolveReport:
    """Solution fields plus iteration bookkeeping.

    Only the Picard mode of :func:`solve_s` iterates.  There
    ``iterations`` counts every sweep across all level blocks, while
    ``config.max_iter`` bounds each block separately, so after a
    bisection it can exceed ``max_iter``; ``converged`` is False when a
    block used up its ``max_iter`` sweeps.  Every other solve is one
    sweep: one iteration, converged, with no norms or ratios.
    """

    mode: str
    y: AdaptedField
    z: SurfaceField
    iterations: int
    converged: bool
    update_norms: list[float] = field(default_factory=list)
    contraction_ratios: list[float] = field(default_factory=list)


def _generator_env(
    grid: TimeGrid, paths: np.ndarray, t: int | slice | None, s: int | slice, y, z, zeta
) -> dict:
    """Arguments of g at outer node(s) ``t`` and inner node(s) ``s``.

    A slice stands for a batch of nodes laid out one row per node, and
    None for the row classes of the sweep's class path, which leaves
    ``t`` and ``wt`` None.  The path arguments always come from the
    physical paths, whatever driver the regressions use: ``w`` at the
    inner nodes, ``wt`` at the outer nodes and ``wT`` at the horizon.
    """

    def at(k: int | slice) -> tuple:
        if isinstance(k, slice):
            return grid.nodes[k, None], paths[:, k].T
        return grid.nodes[k], paths[:, k]

    t_nodes, wt = (None, None) if t is None else at(t)
    s_nodes, w = at(s)
    return {
        "t": t_nodes, "s": s_nodes, "y": y, "z": z, "zeta": zeta,
        "w": w, "wt": wt, "wT": paths[:, -1],
        # numpy scalars, so dividing by a zero one gives inf instead of raising
        "T": np.float64(grid.horizon), "T1": np.float64(grid.start),
    }


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_grid(grid: TimeGrid, other: TimeGrid) -> None:
    if len(grid) != len(other) or grid.nodes[0] != other.nodes[0] \
            or grid.nodes[-1] != other.nodes[-1]:
        raise ValueError("problem grid and ensemble grid disagree")


# values of one row block of the off-diagonal update: 8 rows at 16384
# paths, 2 at 65536 and at least one; the blocked steps are elementwise
# and row-independent, so the block size moves no bit
_BLOCK_VALUES = 1 << 17


class _LevelWork:
    """Work buffers of a sweep, allocated with it and kept for its levels.

    ``z`` and ``zeta`` take a level's kernel and mirrored rows, and exist
    only for a generator that reads them.  ``mirror`` is the sweep's
    source of the mirrored value (see :class:`_Sweep`): for ``"s"``,
    ``zeta`` is ``z``.  ``y`` takes the level's Y column as one
    contiguous row.  For the M-solution's mirrored rows (``"m"``),
    ``yw2`` takes the operands of :meth:`NodeDesign.kernel_row`, formed
    from each node design's own increments, which a sampled ensemble
    stores as one contiguous row per node, so no copy of them is kept.
    The off-diagonal update runs ``block`` rows at a time, so each array
    it allocates (the generator's intermediates, its finiteness mask and
    dt * g) is at most one block in size, and a level allocates no
    (rows x paths) array.
    """

    def __init__(self, rows: int, m: int, k: int, kernel: bool, mirror: str | None) -> None:
        self.block = max(1, min(rows, _BLOCK_VALUES // m))
        self.z = np.empty((rows, m)) if kernel or mirror == "s" else None
        self.zeta = self.z if mirror == "s" else np.empty((rows, m)) if mirror else None
        self.bz = np.empty((rows, k))
        self.y = np.empty(m)
        self.yw2 = np.empty((2, m)) if mirror == "m" else None
        self.xw2 = np.empty((2 * k, m))  # the operand of NodeDesign.project


class _Sweep:
    """Shared machinery: the driver's designs, the iterate, one level step.

    ``paths`` is a :class:`Driver`, or an ensemble for a fresh plain one;
    the driver's ensemble must lie on the problem's grid.  ``concept``,
    ``"s"``, ``"picard"`` or ``"m"``, fixes the plan: the martingale
    fill, the row path and the work buffers.  For a generator that reads
    ``zeta`` it also names the mirrored value's source, ``mirror``: the
    kernel rows themselves (``"s"``), the frozen upper table
    (``"picard"``) or node i's martingale regression of Y(t_j) (``"m"``);
    otherwise ``mirror`` is None.  ``designs`` holds the driver's kept node
    designs: a shared driver's, the Picard mode's, which sweeps again,
    and those of an M-solution whose level j reads the designs below j
    for ``zeta``.  Otherwise it is None, and each level builds its node's
    design and drops it when the level ends.  The iterate is ``lam``
    (Lambda[i][j] of the rows still being swept), ``y`` (Y at every
    node, one column per node) and ``coeffs`` (the kernel coefficients
    of cell (i, j) in ``coeffs[i, j]``); levels read and write them in
    place.

    ``lam`` is held per row class: a run of outer nodes whose free-term
    rows are bitwise equal.  If the free term hints that rows repeat
    (:attr:`Terminal.repeats`) and nothing per outer node enters (no
    ``t`` or ``wt`` read, no M-solution mirror, whose martingale column
    differs row by row), the rows of a run stay equal at every level, so
    the sweep finds the runs by comparing neighbouring rows, and the
    class path sweeps each run as one row, projected and evaluated alone:
    a row's projection bits depend on the size of its batch, and alone
    they do not depend on the other classes, so merging two runs of equal
    rows moves no bit.  A class's kernel coefficients fill its cells of
    ``coeffs`` by broadcast.  Otherwise, or when every row differs, every
    outer node is a class of its own and a level projects its rows in one
    batch: the row path.  Row r of ``lam`` starts at outer node
    ``lo[r]``, and outer node i lies in row ``row_of[i]``.
    """

    def __init__(
        self, problem: ProblemSpec, paths: PathEnsemble | Driver, config: SolverConfig,
        concept: str,
    ) -> None:
        self.concept = concept
        shared = isinstance(paths, Driver)
        self.driver = paths if shared else Driver.from_ensemble(paths)
        self.ensemble = self.driver.ensemble
        grid = problem.grid
        _check_grid(grid, self.ensemble.grid)
        self.grid = grid
        self.config = config
        self.n = grid.steps
        self.m = self.ensemble.n_paths
        # before anything is allocated: the coefficient table alone is (N+1)^2 k floats
        config.basis.check_paths(self.m)
        self.dt = grid.dt
        self.k = config.basis.size
        self.g = problem.generator
        self.mirror = concept if self.g.uses_zeta else None
        kept = shared or concept == "picard" or self.mirror == "m"
        self.designs = self.driver._node_designs(config.basis) if kept else None
        terminal = problem.terminal.eval_all(grid, self.ensemble.values)
        finite = np.isfinite(terminal).all(axis=1)
        if not finite.all():
            raise SolverError(f"terminal data is non-finite at node {int(np.argmin(finite))}")
        runs = problem.terminal.repeats and not self.g.needs & _OUTER_NAMES and self.mirror != "m"
        self.lo = [0] + [
            i for i in range(1, self.n + 1)
            if not (runs and np.array_equal(terminal[i].view(np.uint64),
                                            terminal[i - 1].view(np.uint64)))
        ]
        self.batched = len(self.lo) == self.n + 1
        self.row_of = np.repeat(np.arange(len(self.lo)), np.diff([*self.lo, self.n + 1]))
        # the row path adopts the fresh free term, the class path keeps its class rows
        if self.batched:
            self.lam = np.require(terminal, requirements=["C", "W"])
        else:
            self.lam = terminal[self.lo]
        del terminal
        self.y = np.empty((self.m, self.n + 1))
        # node n's row is bitwise its class row, and no level advances it before this
        self.y[:, self.n] = self.lam[self.row_of[self.n]]
        self.coeffs = np.zeros((self.n + 1, self.n + 1, self.k))
        # one set of buffers for the solve, sized to its widest level
        self.work = _LevelWork(int(self.row_of[self.n - 1]) + 1, self.m, self.k,
                               "z" in self.g.needs, self.mirror)

    def _check_g(self, values: np.ndarray, nodes, j: int) -> None:
        """Raise at the first non-finite row; row r of ``values`` is outer node nodes[r]."""
        finite = np.isfinite(values)
        if finite.all():
            return
        row = 0 if values.ndim < 2 else int(np.argwhere(~finite.all(axis=1))[0][0])
        raise SolverError(f"generator returned non-finite values at (i={nodes[row]}, j={j})")

    # -- one backward level ----------------------------------------------

    def level(self, j: int, frozen: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        """Advance the rows of outer nodes 0..j from column j+1 to column j.

        ``frozen`` is the Picard mode's previous iterate (y, coeffs): its
        Y column is the off-diagonal y-argument.  The M-solution fills the
        rows i > j of column j of ``coeffs`` with the martingale rows of
        Y: node j regresses Y(t_i) * dW_j / dt, right because Y's columns
        after j are final in a one-pass sweep.  ``self.mirror`` alone
        decides the mirrored rows: the kernel rows themselves (``"s"``),
        the frozen upper table evaluated at node j (``"picard"``), or
        node i's martingale regression of Y(t_j)
        (:meth:`NodeDesign.kernel_row`, ``"m"``), formed once the
        diagonal cell, which reads the kernel's own row (exact there),
        has made Y(t_j) final.  Kernel values are evaluated only for a
        generator that declares ``z`` or ``zeta``.  The projections and evaluations take
        all rows at once, into ``lam`` and ``self.work``; the off-diagonal
        update (the generator, its check, the dt scaling and the add to
        ``lam``) runs one block of :class:`_LevelWork` rows at a time, so
        what it allocates is one block in size.
        """
        work = self.work
        if self.designs is None:
            design = self.driver._node_design(self.config.basis, j)
        else:
            design = self.designs[j]
        lam, lo = self.lam, self.lo
        top = int(self.row_of[j])  # the row holding the diagonal
        off = top + (lo[top] < j)  # the rows that hold nodes below j
        if self.batched:
            batches = [(slice(0, j + 1), slice(0, j + 1))]  # (lam rows, their outer nodes)
        else:
            batches = [(slice(r, r + 1), slice(lo[r], lo[r] + 1)) for r in range(top + 1)]
        z_fit, zeta_rows = work.z, work.zeta
        design.operand(work.xw2)
        for rows, nodes in batches:
            # both node estimates are variance-reduced by the other (see
            # NodeDesign.project).  A constant row's kernel cancels only to
            # rounding, up to about 5e-14 at 16 steps x 2048 paths, not to zero.
            c, bz = design.project(lam[rows], work.xw2)
            work.bz[rows] = bz
            # the rows are read: their fitted conditional expectations replace them
            design.evaluate(c, out=lam[rows])
            if z_fit is not None:
                design.evaluate(bz, out=z_fit[rows])
            if self.mirror == "picard":
                design.evaluate(frozen[1][nodes, j], out=zeta_rows[rows])
        self.coeffs[: j + 1, j] = work.bz[self.row_of[: j + 1]]
        if self.concept == "m":
            # the fitted conditional expectation is subtracted first, as for
            # the level's own rows: same projection, far less regressand variance
            self.coeffs[j + 1:, j] = design.project(self.y[:, j + 1:].T, work.xw2)[1]
        if self.mirror == "m":
            # zeta = z on the diagonal
            np.matmul(design.x, work.bz[top], out=zeta_rows[top])

        paths = self.ensemble.values
        # diagonal first: its y-argument is the regressed predictor
        z_diag = None if z_fit is None else z_fit[top]
        zeta_diag = None if zeta_rows is None else zeta_rows[top]
        env = _generator_env(self.grid, paths, j, j, lam[top], z_diag, zeta_diag)
        g_diag = np.asarray(self.g(env), dtype=np.float64)
        self._check_g(g_diag, (j,), j)
        # the row keeps its predictor, which its nodes below j still read
        np.add(lam[top], self.dt * g_diag, out=self.y[:, j])

        if off == 0:
            return
        y_row = work.y
        y_row[:] = (self.y if frozen is None else frozen[0])[:, j]
        if self.mirror == "m":
            yw = work.yw2[0]
            if design.weights is None:
                yw[:] = y_row
            else:
                np.multiply(y_row, design.weights, out=yw)
            for i in range(j):
                np.multiply(yw, self.designs[i].increments, out=work.yw2[1])
                self.designs[i].kernel_row(work.yw2, zeta_rows[i])
        start = 0
        while start < off:
            rows = slice(start, min(start + work.block, off))
            env = _generator_env(
                self.grid, paths, rows if self.batched else None, j, y_row,
                None if z_fit is None else z_fit[rows],
                None if zeta_rows is None else zeta_rows[rows],
            )
            g_rows = np.asarray(self.g(env), dtype=np.float64)
            self._check_g(g_rows, lo[rows], j)
            if g_rows.ndim < 2:
                # independent of the row index: one row, broadcast to every row left
                rows = slice(start, off)
            np.add(lam[rows], self.dt * g_rows, out=lam[rows])
            start = rows.stop

    # -- full passes -------------------------------------------------------

    def run_levels(self, j_hi: int, j_lo: int,
                   frozen: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        for j in range(j_hi, j_lo - 1, -1):
            self.level(j, frozen)

    # -- iterate distances -------------------------------------------------

    def block_norms_sq(
        self, j_hi: int, j_lo: int, y_old: np.ndarray, c_old: np.ndarray
    ) -> tuple[float, float]:
        """Squared triangle norms over a level block of the iterate minus an
        old one, and of the iterate itself, in one pass.

        The kernel part is the path mean of the squared fitted values,
        taken as the quadratic form dc^T gram dc of each coefficient row.
        """
        update = size = 0.0
        dt, dt2 = self.dt, self.dt**2
        y_new, c_new = self.y, self.coeffs
        for j in range(j_lo, j_hi + 1):
            gram = self.designs[j].gram
            y_j, c_j = y_new[:, j], c_new[: j + 1, j]
            dy = y_j - y_old[:, j]
            update += mean_square(dy, out=dy) * dt
            size += mean_square(y_j) * dt
            dc = c_j - c_old[: j + 1, j]
            update += float(np.sum((dc @ gram) * dc)) * dt2
            size += float(np.sum((c_j @ gram) * c_j)) * dt2
        return update, size


def _upper_kernel(sweep: _Sweep) -> CoeffSurface:
    return CoeffSurface(sweep.grid, sweep.driver.state, _readonly(sweep.coeffs), region="upper")


def _adapted(sweep: _Sweep) -> AdaptedField:
    return AdaptedField(grid=sweep.grid, values=_readonly(sweep.y))


# ---------------------------------------------------------------------------
# public operations


def _fixed_point(sweep: _Sweep) -> tuple[int, bool, list[float], list[float]]:
    """Iterate frozen-data sweeps to their fixed point: the Picard mode.

    Each sweep freezes the previous iterate (zeros before the first
    sweep): its Y is the y-argument of the off-diagonal cells, and its
    upper coefficient table gives the mirrored kernel values (see
    :meth:`_Sweep.level`).  The iteration runs on the whole level
    range and bisects a block into sub-blocks only when the block's own
    contraction ratios stay at or above one; ``max_iter`` bounds each
    block.  Blocks run depth first, upper half before lower half, each
    from the ``lam`` its predecessor left.  The solution stays in the
    sweep; returns the bookkeeping fields of :class:`SolveReport`.
    """
    tol, max_iter = sweep.config.tol, sweep.config.max_iter
    iterations, converged = 0, True
    all_updates: list[float] = []
    all_ratios: list[float] = []
    blocks = [(sweep.n - 1, 0, 0)]
    while blocks:
        j_hi, j_lo, depth = blocks.pop()
        entry = sweep.lam.copy()
        prev_y = np.zeros_like(sweep.y)
        prev_c = np.zeros_like(sweep.coeffs)
        updates: list[float] = []
        ratios: list[float] = []
        for _ in range(max_iter):
            sweep.lam[:] = entry
            sweep.run_levels(j_hi, j_lo, (prev_y, prev_c))
            iterations += 1
            upd, base = np.sqrt(sweep.block_norms_sq(j_hi, j_lo, prev_y, prev_c))
            if updates:
                ratios.append(upd / max(updates[-1], 1e-300))
                all_ratios.append(ratios[-1])
            updates.append(upd)
            all_updates.append(upd)
            # later columns hold the solved blocks
            prev_y[:, j_lo:] = sweep.y[:, j_lo:]
            prev_c[:, j_lo:] = sweep.coeffs[:, j_lo:]
            if upd <= tol * (1.0 + base):
                break
            diverging = len(ratios) >= 2 and ratios[-1] >= 1.0 and ratios[-2] >= 1.0
            if diverging and j_hi > j_lo and depth < 8:
                sweep.lam[:] = entry
                mid = (j_hi + j_lo + 1) // 2
                # popped last-in first-out: the upper half runs first
                blocks += [(mid - 1, j_lo, depth + 1), (j_hi, mid, depth + 1)]
                break
        else:
            converged = False
    return iterations, converged, all_updates, all_ratios


def solve_s(
    problem: ProblemSpec, paths: PathEnsemble | Driver, config: SolverConfig | None = None
) -> SolveReport:
    """Symmetric-kernel solution: the mirrored value is the value itself.

    ``paths`` is a :class:`Driver`, whose node designs the solve builds
    or reuses, or an ensemble, solved on a fresh plain driver.  The
    default one-pass diagonal sweep resolves the diagonal coupling
    level by level; ``config.picard`` switches to the frozen-data
    iteration, which freezes y and the upper coefficient table and
    converges to the same discrete fixed point.  Its ``iterations``
    counts the sweeps of every level block; ``config.max_iter`` bounds
    each block, so the total can exceed it.
    """
    config = config or SolverConfig()
    sweep = _Sweep(problem, paths, config, "picard" if config.picard else "s")
    if config.picard:
        bookkeeping = _fixed_point(sweep)
    else:
        sweep.run_levels(sweep.n - 1, 0)
        bookkeeping = (1, True)
    return SolveReport(
        "s-solution", _adapted(sweep), SymmetricSurface(_upper_kernel(sweep)), *bookkeeping
    )


def _one_sweep(config: SolverConfig | None, concept: str) -> SolverConfig:
    """``config`` or the default, for a solve that sweeps once and so has no Picard mode."""
    config = config or SolverConfig()
    if config.picard:
        raise ValueError(f"the {concept} is one backward sweep; picard applies to the "
                         "s-solution alone")
    return config


def solve_m(
    problem: ProblemSpec, paths: PathEnsemble | Driver, config: SolverConfig | None = None
) -> SolveReport:
    """Martingale-extended solution, in one backward sweep.

    The diagonal sweep (same code path as :func:`solve_s`, so without
    ``zeta`` the upper triangles agree bit for bit) also fills the lower
    triangle from the representation of Y: level j fits node j's rows of
    Y(t_i), i > j, which are final there.  A generator that reads
    ``zeta`` reads the M-solution's mirrored values, formed at each level
    (see :meth:`_Sweep.level`); this is the defining relation
    Y(t) = E[Y(t) | F_s] + int_s^t Z(t, r) dW(r) solved by backward
    induction, so no iteration runs: ``config.tol`` and
    ``config.max_iter`` are unread, ``config.picard`` raises
    ValueError, and the report reads one iteration, converged, with no
    norms or ratios.  The kernel is one full coefficient table, each
    column j a polynomial in the state at node j.  ``paths`` is read as
    by :func:`solve_s`.
    """
    config = _one_sweep(config, "m-solution")
    sweep = _Sweep(problem, paths, config, "m")
    sweep.run_levels(sweep.n - 1, 0)
    z = CoeffSurface(sweep.grid, sweep.driver.state, _readonly(sweep.coeffs), region="full")
    return SolveReport("m-solution", _adapted(sweep), z, 1, True)


def solve_adapted(
    problem: ProblemSpec, paths: PathEnsemble | Driver, config: SolverConfig | None = None
) -> SolveReport:
    """Adapted solution of the mirror-free equation.

    The generator must not read the mirrored kernel; identifying the
    mirrored slot with the kernel itself reduces the problem to the
    symmetric sweep, whose Y this shares exactly.  Only the upper
    triangle is returned: nothing below the diagonal is defined here.
    ``paths`` is read as by :func:`solve_s`; ``config.picard`` raises
    ValueError.
    """
    if problem.generator.uses_zeta:
        raise ValueError("the mirror-free form takes a generator without zeta")
    config = _one_sweep(config, "adapted solution")
    sweep = _Sweep(problem, paths, config, "s")
    sweep.run_levels(sweep.n - 1, 0)
    return SolveReport("adapted", _adapted(sweep), _upper_kernel(sweep), 1, True)


@dataclass(frozen=True)
class ResidualReport:
    """Pathwise defect of fields plugged back into the discrete equation."""

    per_node: np.ndarray
    aggregate: float


def residual(
    problem: ProblemSpec,
    y: AdaptedField,
    z: SurfaceField,
    ensemble: PathEnsemble,
    form: str = "row",
) -> ResidualReport:
    """Per-outer-node L2 residual of (Y, Z) in the discrete equation.

    ``form`` selects which kernel orientation drives the stochastic
    sum: "row" reads the row Z(t_i, .), the mirrored "column" form
    reads the column Z(., t_i).  The generator arguments are identical
    in both, so for an exactly symmetric kernel the two residuals agree
    bit for bit.
    """
    _check_grid(problem.grid, ensemble.grid)
    if form not in ("row", "column"):
        raise ValueError(f"unknown residual form {form!r}")
    grid = problem.grid
    n = grid.steps
    w = ensemble.values
    terminal = problem.terminal.eval_all(grid, w)
    g = problem.generator
    per_node = np.zeros(n + 1)
    dt = grid.dt
    for i in range(n + 1):
        width = n - i
        r = y.at(i) - terminal[i]
        if width:
            z_row = np.stack([z.at(i, j) for j in range(i, n)])
            z_col = None
            if g.uses_zeta or form == "column":
                z_col = np.stack([z.at(j, i) for j in range(i, n)])
            env = _generator_env(grid, w, i, slice(i, n), y.values[:, i:n].T, z_row, z_col)
            gv = np.asarray(g(env), dtype=np.float64)
            if gv.ndim == 2:
                # summed along each path's row of a path-major copy: numpy sums a
                # contiguous axis pairwise, so the bits do not follow the paths' layout
                gsum = gv.T.copy(order="C").sum(axis=1) * dt
            else:
                gsum = gv * (width * dt)
            diffusion = z_row if form == "row" else z_col
            ito = np.einsum("jp,pj->p", diffusion, ensemble.increments[:, i:n])
            r = r - gsum + ito
        per_node[i] = float(np.sqrt(mean_square(r, out=r)))
    aggregate = float(np.sqrt(np.sum(per_node[:n] ** 2) * dt))
    return ResidualReport(per_node=per_node, aggregate=aggregate)
