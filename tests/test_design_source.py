"""Per-node design matrices have one source: ``Driver._node_design``.

Every solve takes its designs from the driver it sweeps, which builds
each of them in that one method, whether it keeps them or the sweep
drops each with its level, so ``NodeDesign`` is constructed in exactly
one place in the package.  A node names itself in its failures,
so regression errors are raised in ``regression.py`` alone and no caller
re-raises them with a node prefix.  A driver pairs a regression state
with the ensemble it was computed from, so ``Driver(...)`` is called
only by the tilt, and every other driver mirrors its ensemble through
``Driver.from_ensemble``.  A kernel's statistics read its
coefficients, not its path values, so a kernel's cells are read only
where the values are the output, the residual and the per-path export,
one cell at a time; a kernel backing implements one read, ``column``,
and ``SurfaceField.at`` is its one-cell case.  The Gram X^T X / M that
turns a coefficient vector into a path moment is formed by one
function, ``regression.design_gram``.  A sampled ensemble stores
its paths node-major, so a per-node read needs no copy, and an array is
copied into a given layout only where rounding follows the layout.  A
design forms its H when it is built, so a node's projection operand is
filled only by the sweep level that projects the node's rows.
"""

import ast
from pathlib import Path

from bsvie import fields

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bsvie"


def _called(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _call_sites(source: str, match) -> list[str]:
    """Qualified names of the functions holding a call for which ``match(call)`` holds."""
    found = []

    def visit(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and match(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def _constructions(source: str, name: str = "NodeDesign") -> list[str]:
    """Qualified names of the functions that call ``name(...)``."""
    return _call_sites(source, lambda call: _called(call) == name)


def test_node_designs_are_built_in_one_place():
    sites = [
        f"{path.name}: {where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _constructions(path.read_text(encoding="utf-8"))
    ]
    assert sites == ["solver.py: Driver._node_design"]


_REGRESSION_ERRORS = ("RegressionError", "DegenerateEnsembleError")


def _regression_error_sites(sources: dict) -> set:
    """``file: scope`` of every construction of a regression error."""
    return {
        f"{name}: {where}"
        for name, source in sources.items()
        for error in _REGRESSION_ERRORS
        for where in _constructions(source, error)
    }


def test_regression_errors_are_raised_by_the_node_alone():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert {site.split(":")[0] for site in _regression_error_sites(sources)} == {"regression.py"}


def test_error_guard_finds_a_re_raise_outside_the_node():
    caller = (
        "from .regression import RegressionError\n\n"
        "def _project(design, j, rows):\n"
        "    try:\n        return design.project(rows)\n"
        "    except RegressionError as e:\n"
        "        raise RegressionError(f'node {j}: {e}') from None\n\n"
        "class Driver:\n"
        "    def build(self):\n"
        "        raise regression.DegenerateEnsembleError('node 0')\n"
    )
    assert _regression_error_sites({"regression.py": "", "solver.py": caller}) == {
        "solver.py: _project", "solver.py: Driver.build"}


def _driver_sites(sources: dict) -> set:
    """``file: scope`` of every ``Driver(...)`` call."""
    return {f"{name}: {where}" for name, source in sources.items()
            for where in _constructions(source, "Driver")}


def test_drivers_with_their_own_state_are_built_by_the_tilt_alone():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _driver_sites(sources) == {"girsanov.py: tilt"}


def test_driver_guard_finds_a_third_site():
    source = (
        "class Driver:\n"
        "    @classmethod\n"
        "    def from_ensemble(cls, ensemble):\n"
        "        return cls(ensemble, ensemble.values, ensemble.increments)\n\n"
        "def route(spec, ensemble):\n"
        "    return solver.Driver(ensemble, spec.state, ensemble.increments)\n"
    )
    assert _driver_sites({"girsanov.py": "def tilt(e):\n    return Driver(e)\n",
                          "risk.py": source}) == {"girsanov.py: tilt", "risk.py: route"}


def test_kernel_cells_are_read_in_one_place():
    sites = {
        f"{path.name}: {where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in ("column", "read_cells")
        for where in _constructions(path.read_text(encoding="utf-8"), name)
    }
    # a mirrored kernel's column forwards to the table it mirrors, and a
    # single cell is a column of one
    assert sites == {"fields.py: SymmetricSurface.column", "fields.py: SurfaceField.at"}


def test_single_cell_reads_stay_at_known_sites():
    # ``at`` reads a cell of any kernel; ``value`` was a closed-form
    # kernel's read, and no kernel has one now
    sites = {
        f"{path.name}: {where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in ("at", "value")
        for where in _constructions(path.read_text(encoding="utf-8"), name)
    }
    assert sites == {
        "solver.py: residual",  # row and column sums of one outer node
        "solver.py: _generator_env",  # its local helper, not a kernel read
        "cli.py: _path_rows",  # the per-path export, one cell at a time
        "fields.py: SymmetricSurface.column",  # the mirror of a lower cell
    }


def test_no_backing_overrides_the_cell_read():
    backings = [cls for cls in fields.SurfaceField.__subclasses__()
                if cls.__module__ == fields.__name__]
    assert {cls.__name__ for cls in backings} == {"CoeffSurface", "SymmetricSurface"}
    assert all("at" not in vars(cls) for cls in backings)


def _gram_sites(sources: dict) -> set:
    """``file: scope`` of every product of an expression with itself, a.T @ a or
    ``_chunked_ab(a, a)``: the places that form a Gram."""
    def same(a: ast.AST, b: ast.AST) -> bool:
        return ast.dump(a) == ast.dump(b)

    found = set()
    for name, source in sources.items():
        def visit(node: ast.AST, scope: tuple) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + (child.name,))
                    continue
                gram = (isinstance(child, ast.Call) and _called(child) == "_chunked_ab"
                        and len(child.args) == 2 and same(*child.args))
                gram = gram or (isinstance(child, ast.BinOp)
                                and isinstance(child.op, ast.MatMult)
                                and isinstance(child.left, ast.Attribute)
                                and child.left.attr == "T" and same(child.left.value, child.right))
                if gram:
                    found.add(f"{name}: {'.'.join(scope) or '<module>'}")
                visit(child, scope)

        visit(ast.parse(source), ())
    return found


def test_the_gram_is_formed_in_one_function():
    # the Picard norms, the kernel statistics and the error metrics read
    # one Gram, so their quadratic forms share its bits
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _gram_sites(sources) == {"regression.py: design_gram"}


def test_gram_guard_finds_a_second_gram():
    source = (
        "def design_gram(x):\n    return _chunked_ab(x, x) / x.shape[0]\n\n"
        "class NodeDesign:\n"
        "    def gram(self):\n        return _chunked_ab(self.x, self.x) / self.n_paths\n\n"
        "    def weighted(self, xw):\n        return _chunked_ab(self.x, xw)\n\n"
        "def _moments(state):\n    x = design_matrix(state, 3)\n    return x.T @ x / len(x)\n"
    )
    assert _gram_sites({"regression.py": source}) == {
        "regression.py: design_gram", "regression.py: NodeDesign.gram",
        "regression.py: _moments"}


def test_guard_finds_every_construction():
    source = (
        "import bsvie.regression as regression\n\n"
        "class Driver:\n"
        "    def _node_designs(self, basis):\n"
        "        return [NodeDesign(s, basis) for s in self.state]\n\n"
        "def _sweep(state):\n"
        "    def inner():\n        return regression.NodeDesign(state)\n"
        "    return inner\n\n"
        "SPARE = NodeDesign(0)\n"
    )
    assert _constructions(source) == ["Driver._node_designs", "_sweep.inner", "<module>"]


def test_each_solve_decides_its_sweep_plan_in_one_place():
    # a sweep works out its plan from the problem and one literal naming
    # the solution concept, so only the three solves construct one
    source = (PACKAGE / "solver.py").read_text(encoding="utf-8")
    sites = {f"{path.name}: {where}"
             for path in sorted(PACKAGE.glob("*.py"))
             for where in _constructions(path.read_text(encoding="utf-8"), "_Sweep")}
    assert sites == {"solver.py: solve_s", "solver.py: solve_m", "solver.py: solve_adapted"}
    concepts = set()
    for call in ast.walk(ast.parse(source)):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_Sweep":
            plan = call.args[3]
            options = [plan.body, plan.orelse] if isinstance(plan, ast.IfExp) else [plan]
            assert all(isinstance(o, ast.Constant) for o in options), ast.unparse(plan)
            concepts.update(o.value for o in options)
    assert concepts == {"s", "picard", "m"}


def _operand_fills(sources: dict) -> set:
    """``file: scope`` of every ``operand(...)`` call."""
    return {f"{name}: {where}" for name, source in sources.items()
            for where in _constructions(source, "operand")}


def test_a_node_operand_is_filled_by_its_level_alone():
    # a design forms its H when it is built, so nothing but the level that
    # projects the node's rows fills its operand
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _operand_fills(sources) == {"solver.py: _Sweep.level"}


def test_operand_guard_finds_a_lazy_fill():
    source = (
        "class NodeDesign:\n"
        "    def kernel_row(self, yw2, xw2, out):\n"
        "        if self._h is None:\n"
        "            self._form_h(self.operand(xw2))\n\n"
        "class _Sweep:\n"
        "    def level(self, j):\n"
        "        design.operand(self.work.xw2)\n"
    )
    assert _operand_fills({"regression.py": source}) == {
        "regression.py: NodeDesign.kernel_row", "regression.py: _Sweep.level"}


def _layout_copies(source: str) -> list[str]:
    """Functions that copy an array into a given layout."""
    return _call_sites(source, lambda call: _called(call) in ("ascontiguousarray",
                                                              "asfortranarray")
                       or any(k.arg == "order" for k in call.keywords))


def test_arrays_are_copied_into_a_layout_only_where_it_keeps_bits():
    # node columns of a sampled ensemble are contiguous rows, so no read of
    # one copies it; what remains keeps bits that follow the layout: the
    # tilt's and the self-test's BLAS products and the residual's pairwise
    # sum along each path
    sites = sorted(
        f"{path.name}: {where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _layout_copies(path.read_text(encoding="utf-8"))
    )
    assert sites == ["girsanov.py: girsanov_selftest", "girsanov.py: tilt",
                     "solver.py: residual"]


def test_layout_guard_finds_a_per_node_copy():
    source = (
        "class NodeDesign:\n"
        "    def operand(self, xw2):\n"
        "        dw = np.ascontiguousarray(self.increments)\n\n"
        "def _sweep(w, j):\n"
        "    return np.array(w[:, j], order='C')\n"
    )
    assert _layout_copies(source) == ["NodeDesign.operand", "_sweep"]
