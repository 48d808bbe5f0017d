"""Every package module uses each name it imports, reads each private
helper it defines, and reads each parameter of its private functions
and methods.

``__init__.py`` is exempt: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bsvie"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _unread_privates(source: str) -> list[str]:
    """Module-level private functions, classes and constants that no
    other top-level statement of the module reads (a helper that only
    calls itself counts as unread)."""
    tree = ast.parse(source)
    defined = {}
    for k, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = (k, node.lineno)
    readers: dict[str, set[int]] = {}
    for k, node in enumerate(tree.body):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                readers.setdefault(sub.id, set()).add(k)
    return [
        f"{name} (line {line})"
        for name, (k, line) in defined.items()
        if not readers.get(name, set()) - {k}
    ]


def _unread_parameters(source: str) -> list[str]:
    """Parameters that a module-level private function or a private
    method of a module-level class never reads.  A method's ``self`` or
    ``cls`` is not counted, and a body that only raises is exempt."""
    tree = ast.parse(source)
    functions = [
        f for node in tree.body
        for f in (node.body if isinstance(node, ast.ClassDef) else [node])
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and f.name.startswith("_") and not f.name.startswith("__")
    ]
    unread = []
    for f in functions:
        body = f.body[1:] if ast.get_docstring(f) is not None else f.body
        if all(isinstance(stmt, ast.Raise) for stmt in body):
            continue
        args = f.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            sub.id for stmt in f.body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        unread += [
            f"{f.name}: {a.arg} (line {a.lineno})" for a in params
            if a.arg not in read and a.arg not in ("self", "cls")
        ]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unused_name():
    source = "from .expr import format_expr, parse\n\nast = parse('1')\n"
    assert _unused_imports(source) == ["format_expr (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_helper(path):
    assert _unread_privates(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unread_helper():
    source = (
        "_LIMIT = 3\n"
        "_SPARE = 4\n\n"
        "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n\n"
        "def _used():\n    return 1\n\n"
        "class _Orphan:\n    pass\n\n"
        "def public():\n    return _used()\n"
    )
    assert _unread_privates(source) == ["_SPARE (line 2)", "_walk (line 4)", "_Orphan (line 10)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_functions_read_every_parameter(path):
    assert _unread_parameters(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unread_parameter():
    source = (
        "def _scale(x, factor, spare):\n    return x * factor\n\n"
        "def _outer(a, b):\n    def inner(c):\n        return a + b\n    return inner\n\n"
        "def _abstract(x):\n    \"\"\"Doc.\"\"\"\n    raise NotImplementedError\n\n"
        "def public(unused):\n    return 1\n\n"
        "class Box:\n"
        "    def _get(self, key, *args, **kwargs):\n        return key\n\n"
        "    def __init__(self, size):\n        pass\n"
    )
    assert _unread_parameters(source) == [
        "_scale: spare (line 1)",
        "_get: args (line 17)",
        "_get: kwargs (line 17)",
    ]
