"""Every package module uses each name it imports, and reads each
private helper it defines.

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
