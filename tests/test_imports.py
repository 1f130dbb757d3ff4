"""Every name a module of the package imports, and every private name
it defines, is used there; none imports ``dataclasses``, and none
imports a module outside the standard library.

No linter runs with the tests, and an import or a helper left behind by
a deleted code path is easy to miss in review.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ebhint"

def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = imported - used - _exported(tree)
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def _private_definitions(tree: ast.Module) -> set[str]:
    """The module-level functions, classes and constants named with one
    leading underscore."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = _private_definitions(tree) - loaded
    assert not unused, f"{path.name} defines but never uses {sorted(unused)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    """Records come from `ebhint.record`; ``dataclasses`` would bring
    back its import-time code generation, which every command pays."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "dataclasses" not in modules, f"{path.name} imports dataclasses"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_standard_library_only(path):
    """`pyproject.toml` lists no runtime dependency."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 0}
    outside = {m for m in modules if m.partition(".")[0] not in sys.stdlib_module_names | {"__future__"}}
    assert not outside, f"{path.name} imports {sorted(outside)}"
