"""No module of the package imports a name it never uses, no module
imports another module's private name, and no private module-level
definition goes unreferenced.

`__init__.py` is exempt from the import check: its imports are the public
re-exports.  A name counts as used when it appears as an identifier
anywhere in the module, annotations included.  A private function, class
or constant (name starting with one underscore) counts as referenced when
some module of the package reads it as a name or an attribute.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schemewalk"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports(module.read_text()) == []


def test_the_guard_sees_an_unused_import():
    assert _unused_imports("import json\nfrom os import path, sep\nprint(sep)\n") == [
        "line 1: json", "line 2: path"]


def _private_imports(source: str) -> list[str]:
    return [f"line {node.lineno}: {alias.name}"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another(module):
    """Each module owns its private state: the store of builders' results,
    reports and algebra records is read and written through the names of
    `_store` alone."""
    assert _private_imports(module.read_text()) == []


def test_the_guard_sees_a_private_import():
    source = ("from __future__ import annotations\nimport numpy as _np\n"
              "from .schemes import _REPORTS, AssociationScheme, _packed_dtype\n"
              "from .spectral import (\n    _own_record,\n)\n")
    assert _private_imports(source) == [
        "line 3: _REPORTS", "line 3: _packed_dtype", "line 4: _own_record"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    return {name: line for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__")}


def _orphaned_private_definitions(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module} line {line}: {name}"
            for module, tree in trees.items()
            for name, line in _private_definitions(tree).items() if name not in read]


def test_package_references_every_private_definition():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _orphaned_private_definitions(sources) == []


def test_the_guard_sees_an_orphaned_private_definition():
    sources = {
        "a.py": "_LIMIT = 3\n_UNUSED = 4\ndef _helper():\n    return _LIMIT\n"
                "class _Dead:\n    pass\n",
        "b.py": "from .a import _helper\nprint(_helper())\n",
    }
    assert _orphaned_private_definitions(sources) == ["a.py line 2: _UNUSED", "a.py line 5: _Dead"]
