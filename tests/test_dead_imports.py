"""No module of the package imports a name it never uses.

`__init__.py` is exempt: its imports are the public re-exports.  A name
counts as used when it appears as an identifier anywhere in the module,
annotations included.
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
