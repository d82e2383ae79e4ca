"""`errors` owns every certification bound: no other module of the package
defines a tolerance constant (a name ending in _TOL, TOLERANCE, THRESHOLD
or _FLOOR) or compares anything with a float literal below 1e-3 in
magnitude.  Such a comparison is a tolerance without a name; 0.0 is exact
and allowed."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schemewalk"
OTHERS = sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py")
SUFFIXES = ("_TOL", "TOLERANCE", "THRESHOLD", "_FLOOR")


def _literal(node: ast.expr) -> float | None:
    """The value of a float literal, or of a negated one; else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _literal(node.operand)
        return None if value is None else -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return node.value
    return None


def _stray_bounds(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found += [f"line {node.lineno}: {t.id}" for t in targets
                  if isinstance(t, ast.Name) and t.id.endswith(SUFFIXES)]
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                value = _literal(operand)
                if value is not None and 0 < abs(value) < 1e-3:
                    found.append(f"line {node.lineno}: compares with {value!r}")
    return found


@pytest.mark.parametrize("module", OTHERS, ids=[p.name for p in OTHERS])
def test_no_module_but_errors_holds_a_tolerance(module):
    assert _stray_bounds(module.read_text()) == []


def test_the_guard_sees_a_planted_tolerance():
    source = ("import numpy as np\n_PLANTED_TOL = 1e-9\nTHRESHOLD: float = 0.5\n"
              "def f(r, x):\n    if r > 1e-12:\n        return 0\n"
              "    return -2.5e-8 <= x < 0.0 or x == 1.0\n")
    assert _stray_bounds(source) == ["line 2: _PLANTED_TOL", "line 3: THRESHOLD",
                                     "line 5: compares with 1e-12",
                                     "line 7: compares with -2.5e-08"]


def test_errors_holds_the_bounds():
    assert len(_stray_bounds((PACKAGE / "errors.py").read_text())) >= 17
