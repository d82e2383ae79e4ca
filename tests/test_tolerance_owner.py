"""`errors` owns every certification bound: no other module of the package
defines a tolerance constant (a name ending in _TOL, TOLERANCE, THRESHOLD
or _FLOOR) or compares anything with a float literal below 1e-3 in
magnitude.  Such a comparison is a tolerance without a name; 0.0 is exact
and allowed.  Nor does any other module refuse by its own comparison with
a bound: no `if` there compares with `errors.NAME` (or a local name bound
to one) and raises; such a refusal is `errors.check`'s, which also
refuses a NaN."""
import ast
from pathlib import Path

import numpy as np
import pytest

from schemewalk import CertificationError, ValidationError, errors

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


def _bound_refusals(source: str) -> list[str]:
    """Each `if` that compares with an `errors` bound, read as `errors.NAME`,
    imported from `errors` or assigned from one, and whose body raises."""
    tree = ast.parse(source)

    def is_bound(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "errors" and node.attr.isupper())

    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("errors")
               for alias in node.names if alias.name.isupper()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                            and any(map(is_bound, ast.walk(v)))}

    def reads_bound(expr):
        return any(is_bound(x) or isinstance(x, ast.Name) and x.id in aliases
                   for x in ast.walk(expr))

    return [f"line {node.lineno}: refuses by its own comparison" for node in ast.walk(tree)
            if isinstance(node, ast.If)
            and any(isinstance(c, ast.Compare) and reads_bound(c) for c in ast.walk(node.test))
            and any(isinstance(x, ast.Raise) for stmt in node.body for x in ast.walk(stmt))]


@pytest.mark.parametrize("module", OTHERS, ids=[p.name for p in OTHERS])
def test_no_module_but_errors_refuses_by_its_own_comparison(module):
    assert _bound_refusals(module.read_text()) == []


PLANTED_REFUSALS = """\
from . import errors
from .errors import MASS_TOL as mass
def f(r, x, y):
    psd, floor = errors.PSD_TOL, 2.0
    if r.max() > errors.STOCHASTIC_TOL:
        raise ValueError(r)
    if not x <= psd:
        if y:
            raise ValueError(x)
    elif -y < -mass:
        raise ValueError(y)
    if x < floor or y > 3.0:
        raise ValueError(x)
    if x > errors.PSD_TOL:
        return None
    return y < errors.HEXAGON_THRESHOLD
"""


def test_the_guard_sees_a_planted_refusal():
    assert _bound_refusals(PLANTED_REFUSALS) == ["line 5: refuses by its own comparison",
                                                 "line 7: refuses by its own comparison",
                                                 "line 10: refuses by its own comparison"]


def test_errors_holds_the_bounds():
    assert len(_stray_bounds((PACKAGE / "errors.py").read_text())) >= 17


def test_check_passes_at_its_bound_and_refuses_above_it_and_any_nan():
    errors.check("x", errors.VALENCY_TOL, errors.VALENCY_TOL, lambda: pytest.fail("formatted"))
    errors.check("x", np.array([[0.0, -1.0], [1.0, 0.5]]), 1.0)
    with pytest.raises(CertificationError, match=r"^x fails at \(1\): residual nan exceeds "
                                                 r"bound 1$"):
        errors.check("x", np.array([0.0, np.nan, 2.0, np.nan]), 1.0)
    with pytest.raises(ValidationError, match=r"^x fails at w 1 2: residual 2\.000e\+00 "):
        errors.check("x", np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]), 1.0,
                     lambda i, j: f"w {i} {j}", ValidationError)
