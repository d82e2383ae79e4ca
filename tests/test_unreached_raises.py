"""The refusal finder of `tools/unreached_raises.py`, fed planted sources."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unreached_raises.py"
_spec = importlib.util.spec_from_file_location("unreached_raises", TOOL)
unreached_raises = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached_raises)

SOURCE = '''\
def f(x):
    if x > 1:
        raise ValidationError(
            "too big")
    check("x >= 0", -x, 0.0)
    errors.check("x", x, 0.5, None,
                 ValidationError)
    check("x", x, 0.75, error=errors.ValidationError)
    raise StopIteration
'''


def test_every_raise_and_check_call_is_a_refusal_with_its_exception():
    assert unreached_raises.refusals(SOURCE) == [
        (3, 4, "ValidationError", False), (5, 5, "CertificationError", True),
        (6, 7, "ValidationError", True), (8, 8, "ValidationError", True),
        (9, 9, "StopIteration", False)]


def test_a_raise_counts_as_reached_when_any_of_its_lines_ran():
    checks_raised = {("m.py", 5), ("m.py", 7), ("m.py", 8)}
    assert unreached_raises.unreached({"m.py": SOURCE}, {("m.py", 4), ("m.py", 9)},
                                      checks_raised) == []
    assert unreached_raises.unreached({"m.py": SOURCE}, {("m.py", 9)}, checks_raised) == [
        "m.py:3: ValidationError"]


def test_a_check_that_ran_but_never_raised_is_unreached():
    ran = {("m.py", line) for line in range(1, 10)}
    assert unreached_raises.unreached({"m.py": SOURCE}, ran, {("m.py", 6)}) == [
        "m.py:5: CertificationError", "m.py:8: ValidationError"]


PLANTED = '''\
class CertificationError(Exception):
    pass


def check(identity, residual, bound, witness=None, error=CertificationError):
    if not residual <= bound:
        raise error(identity)


def certify(x):
    check("x <= 1", x,
          1.0)
    check("x <= 2", x, 2.0)
'''


def test_a_check_counts_as_reached_when_its_refusal_passed_through_it(tmp_path):
    path = tmp_path / "planted_checks.py"
    path.write_text(PLANTED)
    spec = importlib.util.spec_from_file_location("planted_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run():
        module.certify(0.5)
        try:
            module.certify(1.5)
        except module.CertificationError:
            return "refused"

    before = sys.gettrace()
    result, executed, raised = unreached_raises.traced(run, {str(path)})
    assert sys.gettrace() is before
    assert result == "refused" and (str(path), 13) in executed
    assert unreached_raises.unreached({str(path): PLANTED}, executed, raised) == [
        f"{path}:13: CertificationError"]
