"""The refusal finder of `tools/unreached_raises.py`, fed planted sources."""

import importlib.util
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
    if x < 0:
        refuse("x >= 0", -x, 0.0)
    if x == 0.5:
        errors.refuse("x", x, 0.0, None,
                      ValidationError)
    if x == 0.25:
        refuse("x", x, 0.0, error=errors.ValidationError)
    raise StopIteration
'''


def test_every_raise_and_refuse_call_is_a_refusal_with_its_exception():
    assert unreached_raises.refusals(SOURCE) == [
        (3, 4, "ValidationError"), (6, 6, "CertificationError"), (8, 9, "ValidationError"),
        (11, 11, "ValidationError"), (12, 12, "StopIteration")]


def test_a_refusal_counts_as_reached_when_any_of_its_lines_ran():
    ran = {("m.py", 4), ("m.py", 6), ("m.py", 12)}
    assert unreached_raises.unreached({"m.py": SOURCE}, ran) == [
        "m.py:8: ValidationError", "m.py:11: ValidationError"]
