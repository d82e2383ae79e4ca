"""Exception hierarchy shared by all modules, and the entry rules for numbers.

Two user-facing failure modes exist: the input is malformed or out of
range (ValidationError, CLI exit code 1), or the input parsed fine but a
mathematical certification failed, e.g. a Krein violation, a CP check, or
a residual above tolerance (CertificationError, CLI exit code 2).
"""

import numpy as np


class SchemeWalkError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SchemeWalkError):
    """Invalid input: bad parameters, malformed data, unsupported request."""


class CertificationError(SchemeWalkError):
    """A numerical or combinatorial certification failed on valid-looking input."""


def numeric_array(data, what: str, kinds: str = "iu") -> np.ndarray:
    """`data` as an array of finite entries whose inferred dtype kind lies in
    `kinds`; ragged nesting, strings, an array of booleans only, integers
    beyond 64 bits, floats where `kinds` asks for integers ("iu") and NaN or
    infinite entries (named by the first index) raise ValidationError.  A
    bool mixed into numbers is upcast to a number and accepted."""
    try:
        arr = np.asarray(data)
    except (ValueError, TypeError):
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None
    if arr.dtype.kind not in kinds:
        expected = "integers" if "f" not in kinds else "numbers"
        raise ValidationError(f"{what} entries must be {expected}, got dtype {arr.dtype}")
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        where = ",".join(str(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise ValidationError(f"{what} has a non-finite entry at ({where})")
    return arr


def is_integer(value) -> bool:
    """The rule for an integer argument: an int or a NumPy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_integer(value, what: str, minimum: int | None = None) -> int:
    """`value` as an int if `is_integer` holds and it is at least `minimum`;
    else ValidationError "<what> must be an integer[ >= minimum], got <value>"."""
    if not is_integer(value) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)
