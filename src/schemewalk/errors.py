"""Exception hierarchy shared by all modules, and the array entry check.

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
    """`data` as an array whose inferred dtype kind lies in `kinds`; ragged
    nesting, strings, booleans, integers beyond 64 bits, and floats where
    `kinds` asks for integers ("iu") raise ValidationError."""
    try:
        arr = np.asarray(data)
    except (ValueError, TypeError):
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None
    if arr.dtype.kind not in kinds:
        expected = "integers" if "f" not in kinds else "numbers"
        raise ValidationError(f"{what} entries must be {expected}, got dtype {arr.dtype}")
    return arr
