"""Exception hierarchy shared by all modules, and the entry rules for numbers
and distributions.

Two user-facing failure modes exist: the input is malformed or out of
range (ValidationError, CLI exit code 1), or the input parsed fine but a
mathematical certification failed, e.g. a Krein violation, a CP check, or
a residual above tolerance (CertificationError, CLI exit code 2).
"""

import numpy as np

# Probability mass is checked to 1e-10.  A float64 distribution computed
# over up to 10^5 entries sums to 1 within n*eps = 2e-11, and one written
# to eleven decimals within 1e-11, so both pass; the orthogonality defect
# of `dilation_unitary`, which equals the mass error, stays below it.
_MASS_TOL = 1e-10


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


def require_distribution(data, what: str) -> np.ndarray:
    """`data` as a new float64 vector of probabilities: `numeric_array`'s
    rules, one axis with at least one entry, no entry below -_MASS_TOL and
    a sum within _MASS_TOL of 1, else ValidationError naming `what`.
    Entries in [-_MASS_TOL, 0) are returned as 0."""
    vec = numeric_array(data, what, "iuf").astype(np.float64, copy=False)
    if vec.ndim != 1 or vec.size == 0:
        raise ValidationError(f"{what} must be a non-empty vector, got shape {vec.shape}")
    if vec.min() < -_MASS_TOL:
        raise ValidationError(f"{what} has a negative entry: {float(vec.min())!r}")
    if abs(vec.sum() - 1.0) > _MASS_TOL:
        raise ValidationError(f"{what} sums to {float(vec.sum())!r}, not 1")
    return np.clip(vec, 0.0, None)
