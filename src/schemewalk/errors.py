"""Exception hierarchy shared by all modules, and the entry rules for
numbers, integers, distributions, array shapes, size caps and indices.

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


def numeric_array(data, what: str, kinds: str = "iu", ndim: int | None = None,
                  size: int | None = None) -> np.ndarray:
    """`data` as an array of finite entries whose inferred dtype kind lies in
    `kinds`; ragged nesting, strings, booleans (an array of them, one
    anywhere in nested lists and tuples, or an array of them there),
    integers beyond 64 bits, floats where `kinds` asks for integers
    ("iu") and NaN or infinite entries (named by the first index) raise
    ValidationError.  With `ndim`, the array must have that many axes, all
    of one length (`size` when given) and not 0: "<what> must be a
    non-empty array of shape (n, n), got shape (2, 3)".  An ndarray is
    not scanned for bools; its dtype says."""
    try:
        arr = np.asarray(data)
    except (ValueError, TypeError):
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None
    expected = "integers" if "f" not in kinds else "numbers"
    if arr.dtype.kind not in kinds:
        raise ValidationError(f"{what} entries must be {expected}, got dtype {arr.dtype}")
    if isinstance(data, (list, tuple)) and _holds_bool(data):
        raise ValidationError(f"{what} entries must be {expected}, got a bool")
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        where = ",".join(str(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise ValidationError(f"{what} has a non-finite entry at ({where})")
    if ndim is not None and (arr.ndim != ndim or arr.size == 0 or len(set(arr.shape)) != 1
                             or size not in (None, arr.shape[0])):
        form = ", ".join(["n" if size is None else str(size)] * ndim) + ("," if ndim == 1 else "")
        raise ValidationError(f"{what} must be a non-empty array of shape ({form}), "
                              f"got shape {arr.shape}")
    return arr


def _holds_bool(seq) -> bool:
    """Whether a bool sits anywhere in the nested lists and tuples `seq`,
    or an ndarray of bools among them (read from its dtype, not scanned);
    the element types of each level are collected in one pass."""
    types = set(map(type, seq))
    if bool in types or np.bool_ in types:
        return True
    if np.ndarray in types and any(x.dtype == bool for x in seq if type(x) is np.ndarray):
        return True
    return (list in types or tuple in types) and any(
        _holds_bool(x) for x in seq if type(x) in (list, tuple))


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


def require_index(value, size: int, what: str) -> int:
    """`value` as an int if `is_integer` holds and 0 <= value < size; else
    ValidationError "<what> <value> out of range 0..<size - 1>" (or
    `require_integer`'s message)."""
    if not 0 <= require_integer(value, what) < size:
        raise ValidationError(f"{what} {value} out of range 0..{size - 1}")
    return int(value)


def require_within_cap(count: int, cap: int, what: str) -> None:
    """The size rule: ValidationError "<what>, above the cap of <cap>" when
    count > cap.  Callers check before they allocate what `count` sizes."""
    if count > cap:
        raise ValidationError(f"{what}, above the cap of {cap}")


def require_distribution(data, what: str, size: int | None = None) -> np.ndarray:
    """`data` as a new float64 vector of probabilities: `numeric_array`'s
    rules for one non-empty axis (of length `size` when given), no entry
    below -_MASS_TOL and a sum within _MASS_TOL of 1, else ValidationError
    naming `what`.  Entries in [-_MASS_TOL, 0) are returned as 0."""
    vec = numeric_array(data, what, "iuf", ndim=1, size=size).astype(np.float64, copy=False)
    if vec.min() < -_MASS_TOL:
        raise ValidationError(f"{what} has a negative entry: {float(vec.min())!r}")
    if abs(vec.sum() - 1.0) > _MASS_TOL:
        raise ValidationError(f"{what} sums to {float(vec.sum())!r}, not 1")
    return np.clip(vec, 0.0, None)
