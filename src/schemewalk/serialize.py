"""JSON encoding/decoding for the object kinds the CLI moves around.

Kinds: scheme, cayley, matrix, tensor, fusion-system, distribution.
Conventions: a scheme's relation matrix is written packed, as
{"dtype": "u1" | "u2" | "u4", "base64": ...}: the scheme's own bytes, its
class indices as little-endian unsigned integers of the narrowest of
those widths that holds d, row-major, in canonical base64 (RFC 4648);
any of the three widths, or a nested list of rows, is still read.
Every other matrix is a nested row-major array; complex entries are
[re, im] pairs (a matrix is complex iff its entries are pairs); floats
are emitted via repr, which round-trips exactly.  A key that a kind
does not read is ignored, such as the "labels" of an older scheme file
or the "name" of an older Cayley file.  Loading validates the
object's own invariants and raises ValidationError on anything
malformed, so a loaded object is ready to use.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .anyons import FusionSystem
from .errors import ValidationError, numeric_array, require_distribution, require_integer
from .groups import FiniteGroup
from .parameters import IntersectionTensor, KreinTensor
from .schemes import AssociationScheme, require_axioms
from .spectral import BoseMesnerDecomposition

KINDS = ("scheme", "cayley", "matrix", "tensor", "fusion-system", "distribution")

_PACKED_DTYPES = {"u1": np.dtype("<u1"), "u2": np.dtype("<u2"), "u4": np.dtype("<u4")}
_B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def encode_matrix(arr: np.ndarray) -> list:
    a = np.asarray(arr)
    if np.iscomplexobj(a):
        return np.stack((a.real, a.imag), -1).astype(np.float64).tolist()
    if a.dtype.kind in "iu":
        return a.tolist()
    return a.astype(np.float64).tolist()


def decode_matrix(data) -> np.ndarray:
    # any 2-D form, or its [re, im] pairs, so the shape is checked here
    arr = numeric_array(data, "matrix", kinds="if")
    if arr.ndim == 3 and arr.shape[2] == 2:
        arr = arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(
            "matrix must be a non-empty list of equal-length rows of numbers or [re, im] pairs"
        )
    return arr.astype(np.int64) if arr.dtype.kind == "i" else arr


def _encode_complex(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _decode_complex(v) -> complex:
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise ValidationError(f"expected a number or [re, im] pair, got {v!r}")
    return complex(*parts)


def _decode_keyed(data, name: str, form: str, decode) -> dict:
    """A JSON object {"i,j,...": value} as {(i, j, ...): decode(value)}."""
    if not isinstance(data, dict):
        raise ValidationError(f'"{name}" must be an object keyed by "{form}"')
    out = {}
    for key, value in data.items():
        try:
            parts = tuple(int(p) for p in key.split(","))
        except ValueError:
            parts = ()
        if len(parts) != form.count(",") + 1:
            raise ValidationError(f'{name} key must be "{form}" with integer parts, got {key!r}')
        out[parts] = decode(value)
    return out


def _pack_relation(rel: np.ndarray) -> dict:
    """The packed form of a scheme's relation matrix: its own bytes."""
    return {"dtype": f"u{rel.itemsize}", "base64": base64.b64encode(rel).decode("ascii")}


def _unpack_relation(data: dict, n: int) -> np.ndarray:
    """The n x n relation matrix of a packed form.  Only canonical base64
    of exactly n*n entries is read; the byte count is checked before any
    array is made.  The entries' range is left to AssociationScheme."""
    if set(data) != {"dtype", "base64"}:
        raise ValidationError('a packed relation must have exactly the keys "dtype", "base64"')
    code, text = data["dtype"], data["base64"]
    if not isinstance(code, str) or code not in _PACKED_DTYPES:
        raise ValidationError(
            f"packed relation dtype must be one of {tuple(_PACKED_DTYPES)}, got {code!r}"
        )
    if not isinstance(text, str):
        raise ValidationError('packed relation "base64" must be a string')
    raw = _canonical_b64decode(text)
    dtype = _PACKED_DTYPES[code]
    size = n * n * dtype.itemsize
    if n < 0 or len(raw) != size:
        raise ValidationError(
            f"packed relation must hold {n}x{n} {code} entries ({size} bytes), "
            f"got {len(raw)} bytes"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(n, n)


def _canonical_b64decode(text: str) -> bytes:
    """The bytes of `text`, which must be canonical base64 (RFC 4648,
    Section 3.5): the one encoding that `base64.b64encode` gives them.

    After `b64decode(validate=True)` has accepted the alphabet and the
    padding, two O(1) checks decide it: the length is a multiple of 4
    (Python 3.10 checks `validate` by a pattern that lets a stray "=" at
    a 4-character boundary through), and the bits of the last data
    character that carry no data, 2 before "=" and 4 before "==", are 0.
    """
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValidationError(f"packed relation is not base64: {exc}") from None
    if len(text) % 4:
        raise ValidationError(
            f"packed relation is not canonical base64: its length {len(text)} "
            "is not a multiple of 4")
    pads = 2 if text.endswith("==") else 1 if text.endswith("=") else 0
    if pads and _B64_ALPHABET.index(text[-1 - pads]) & (0b1111 if pads == 2 else 0b11):
        raise ValidationError(
            f"packed relation is not canonical base64: the unused low bits of "
            f"{text[-1 - pads]!r} before the padding are not 0")
    return raw


def to_jsonable(kind: str, obj):
    if kind == "scheme":
        return {"n": obj.n, "d": obj.d, "relation": _pack_relation(obj.relation)}
    if kind == "cayley":
        return {"order": obj.order, "cayley": obj.table.tolist()}
    if kind == "matrix":
        return encode_matrix(obj)
    if kind == "tensor":
        entries = np.asarray(obj.p if isinstance(obj, IntersectionTensor)
                             else obj.q if isinstance(obj, KreinTensor) else obj)
        d = entries.shape[0] - 1
        if np.iscomplexobj(entries):
            raise ValidationError("tensor entries must be real; the tensor kind has no complex form")
        if entries.dtype.kind in "iu":
            return {"d": d, "entries": entries.tolist()}
        return {"d": d, "entries": entries.astype(np.float64).tolist()}
    if kind == "fusion-system":
        out = {"labels": list(obj.labels),
               "N": obj.N.tolist()}
        if obj.F:
            out["F"] = {",".join(map(str, key)): encode_matrix(mat)
                        for key, mat in obj.F.items()}
        if obj.R:
            out["R"] = {",".join(map(str, key)): _encode_complex(val)
                        for key, val in obj.R.items()}
        if obj.twist is not None:
            out["twist"] = [_encode_complex(t) for t in obj.twist]
        return out
    if kind == "distribution":
        return [float(v) for v in np.asarray(obj).ravel()]
    raise ValidationError(f"unknown kind {kind!r}; kinds: {KINDS}")


def from_jsonable(kind: str, data, validate: bool = True):
    if kind == "scheme":
        if not isinstance(data, dict) or not {"n", "d", "relation"} <= set(data):
            raise ValidationError('scheme JSON must have keys "n", "d", "relation"')
        n, relation = require_integer(data["n"], '"n"'), data["relation"]
        if isinstance(relation, dict):
            relation = _unpack_relation(relation, n)
        scheme = AssociationScheme(n=n, d=require_integer(data["d"], '"d"'), relation=relation)
        if validate:
            require_axioms(scheme)
        return scheme
    if kind == "cayley":
        if not isinstance(data, dict) or not {"order", "cayley"} <= set(data):
            raise ValidationError('cayley JSON must have keys "order", "cayley"')
        group = FiniteGroup(data["cayley"])
        if require_integer(data["order"], '"order"') != group.order:
            raise ValidationError("declared order does not match the table size")
        return group
    if kind == "matrix":
        return decode_matrix(data)
    if kind == "tensor":
        if not isinstance(data, dict) or not {"d", "entries"} <= set(data):
            raise ValidationError('tensor JSON must have keys "d", "entries"')
        d = require_integer(data["d"], '"d"')
        return numeric_array(data["entries"], "tensor", kinds="if", ndim=3, size=d + 1)
    if kind == "fusion-system":
        if not isinstance(data, dict) or not {"labels", "N"} <= set(data):
            raise ValidationError('fusion-system JSON must have keys "labels", "N"')
        for name in ("labels", "twist"):
            if name in data and not isinstance(data[name], list):
                raise ValidationError(f'"{name}" must be a list')
        f_data = _decode_keyed(data["F"], "F", "a,b,c,e", decode_matrix) if "F" in data else None
        r_data = _decode_keyed(data["R"], "R", "a,b,c", _decode_complex) if "R" in data else None
        twist = [_decode_complex(t) for t in data["twist"]] if "twist" in data else None
        return FusionSystem(data["labels"], data["N"], f_data, r_data, twist)
    if kind == "distribution":
        if not isinstance(data, list) or not data:
            raise ValidationError("distribution must be a non-empty JSON array")
        if validate:
            return require_distribution(data, "distribution")
        return numeric_array(data, "distribution", kinds="iuf", ndim=1).astype(np.float64)
    raise ValidationError(f"unknown kind {kind!r}; kinds: {KINDS}")


def decomposition_to_jsonable(dec: BoseMesnerDecomposition) -> dict:
    """One-way export of spectral data (m, P, Q); E_j follows from the
    scheme and Q as E_j[x][y] = Q[relation[x][y]][j] / n."""
    return {
        "n": dec.n,
        "d": dec.d,
        "multiplicities": list(dec.multiplicities),
        "eigenmatrix_P": encode_matrix(dec.eigenmatrix_P),
        "eigenmatrix_Q": encode_matrix(dec.eigenmatrix_Q),
    }


def save(path, kind: str, obj) -> None:
    Path(path).write_text(json.dumps(to_jsonable(kind, obj)) + "\n")


def load(path, kind: str, validate: bool = True):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    return loads(text, kind, validate=validate)


def loads(text: str, kind: str, validate: bool = True):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return from_jsonable(kind, data, validate=validate)
