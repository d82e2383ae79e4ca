"""Arithmetic over the small finite fields GF(q), q in {2, 3, 4, 5, 7, 8, 9}.

Field elements are integers 0..q-1.  For prime q the integer IS the
residue; for prime powers it encodes the coefficient vector of the
polynomial basis in base p (so GF(4) element 3 = x + 1).  Multiplication
goes through log/antilog tables built from a fixed primitive element, so
all arithmetic stays exact integer table lookups.

`subspace_points` lists the projective points of many subspaces at once
through NumPy copies of the add/mul tables; it is what `build_grassmann`
uses.  `rref`, `rank` and `intersection_dim` work one basis at a time in
Python and remain as the reference those vectorised builds are tested
against.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ValidationError

# q -> (p, k, irreducible poly coefficients c_0..c_{k-1} with x^k = -(c_0 + c_1 x + ...))
_FIELD_SPECS = {
    2: (2, 1, ()),
    3: (3, 1, ()),
    5: (5, 1, ()),
    7: (7, 1, ()),
    4: (2, 2, (1, 1)),      # x^2 + x + 1
    8: (2, 3, (1, 1, 0)),   # x^3 + x + 1
    9: (3, 2, (1, 0)),      # x^2 + 1
}

SUPPORTED_ORDERS = tuple(sorted(_FIELD_SPECS))


class GF:
    """GF(q) with table-driven add/mul; instances are cached per order."""

    _cache: dict[int, "GF"] = {}

    def __new__(cls, q: int):
        if q in cls._cache:
            return cls._cache[q]
        if q not in _FIELD_SPECS:
            raise ValidationError(f"unsupported field order {q}; supported: {SUPPORTED_ORDERS}")
        self = super().__new__(cls)
        self._init(q)
        cls._cache[q] = self
        return self

    def _init(self, q: int):
        p, k, poly = _FIELD_SPECS[q]
        self.q = q
        self.p = p
        self.degree = k

        def digits(a):
            return tuple((a // p**i) % p for i in range(k))

        def undigits(vec):
            return sum(v * p**i for i, v in enumerate(vec))

        self._add = [[undigits(tuple((x + y) % p for x, y in zip(digits(a), digits(b))))
                      for b in range(q)] for a in range(q)]
        self._neg = [undigits(tuple((-x) % p for x in digits(a))) for a in range(q)]

        def poly_mul(a, b):
            # schoolbook product of the coefficient vectors, reduced by the
            # defining relation x^k = -(c_0 + c_1 x + ... + c_{k-1} x^{k-1})
            da, db = digits(a), digits(b)
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for deg in range(2 * k - 2, k - 1, -1):
                c = prod[deg]
                if c:
                    prod[deg] = 0
                    for i, ci in enumerate(poly):
                        prod[deg - k + i] = (prod[deg - k + i] - c * ci) % p
            return undigits(tuple(prod[:k]))

        # find a primitive element and fill log/antilog (for q = 2 the
        # multiplicative group is trivial and 1 generates it)
        for g in range(1 if q == 2 else 2, q):
            power, seen = 1, []
            for _ in range(q - 1):
                seen.append(power)
                power = poly_mul(power, g)
            if len(set(seen)) == q - 1:
                break
        else:  # pragma: no cover - the listed fields all have generators
            raise ValidationError(f"no primitive element found for GF({q})")

        self.antilog = seen                       # antilog[i] = g**i
        self.log = [0] * q                        # log[antilog[i]] = i
        for i, v in enumerate(seen):
            self.log[v] = i
        self._poly_mul = poly_mul
        # NumPy copies of the tables, for arithmetic on whole arrays of elements
        self.add_table = np.array(self._add, dtype=np.int64)
        self.mul_table = np.array([[self.mul(a, b) for b in range(q)] for a in range(q)],
                                  dtype=np.int64)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.antilog[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in a field")
        return self.antilog[(-self.log[a]) % (self.q - 1)]


def subspace_points(q: int, bases) -> np.ndarray:
    """The projective points of each subspace, from its RREF basis.

    `bases` holds n subspaces of GF(q)^v as d x v RREF bases (the output of
    `enumerate_subspaces`).  Row s of the (n, [d,1]_q) result lists the
    points of subspace s.  A point is a nonzero vector scaled so that its
    first nonzero coordinate is 1, encoded as the base-q integer of its
    coordinates.

    For an RREF basis B, the first nonzero coordinate of c B is c_r, at the
    pivot of the first row r with c_r != 0.  The points of the span are
    therefore exactly the c B whose first nonzero coefficient is 1, and
    there are (q^d - 1)/(q - 1) of them.
    """
    field = GF(q)
    bases = np.asarray(bases, dtype=np.int64)
    n, d, v = bases.shape
    coeffs = np.array([(0,) * r + (1,) + rest for r in range(d)
                       for rest in itertools.product(range(q), repeat=d - r - 1)],
                      dtype=np.int64)
    # terms[s, c, r, :] = coeffs[c, r] * bases[s, r, :]
    terms = field.mul_table[coeffs[None, :, :, None], bases[:, None, :, :]]
    vectors = terms[:, :, 0, :]
    for r in range(1, d):
        vectors = field.add_table[vectors, terms[:, :, r, :]]
    return vectors @ q ** np.arange(v - 1, -1, -1, dtype=np.int64)


def gaussian_binomial(v: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of GF(q)^v, as an exact integer."""
    if d < 0 or d > v:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (v - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def rref(field: GF, rows: list[list[int]]) -> list[list[int]]:
    """Reduced row echelon form over `field`; returns only the nonzero rows."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        scale = field.inv(m[pivot_row][col])
        m[pivot_row] = [field.mul(scale, x) for x in m[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and m[r][col] != 0:
                c = m[r][col]
                m[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == n_rows:
            break
    return [row for row in m[:pivot_row] if any(row)]


def rank(field: GF, rows: list[list[int]]) -> int:
    return len(rref(field, rows))


def enumerate_subspaces(q: int, v: int, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """All d-dimensional subspaces of GF(q)^v as canonical RREF bases.

    Deterministic order: pivot columns lexicographically, then free entries
    counted in base q, row-major.
    """
    field = GF(q)
    if d == 0:
        return [()]
    out = []
    for pivots in itertools.combinations(range(v), d):
        # free positions: to the right of each row's pivot, excluding later pivot columns
        free = [(r, c) for r in range(d) for c in range(pivots[r] + 1, v) if c not in pivots]
        for values in itertools.product(range(q), repeat=len(free)):
            mat = [[0] * v for _ in range(d)]
            for r, pc in enumerate(pivots):
                mat[r][pc] = 1
            for (r, c), val in zip(free, values):
                mat[r][c] = val
            out.append(tuple(tuple(row) for row in mat))
    assert len(out) == gaussian_binomial(v, d, q)
    return out


def intersection_dim(field: GF, basis_a, basis_b) -> int:
    """dim(A ∩ B) = dim A + dim B - rank of the stacked bases."""
    stacked = [list(row) for row in basis_a] + [list(row) for row in basis_b]
    return len(basis_a) + len(basis_b) - rank(field, stacked)
