"""Arithmetic over the small finite fields GF(q), q in {2, 3, 4, 5, 7, 8, 9}.

Field elements are integers 0..q-1.  For prime q the integer IS the
residue; for prime powers it encodes the coefficient vector of the
polynomial basis in base p (so GF(4) element 3 = x + 1).  A field is its
two q x q int64 tables, `add_table` (digit-wise sums mod p) and
`mul_table` (polynomial products reduced by the defining relation), so
all arithmetic stays exact integer table lookups.

A private module: `build_grassmann`, which applies the integer rule to
q, v and d, is its only reader.  `enumerate_subspaces` lists every
d-dimensional subspace of GF(q)^v as one array of RREF bases in the
canonical order, and `subspace_points` lists the projective points of
all of them at once through the tables.
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
    """GF(q) as read-only add/mul tables; instances are cached per order."""

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
        self.p = p
        weights = p ** np.arange(k)
        digits = np.arange(q)[:, None] // weights % p          # digits[a, i] = coefficient of x^i
        self.add_table = (digits[:, None, :] + digits[None, :, :]) % p @ weights
        # schoolbook product of the coefficient vectors, then the degrees
        # 2k-2 .. k reduced by x^k = -(c_0 + c_1 x + ... + c_{k-1} x^{k-1})
        prod = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            prod[:, :, i:i + k] += digits[:, None, i, None] * digits[None, :, :]
        for deg in range(2 * k - 2, k - 1, -1):
            for i, ci in enumerate(poly):
                prod[:, :, deg - k + i] -= prod[:, :, deg] * ci
        self.mul_table = prod[:, :, :k] % p @ weights
        self.add_table.setflags(write=False)
        self.mul_table.setflags(write=False)


def subspace_points(q: int, bases: np.ndarray) -> np.ndarray:
    """The projective points of each subspace, from its RREF basis.

    `bases` is the (n, d, v) int64 array of `enumerate_subspaces`: n
    subspaces of GF(q)^v as d x v RREF bases.  Row s of the (n, [d,1]_q)
    result lists the points of subspace s.  A point is a nonzero vector
    scaled so that its first nonzero coordinate is 1, encoded as the
    base-q integer of its coordinates.

    For an RREF basis B, the first nonzero coordinate of c B is c_r, at the
    pivot of the first row r with c_r != 0.  The points of the span are
    therefore exactly the c B whose first nonzero coefficient is 1, and
    there are (q^d - 1)/(q - 1) of them.
    """
    field = GF(q)
    n, d, v = bases.shape
    coeffs = np.array([(0,) * r + (1,) + rest for r in range(d)
                       for rest in itertools.product(range(q), repeat=d - r - 1)],
                      dtype=np.int64)
    # the tables read flat: mul_table[a, b] is mul[a * q + b]
    mul, add = field.mul_table.ravel(), field.add_table.ravel()
    vectors = mul[coeffs[:, 0, None] * q + bases[:, None, 0, :]]
    for r in range(1, d):
        vectors = add[vectors * q + mul[coeffs[:, r, None] * q + bases[:, None, r, :]]]
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


def enumerate_subspaces(q: int, v: int, d: int) -> np.ndarray:
    """All d-dimensional subspaces of GF(q)^v as the (n, d, v) int64 array
    of their canonical RREF bases.

    Deterministic order: pivot columns lexicographically, then free entries
    counted in base q, row-major (the last free entry runs fastest).  A
    pivot set with f free entries is a block of q^f bases: the i-th basis
    of the block holds 1 at the pivots and, at the free position t places
    from the last, the base-q digit i // q^t % q.  Every entry is read
    that way from one row of ones and one row of place values per pivot
    set; off the free positions the place value is q^f, so the digit is 0.
    """
    GF(q)  # refuses an unsupported order
    ones, places, sizes = [], [], []
    for pivots in itertools.combinations(range(v), d):
        # free positions: to the right of each row's pivot, excluding later pivot columns
        free = [r * v + c for r in range(d) for c in range(pivots[r] + 1, v) if c not in pivots]
        sizes.append(q ** len(free))
        one, place = [0] * (d * v), [sizes[-1]] * (d * v)
        for r, c in enumerate(pivots):
            one[r * v + c] = 1
        for t, pos in enumerate(reversed(free)):
            place[pos] = q ** t
        ones.append(one)
        places.append(place)
    block = np.repeat(np.arange(len(sizes)), sizes)
    index = np.arange(len(block)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    bases = (np.array(ones, dtype=np.int64)[block]
             + index[:, None] // np.array(places, dtype=np.int64)[block] % q)
    assert len(bases) == gaussian_binomial(v, d, q)
    return bases.reshape(len(bases), d, v)
