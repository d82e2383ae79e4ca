"""Finite groups given by explicit Cayley tables.

Elements are integers ``0..order-1``; ``table[x, y]`` is the index of the
product x*y.  Built-in constructors cover the cyclic, symmetric, dihedral
and quaternion families; anything else can be supplied as a raw table.

Every table is checked in full.  Associativity is Light's test (Clifford &
Preston, The Algebraic Theory of Semigroups I, 1961, Section 1.2): the
elements a with (xa)z = x(az) for all x, z include the identity and are
closed under the product, as (x(ab))z = ((xa)b)z = (xa)(bz) = x(a(bz)) =
x((ab)z).  So testing a generating set, of at most log2(order) elements
for a group, covers every triple; each generator costs two gathers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ._store import kept
from .errors import ValidationError, numeric_array, require_integer, require_within_cap

# Built-in groups, Johnson, Grassmann and orbit schemes may not exceed
# this many elements or vertices (an int64 table of that order takes 200 MB).
DEFAULT_VERTEX_CAP = 5000
# Those 200 MB: what a returned trajectory or a fusion pass may hold.
DEFAULT_BYTE_CAP = 8 * DEFAULT_VERTEX_CAP ** 2


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group as a Cayley table.

    Attributes
    ----------
    table : np.ndarray
        Read-only int64 copy of the given integer table; ``table[x, y]`` = x*y.
    identity : int
        Index of the neutral element (derived).
    inverse : tuple of int
        ``inverse[x]`` = index of x**-1 (derived).

    The table is the only argument.  Groups compare and hash by it.
    """

    table: np.ndarray
    identity: int = field(init=False)
    inverse: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        c = np.array(numeric_array(self.table, "Cayley table", ndim=2), dtype=np.int64)
        c.setflags(write=False)
        object.__setattr__(self, "table", c)
        n = c.shape[0]
        elements = np.arange(n)
        for axis, what in ((1, "row"), (0, "column")):
            bad = np.flatnonzero((np.sort(c, axis=axis) != np.expand_dims(elements, 1 - axis))
                                 .any(axis=axis))
            if bad.size:
                raise ValidationError(
                    f"{what} {bad[0]} of the Cayley table is not a permutation"
                )

        neutral = np.flatnonzero((c == elements).all(axis=1) & (c.T == elements).all(axis=1))
        if neutral.size == 0:
            raise ValidationError("Cayley table has no identity element")
        identity = int(neutral[0])
        # in a Latin square row x meets the identity in exactly one column
        inverse = np.argmax(c == identity, axis=1)
        bad = np.flatnonzero(c[inverse, elements] != identity)
        if bad.size:
            raise ValidationError(f"element {bad[0]} has no inverse")

        for g in _generators(c, identity):
            left, right = c[c[:, g]], c[:, c[g]]
            if not np.array_equal(left, right):
                x, z = (int(v) for v in np.argwhere(left != right)[0])
                raise ValidationError(
                    f"associativity fails on triple ({x}, {g}, {z}): "
                    f"({x}*{g})*{z} = {left[x, z]} != {right[x, z]} = {x}*({g}*{z})"
                )

        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", tuple(inverse.tolist()))

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash(self.table.tobytes())

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def conjugacy_classes(self) -> list[list[int]]:
        """Conjugacy classes, identity class first, then by smallest member."""
        c = self.table
        # conj[g, x] = g x g^-1; each class is named by its smallest member
        smallest = c[c, np.array(self.inverse)[:, None]].min(axis=0)
        members = np.argsort(smallest, kind="stable")
        cuts = np.flatnonzero(np.diff(smallest[members])) + 1
        classes = [cl.tolist() for cl in np.split(members, cuts)]
        classes.sort(key=lambda cl: (cl != [self.identity], cl[0]))
        return classes


def _generators(c: np.ndarray, identity: int) -> list[int]:
    """A generating set: each generator is the first element not yet reached
    from the identity by right multiplication with the generators so far.
    The generators' columns are gathered once per generator, and each
    breadth-first layer reads its images from them.  A layer is marked in
    a boolean mask, whose nonzero indices are its sorted distinct new
    elements, as `np.unique` would give them; plain `np.unique` would also
    import `numpy.ma`, a once-per-process cost, on the first group a
    process builds."""
    reached = np.zeros(c.shape[0], dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        images = c[:, gens]
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = np.zeros_like(reached)
            step[images[frontier]] = True
            frontier = np.flatnonzero(step & ~reached)
            reached[frontier] = True
    return gens


@kept("cyclic")
def cyclic(n: int) -> FiniteGroup:
    """Z_n with addition mod n; element k is the residue k."""
    n = require_integer(n, "n", minimum=1)
    require_within_cap(n, DEFAULT_VERTEX_CAP, f"Z_{n} has order {n}")
    k = np.arange(n)
    return FiniteGroup((k[:, None] + k) % n)


@kept("symmetric")
def symmetric(n: int) -> FiniteGroup:
    """S_n on {0..n-1}; elements are permutations in lexicographic order."""
    n = require_integer(n, "n", minimum=1)
    # `composed` holds n! * n! words and `rank` n^n: 0.1 MB at n = 5, 4 MB at n = 6.
    require_within_cap(n, 5, f"S_{n} has degree {n}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    # A permutation's code is its base-n number sum_i p(i) n^(n-1-i).  With
    # (p*q)(i) = p(q(i)) (apply q first, then p), the code of p o q is
    # sum_j p(j) n^(n-1-q^-1(j)): one product of perms with the place
    # values each q gives its points.
    place = n ** np.arange(n - 1, -1, -1)
    composed = perms @ place[np.argsort(perms, axis=1)].T
    # the n^n-entry code -> index table ranks every composed code
    rank = np.empty(n ** n, dtype=np.intp)
    rank[perms @ place] = np.arange(len(perms))
    return FiniteGroup(rank[composed])


@kept("dihedral")
def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n: indices 0..n-1 are rotations r^i, n..2n-1 are s*r^i."""
    n = require_integer(n, "n", minimum=1)
    require_within_cap(2 * n, DEFAULT_VERTEX_CAP, f"D_{n} has order {2 * n}")
    ka, ia = np.divmod(np.arange(2 * n), n)
    kb, ib = ka[None, :], ia[None, :]
    ka, ia = ka[:, None], ia[:, None]
    table = np.where(kb == 0, ka * n + (ia + ib) % n, (ka ^ 1) * n + (ib - ia) % n)
    return FiniteGroup(table)


@kept("quaternion")
def quaternion() -> FiniteGroup:
    """Q_8 = {1, -1, i, -i, j, -j, k, -k} in that element order."""
    # index = 2*axis + negative, axis 0='1', 1='i', 2='j', 3='k'; the axes
    # multiply as XOR, and the sign flips for i^2, j^2, k^2 and for ji, kj, ik
    axis, negative = np.divmod(np.arange(8), 2)
    a, b = axis[:, None], axis[None, :]
    flip = ((a == b) | ((b - a) % 3 == 2)) & (a > 0) & (b > 0)
    return FiniteGroup(2 * (a ^ b) + (negative[:, None] ^ negative ^ flip))


_FAMILIES = {"z": cyclic, "s": symmetric, "d": dihedral}


def builtin(name: str) -> FiniteGroup:
    """Look up a named group: z<n>, s<n>, d<n>, q8."""
    key = name.strip().lower()
    if key == "q8":
        return quaternion()
    if key[:1] in _FAMILIES and key[1:].isdecimal():
        # every family's cap is at most DEFAULT_VERTEX_CAP, so a number with
        # more digits is refused before `int`, which stops at 4,300 digits
        digits = key[1:].lstrip("0") or "0"
        if len(digits) > len(str(DEFAULT_VERTEX_CAP)):
            raise ValidationError(f"group {key[0]}<n> with a {len(digits)}-digit n, "
                                  f"above the cap of {DEFAULT_VERTEX_CAP}")
        return _FAMILIES[key[0]](int(digits))
    raise ValidationError(f"unknown group name {name!r} (try z<n>, s<n>, d<n>, q8)")
