"""Association schemes: constructors and axiom verification.

An association scheme on a vertex set X partitions X x X into relations
R_0..R_d whose 0/1 matrices A_j satisfy

    (1) A_0 = I,
    (2) sum_j A_j = J (the 1's partition X x X),
    (3) each A_j^T is again some A_{j'},
    (4) A_i A_j lies in span{A_0..A_d},

and the scheme is commutative when additionally A_i A_j = A_j A_i.

The canonical representation here is the n x n `relation` matrix of class
indices (relation[x][y] = j iff (x, y) in R_j), held read-only in the
narrowest little-endian u1/u2/u4 that holds d (`_packed_dtype`); its
bytes are the payload of the scheme's file and of its store key.
Adjacency matrices are derived 0/1 views.  All axiom checks are exact.
Axiom 4 packs blocks of g classes into base-(n+1) digits, W = sum_t
(n+1)^t A_{j0+t}, with g the largest such that (n+1)^g <= 2^53, and
multiplies A_i W as float64 through BLAS: each count (A_i A_j)[x, y] <= n
is one digit, and every partial sum is an integer below 2^53, so each
product entry is computed exactly in any summation order.

Few classes need multiplying, because a few elements generate the
Bose-Mesner algebra S = span{A_0..A_d} (one adjacency matrix for a
distance-regular scheme, a generating set for a group scheme).  The
argument is Light's associativity test in `groups` moved to algebras:
the M in S with M S in S include I and are closed under the product, so
once the verified classes A_1..A_i generate S, every product lies in S.
Generation is certified without arithmetic.  A word in A_1..A_i applied
to A_0 = I has nonnegative coordinates, so the support of A_t v is the
union of the supports of A_t A_j over j in the support of v; a word is
kept when its support adds a class that no kept word covers, so the
kept words are triangular, hence independent, and d + 1 of them span S.
When the words never get there, A_1 .. A_{d-1} are all multiplied:
A_0 W = W, and A_d = J - sum_{i<d} A_i settles the last row from the
column counts.  Either way the intersection numbers p_ij^k, through
A_i A_j = sum_k p_ij^k A_k, are counted at one representative pair per
class, and the scheme is commutative exactly when p_ij^k = p_ji^k
(Bannai & Ito 1984, Section II.2).

Every report is a function of (n, d, relation) alone, so reports are
kept per content.  When `verify_axioms` meets a scheme it has not
checked, it looks the scheme's content up in a process-wide store keyed
by n, d and the relation matrix's bytes; a scheme with the content of an
earlier one gets that report without any check running again.  Keys
match by byte equality, never by a hash alone.

The Bose-Mesner algebra, and with it the spectrum (m, P, Q), the Krein
parameters and the hypergroup, is a function of p alone, whatever the
vertex labelling (Bannai & Ito 1984, Section II.3).  So a passed report
holds an algebra record (`_Algebra`), and the store interns the records
of the reports it holds by the bytes of p, again matched by byte
equality: every stored report with equal p, a relabelled copy's
included, holds the same record and the same read-only p array.

What p determines is computed once per record, through
`_Algebra.derive`: `intersection_numbers` keeps the `IntersectionTensor`
there, `BoseMesnerDecomposition` (m, P, Q), `krein_parameters` the
`KreinTensor` and `hypergroup_from` the `Hypergroup`, each certified
before it is kept, its arrays read-only.
Every call, on any scheme whose report holds the record, gets the kept
object itself, so equal content gets the same object.  A refusal is
never kept; it is raised again on every call.  The store is a
least-recently-used map bounded by `_REPORT_STORE_BYTES` of key bytes
and record charges.  A record's charge is fixed when it is made: p, and
for a commutative p everything `derive` can keep besides.  A record the
store does not hold, because it left or never fitted, keeps serving the
reports that hold it, its values uncounted.

The table-driven builders form the relation matrix without a loop over
pairs and at its packed width: Johnson and Grassmann schemes from one
float32 product M M^T of a 0/1 incidence matrix, whose counts are cast to
the narrowest unsigned type that holds them, group and conjugacy schemes
from one gather through the Cayley table.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import galois
from .errors import (
    CertificationError,
    ValidationError,
    numeric_array,
    require_index,
    require_integer,
    require_within_cap,
)
from .groups import DEFAULT_VERTEX_CAP, FiniteGroup

# The orbital pass of `build_orbit_scheme` holds about 6k + 1 int64 words
# per pair for k generators (pair labels, edge lists and their gathers);
# it may use as much as one relation matrix at DEFAULT_VERTEX_CAP (200 MB).
_ORBIT_PASS_WORDS = DEFAULT_VERTEX_CAP ** 2

# Bytes of relation keys and algebra record charges that the report
# store holds.  A process running this package occupies about 45 MB
# resident (numpy included), so a full store adds under a tenth of that,
# and 4 MB still holds a few dozen mid-size schemes: the u1 relation
# matrix of J_4(4,2) (n = 357) is 127 KB, and the record of Z_32 (p, P,
# Q, the Krein tensor and the convolution) is charged 800 KB.
_REPORT_STORE_BYTES = 4 * 2 ** 20


@dataclass(frozen=True, eq=False)
class AssociationScheme:
    """An association scheme stored as its relation matrix.

    Attributes
    ----------
    n : int
        Number of vertices.
    d : int
        Number of non-identity classes (class indices run 0..d).
    relation : np.ndarray
        n x n C-contiguous matrix, relation[x][y] = class of the pair (x, y),
        held as `_packed_dtype(d)`; unsigned, so arithmetic must cast first.

    n and d must be integers: bools, floats and strings are refused
    before any other check, and NumPy integers are stored as Python ints,
    so every accepted scheme can be written to its file and read back.
    The relation matrix is range-checked before it is copied at that
    width, so no entry wraps and the scheme never shares memory with the
    caller.  The first `verify_axioms` call keeps its report (and with it
    the intersection tensor) on the scheme.

    Two schemes are equal when n, d and the relation matrix agree; the
    kept report plays no part.  The read-only relation matrix makes the
    hash stable.
    """

    n: int
    d: int
    relation: np.ndarray
    _axioms: AxiomReport | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("n", "d"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.n < 1:
            raise ValidationError(f"a scheme needs at least one vertex, got n={self.n}")
        if self.d > self.n * (self.n - 1):
            # class 0 is the diagonal, so at most n(n-1) other classes are non-empty
            raise ValidationError(
                f"{self.n} vertices leave room for at most {self.n * (self.n - 1)} "
                f"non-identity classes, got d={self.d}"
            )
        rel = numeric_array(self.relation, "relation matrix", ndim=2, size=self.n)
        if rel.min() < 0 or rel.max() > self.d:
            raise ValidationError(
                f"class indices must lie in 0..{self.d}, found {rel.min()}..{rel.max()}"
            )
        rel = np.array(rel, dtype=_packed_dtype(self.d), order="C")
        rel.setflags(write=False)
        object.__setattr__(self, "relation", rel)

    def __eq__(self, other):
        if not isinstance(other, AssociationScheme):
            return NotImplemented
        return ((self.n, self.d) == (other.n, other.d)
                and np.array_equal(self.relation, other.relation))

    def __hash__(self):
        return hash((self.n, self.d, self.relation.tobytes()))

    def adjacency(self, j: int) -> np.ndarray:
        """The 0/1 adjacency matrix A_j (a fresh integer array)."""
        return (self.relation == require_index(j, self.d + 1, "class index")).astype(np.int64)

    def valencies(self) -> np.ndarray:
        """Row-constant class sizes k_j (validated schemes only)."""
        return np.bincount(self.relation[0], minlength=self.d + 1)


@dataclass(frozen=True)
class AxiomReport:
    """Result of verify_axioms: violations carry (axiom id, witness indices).

    `passed` is read from the violations: a report passes when it has
    none.  `commutative` is only meaningful when `passed` is True.  A
    passed report holds the algebra record of its p in `_algebra`.
    """

    violations: tuple[tuple[int, tuple[int, ...]], ...]
    commutative: bool
    _algebra: _Algebra | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def p(self) -> np.ndarray | None:
        """The certified intersection tensor, p[i, j, k] = p_ij^k
        (read-only int64), or None when the check fails."""
        return None if self._algebra is None else self._algebra.p


class _Algebra:
    """The Bose-Mesner algebra of one certified p, and what p determines.

    `p` is the read-only int64 tensor.  `intersection` (the
    `IntersectionTensor` that wraps p), `spectrum` (multiplicities, P,
    Q), `krein` (a `KreinTensor`) and `hypergroup` (a `Hypergroup`) are
    None until `derive` first computes them; each is set once.  `nbytes`
    is the charge the store counts, fixed here: p, and for a commutative
    p also what `derive` can keep, q and the convolution (float64, each
    the size of p) and P and Q (complex128, (d+1)^2 each).  `holders`
    counts the store's entries that hold the record.

    Records are equal when their p have equal bytes, compared in full;
    the hash reads only the last slice p[d], so it costs (d+1)^2 words
    and forms no copy of p.
    """

    __slots__ = ("p", "intersection", "spectrum", "krein", "hypergroup", "nbytes", "holders",
                 "_hash")

    def __init__(self, p: np.ndarray, commutative: bool):
        self.p = p
        self.intersection = self.spectrum = self.krein = self.hypergroup = None
        size = len(p)
        self.nbytes = p.nbytes + (2 * 8 * size ** 3 + 2 * 16 * size ** 2 if commutative else 0)
        self.holders = 0
        self._hash = hash(p[-1].tobytes())

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, _Algebra) and np.array_equal(self.p, other.p)

    def derive(self, name: str, compute):
        """The kept value `name`, else the result of `compute()`, kept
        unless a caller kept one first; every caller gets the kept object.
        What `compute` raises propagates, and nothing is kept."""
        if getattr(self, name) is None:
            value = compute()
            with _REPORTS._lock:
                if getattr(self, name) is None:
                    setattr(self, name, value)
        return getattr(self, name)


class _ReportStore:
    """Least-recently-used map from relation content to AxiomReport, and
    the algebra records of the reports it holds, interned by p.

    An entry costs its key bytes.  A record costs its charge `nbytes`,
    fixed when it is made and counted once however many entries hold
    it; it leaves the store with the last entry that holds it.  Entries
    and records together never exceed `_REPORT_STORE_BYTES`: an entry
    whose key and new record would not fit alone is not stored, and
    inserting evicts from the least recently used end.  `clear` drops
    every entry and record.  One lock guards every lookup, insert,
    eviction and record update, so concurrent callers see a consistent
    map and each record value is set once.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[AxiomReport, int]] = OrderedDict()
        self._algebras: dict[_Algebra, _Algebra] = {}
        self._bytes = 0

    def get(self, key: tuple) -> AxiomReport | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, report: AxiomReport) -> AxiomReport:
        """Store `report`, fresh from `_check_axioms`, under `key`; returns
        the stored report, which is an earlier one when another caller
        stored the same key first.  A record with the bytes of the
        report's p already held replaces the report's own record."""
        size = len(key[2])
        record = report._algebra
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
            shared = None if record is None else self._algebras.get(record)
            if shared is None and record is not None:
                if size + record.nbytes > _REPORT_STORE_BYTES:
                    return report
                self._algebras[record] = shared = record
                self._bytes += record.nbytes
            if shared is not None:
                object.__setattr__(report, "_algebra", shared)
                shared.holders += 1
            self._entries[key] = (report, size)
            self._bytes += size
            self._evict()
            return report

    def _evict(self) -> None:
        while self._bytes > _REPORT_STORE_BYTES and self._entries:
            _, (report, size) = self._entries.popitem(last=False)
            self._bytes -= size
            record = report._algebra
            if record is not None:
                record.holders -= 1
                if not record.holders:
                    del self._algebras[record]
                    self._bytes -= record.nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._algebras.clear()
            self._bytes = 0


_REPORTS = _ReportStore()


def _packed_dtype(d: int) -> np.dtype:
    """The narrowest of little-endian u1/u2/u4 that holds the classes 0..d."""
    return np.dtype("<u1" if d <= 0xFF else "<u2" if d <= 0xFFFF else "<u4")


def _content_key(s: AssociationScheme) -> tuple | None:
    """(n, d, the relation matrix's bytes, as scheme files carry them), or
    None when those bytes alone exceed the store."""
    if s.relation.nbytes > _REPORT_STORE_BYTES:
        return None
    return s.n, s.d, s.relation.tobytes()


def verify_axioms(s: AssociationScheme) -> AxiomReport:
    """Check the four scheme axioms exactly; report rather than raise.

    Violation witnesses: axiom 1 -> (x, y), axiom 2 -> (missing class,),
    axiom 3 -> (x, y, x', y') with relation[x][y] = relation[x'][y'] but
    transposed classes differing, axiom 4 -> (i, j, x, y, x', y') where the
    product count differs between two pairs in one class.

    The report is kept on the scheme, whose relation matrix is read-only,
    so later calls on the same scheme return it without checking again.
    A scheme not yet checked first looks its content up in the report
    store, so a scheme with the content of one checked earlier gets that
    report, passed or failed, and a passed report holds the algebra
    record of its p; the module docstring states how reports and records
    are kept and shared.  A relation matrix whose key, with the charge
    of its new algebra record, exceeds the store's `_REPORT_STORE_BYTES`
    (4 MB) is checked every time.
    """
    if s._axioms is None:
        key = _content_key(s)
        report = None if key is None else _REPORTS.get(key)
        if report is None:
            report = _check_axioms(s)
            if key is not None:
                report = _REPORTS.put(key, report)
        object.__setattr__(s, "_axioms", report)
    return s._axioms


def require_axioms(s: AssociationScheme) -> AxiomReport:
    """The report of `verify_axioms`; raises ValidationError if an axiom fails."""
    report = verify_axioms(s)
    if not report.passed:
        axiom, witness = report.violations[0]
        raise ValidationError(
            f"relation matrix violates scheme axiom ({axiom}); witness {witness}"
        )
    return report


def _check_axioms(s: AssociationScheme) -> AxiomReport:
    rel = s.relation.astype(np.intp)  # gathers, and codes up to (d+1)^3
    n, d = s.n, s.d
    violations: list[tuple[int, tuple[int, ...]]] = []

    diag = np.diagonal(rel)
    bad = np.nonzero(diag != 0)[0]
    if bad.size:
        violations.append((1, (int(bad[0]), int(bad[0]))))
    off_zero = (rel == 0) & ~np.eye(n, dtype=bool)
    if off_zero.any():
        x, y = np.argwhere(off_zero)[0]
        violations.append((1, (int(x), int(y))))

    # One census: the classes present (axiom 2) and the first pair of each
    # class in row-major order, its representative (axioms 3 and 4).  Every
    # class of a scheme meets row 0, and there its first pair is the first
    # in row-major order; the whole matrix is searched only when a class
    # is absent from row 0.
    present, first = np.unique(rel[0], return_index=True)
    if present.size <= d:
        first = np.full(d + 1, n * n)
        np.minimum.at(first, rel.ravel(), np.arange(n * n))
    missing = first == n * n
    violations.extend((2, (int(j),)) for j in np.flatnonzero(missing))
    # a missing class gets (0, 0), unread
    reps = np.column_stack(np.divmod(np.where(missing, 0, first), n))

    # axiom 3: the transpose of class j must be exactly one class, the one
    # of its representative's transpose.  A failing class is witnessed by
    # its first failing pair.
    back = rel[reps[:, 1], reps[:, 0]]
    flipped = np.flatnonzero(rel.T != back[rel])
    classes, at = np.unique(rel.ravel()[flipped], return_index=True)
    for j, (x, y) in zip(classes, np.column_stack(np.divmod(flipped[at], n))):
        violations.append((3, (*map(int, reps[j]), int(x), int(y))))

    if not violations:
        p, witness = _packed_product_pass(rel, d, reps)
        if witness is not None:
            violations.append((4, witness))
    if violations:
        return AxiomReport(violations=tuple(violations), commutative=False)
    commutative = bool(np.array_equal(p, p.swapaxes(0, 1)))
    report = AxiomReport(violations=(), commutative=commutative)
    object.__setattr__(report, "_algebra", _Algebra(p, commutative))
    return report


def _block_size(n: int) -> int:
    """Largest g with (n+1)^g <= 2^53: the classes packed into one product."""
    g = 1
    while (n + 1) ** (g + 1) <= 2 ** 53:
        g += 1
    return g


def _packed_product_pass(rel: np.ndarray, d: int, reps: np.ndarray):
    """Axiom 4 and p_ij^k from products A_i W of packed class blocks.

    Called once axioms 1-3 hold.  Class by class, i = 1, 2, ...,
    `_class_products` checks that every A_i A_j is constant on each class.
    After class i passes, `_WordSupports` asks whether A_1..A_i generate
    S = span{A_0..A_d}.  The matrices M in S with M S in S contain I and
    are closed under the product (as in Light's test in `groups`), so
    they contain every word in A_1..A_i; when the words span S, S is
    closed under the product and axiom 4 holds on every pair.  The words
    are followed by their supports alone: their coordinates are sums of
    products of the nonnegative p_tj^k, so nothing cancels, and d + 1
    words that each add a class no earlier word covers are triangular,
    hence independent.

    When the words never span S, A_1 .. A_{d-1} are all multiplied.
    A_0 W = W.  Row d follows from A_d = J - sum_{i<d} A_i: once rows
    1..d-1 hold, each class i has a constant row count
    sum_j (A_i A_j)[x, x], so by axiom 3 each class j has a constant
    column count c_j, and A_d A_j = c_j J - sum_{i<d} A_i A_j is
    class-constant.

    Returns (p, None) on success, with p counted at the representatives
    by `_intersection_at`, else (None, (i, j, x, y, x', y')): the first
    product A_i A_j, in (i, j) order, that is not constant on some class
    k, with (x, y) = reps[k] and (x', y') the first pair of class k, in
    row-major order, whose count differs.  Generation is certified only
    for schemes that satisfy axiom 4, so a failing scheme reaches its
    first failing (i, j) and gets the witness of the full pass.

    With d + 1 > n no p is allocated, because a witness must turn up:
    were rows 1..d-1 class-constant, every class would have a constant
    row count k_i >= 1 (by the argument above), and the k_i sum to n.
    """
    words = _WordSupports(d)
    for i in range(1, d):
        witness, columns = _class_products(rel, i, d, reps)
        if witness is not None:
            return None, witness
        if words.extend(columns):
            break
    p = _intersection_at(rel, d, reps)
    p.setflags(write=False)
    return p, None


def _class_products(rel: np.ndarray, i: int, d: int, reps: np.ndarray):
    """Check that A_i A_j is class-constant for every j, g classes a product.

    The classes are split into blocks of g = `_block_size(n)` consecutive
    classes j0.., each packed as W = sum_t (n+1)^t A_{j0+t}.  Every count
    (A_i A_j)[x, y] is at most n, so it is the digit t of (A_i W)[x, y] in
    base n+1, and every partial sum of the float64 product is an integer
    below (n+1)^g <= 2^53: the product is exact in any summation order.
    One compare of A_i W with its value at the class representatives,
    gathered through `rel`, checks the whole block on every pair; the
    digits at reps[k] are p_ij^k.

    Returns (witness, None) for the first j that fails, else (None,
    columns), where columns[j] is the bitmask of the classes k with
    p_ij^k > 0.
    """
    n = rel.shape[0]
    g = _block_size(n)
    powers = (n + 1) ** np.arange(g, dtype=np.int64)
    rx, ry = reps.T
    a_i = (rel == i).astype(np.float64)
    columns: list[int] = []
    for j0 in range(0, d + 1, g):
        weight = np.zeros(d + 1)
        weight[j0:j0 + g] = powers[:d + 1 - j0]
        prod = a_i @ weight[rel]
        codes = prod[rx, ry]
        if (prod != codes[rel]).any():
            # the first class j of the block whose digit is not class-constant
            counts = prod.astype(np.int64)
            for t, power in enumerate(powers):
                digit = counts // power % (n + 1)
                bad = digit != digit[rx, ry][rel]
                if bad.any():
                    k = int(rel[bad].min())
                    x2, y2 = np.argwhere(bad & (rel == k))[0]
                    return (i, j0 + t, *map(int, reps[k]), int(x2), int(y2)), None
        digits = codes.astype(np.int64) // powers[:d + 1 - j0, None] % (n + 1)
        packed = np.packbits(digits > 0, axis=1, bitorder="little")
        columns.extend(int.from_bytes(row, "little") for row in packed)
    return None, columns


class _WordSupports:
    """Supports of words in the verified classes, applied to A_0 = I.

    A support is a bitmask of classes.  `extend` takes the next verified
    class t as its column supports, columns[j] = {k : p_tj^k > 0}, and
    carries every kept word through A_t, and every newly kept word through
    all verified classes, so each kept word meets each class once over the
    whole pass.  It returns True once d + 1 words are kept, i.e. the
    verified classes generate the algebra.  Once the kept words cover
    every class with fewer than d + 1 of them, no word can be kept again,
    and later classes are not taken.
    """

    def __init__(self, d: int):
        self.size = d + 1
        self.full = (1 << self.size) - 1
        self.kept = [1]         # I, whose support is class 0
        self.covered = 1
        self.classes: list[list[int]] = []

    def extend(self, columns: list[int]) -> bool:
        if self.covered == self.full:
            return False
        self.classes.append(columns)
        todo = [(word, columns) for word in self.kept]
        while todo and self.covered != self.full:
            word, cols = todo.pop()
            image = 0
            while word:
                low = word & -word
                image |= cols[low.bit_length() - 1]
                word ^= low
            if image & ~self.covered:
                self.kept.append(image)
                self.covered |= image
                todo.extend((image, c) for c in self.classes)
        return len(self.kept) == self.size


def _intersection_at(rel: np.ndarray, d: int, reps: np.ndarray) -> np.ndarray:
    """p_ij^k = #{z : rel[x_k, z] = i, rel[z, y_k] = j} at reps[k] = (x_k, y_k).

    One bincount of (d+1) n codes, O((d+1) n + (d+1)^3); valid once
    axiom 4 is established, when (A_i A_j)[x_k, y_k] is p_ij^k.
    """
    m = d + 1
    rx, ry = reps.T
    codes = rel[rx].T * m
    codes += rel[:, ry]
    codes *= m
    codes += np.arange(m)
    p = np.bincount(codes.ravel("K"), minlength=m ** 3).astype(np.int64, copy=False)
    return p.reshape(m, m, m)


def _class_order_with_identity_first(identity: int, count: int) -> np.ndarray:
    """Class index for each raw label: identity -> 0, others keep their order."""
    mapping = np.arange(count) + (np.arange(count) < identity)
    mapping[identity] = 0
    return mapping


def _quotient_classes(g: FiniteGroup, class_of, d: int) -> np.ndarray:
    """rel[y, z] = class_of[y * z^-1], gathered through the Cayley table
    from `class_of` held at the packed width of the classes 0..d."""
    return np.asarray(class_of, dtype=_packed_dtype(d))[g.table[:, np.array(g.inverse)]]


def build_group_scheme(g: FiniteGroup) -> AssociationScheme:
    """The scheme of left translations: (y, z) lies in the class of y * z^-1.

    One class per group element; class 0 is the identity, so d = |G| - 1
    and A_x A_y = A_{xy}, A_x^T = A_{x^-1}.
    """
    n = g.order
    rel = _quotient_classes(g, _class_order_with_identity_first(g.identity, n), n - 1)
    return AssociationScheme(n=n, d=n - 1, relation=rel)


def build_conjugacy_scheme(g: FiniteGroup) -> AssociationScheme:
    """Merge the group-scheme classes along conjugacy classes of g.

    The class matrices B_j = sum_{x in C_j} A_x span the center of the
    group algebra, so the result is always commutative.
    """
    classes = g.conjugacy_classes()
    class_of_elt = np.empty(g.order, dtype=np.int64)
    for idx, cl in enumerate(classes):
        class_of_elt[cl] = idx
    d = len(classes) - 1
    return AssociationScheme(n=g.order, d=d, relation=_quotient_classes(g, class_of_elt, d))


def _support_components(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Label each of `size` indices by the connected component of the
    support graph with edges (rows[k], cols[k]).

    Min-label propagation with pointer jumping.  Labels only decrease and
    only travel along edges, so each label is an index of its own
    component; at the fixed point the two ends of every edge agree and
    every label is a root, so a label names exactly one component.
    """
    labels = np.arange(size)
    while True:
        low = np.minimum(labels[rows], labels[cols])
        nxt = labels.copy()
        np.minimum.at(nxt, rows, low)
        np.minimum.at(nxt, cols, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def build_orbit_scheme(generators: list[list[int]], n: int) -> AssociationScheme:
    """Scheme of orbitals of a transitive permutation action on {0..n-1}.

    Classes are the orbits of the generated group acting diagonally on
    pairs; the diagonal orbit gets class 0.  Remaining classes are ordered
    by their lexicographically smallest pair.  At most DEFAULT_VERTEX_CAP
    points, and duplicate generators are dropped.  The action is refused
    before any n^2 allocation when (6k + 1) n^2 words, for k distinct
    generators, exceed `_ORBIT_PASS_WORDS`.

    The orbitals are the connected components of the graph on pairs
    x*n + y with an edge to g(x)*n + g(y) for every generator g.  Each
    component is labelled by its smallest node, which is the orbital's
    smallest pair, so ranking the labels gives the class order.  The
    diagonal carries the point orbits: (x, x) is labelled z*(n+1) for the
    smallest point z in the orbit of x.
    """
    if require_integer(n, "point count") < 1:
        raise ValidationError("point count must be positive")
    require_within_cap(n, DEFAULT_VERTEX_CAP, f"orbit scheme has {n} vertices")
    if not isinstance(generators, (list, tuple, np.ndarray)) or len(generators) == 0:
        raise ValidationError("need at least one generator")
    gens = numeric_array(generators, "generators")
    points = np.arange(n)
    # k x n, not square, so the shape is checked here and not by `numeric_array`
    if gens.ndim != 2 or gens.shape[1] != n:
        raise ValidationError(
            f"generators must be permutations of 0..{n - 1}, got shape {gens.shape}"
        )
    bad = np.flatnonzero((np.sort(gens, axis=1) != points).any(axis=1))
    if bad.size:
        raise ValidationError(f"{gens[bad[0]].tolist()} is not a permutation of 0..{n - 1}")
    gens = np.unique(gens, axis=0)
    k = len(gens)
    words = (6 * k + 1) * n * n
    require_within_cap(words, _ORBIT_PASS_WORDS, f"orbital pass over {n} points with {k} "
                       f"distinct generators needs {words} int64 words")

    images = (gens[:, :, None] * n + gens[:, None, :]).ravel()
    labels = _support_components(n * n, np.tile(np.arange(n * n), k), images)
    diagonal = labels[points * (n + 1)]
    if diagonal.any():
        partition = [np.flatnonzero(diagonal == z).tolist() for z in np.unique(diagonal)]
        raise ValidationError(f"action is not transitive; point orbits: {partition}")
    classes, rel = np.unique(labels, return_inverse=True)
    return AssociationScheme(n=n, d=classes.size - 1, relation=rel.reshape(n, n))


def build_johnson(v: int, k: int) -> AssociationScheme:
    """Johnson scheme J(v, k) on the k-subsets of a v-set.

    Subsets a, b get class k - |a n b|.  Requires k <= v - k (J(v, k) and
    J(v, v-k) are isomorphic, so nothing is lost) and at most
    DEFAULT_VERTEX_CAP vertices.  Vertices are the subsets in
    `itertools.combinations` order.

    With M the n x v 0/1 incidence matrix of subsets against points,
    |a n b| = (M M^T)[a, b].  The product runs in float32 and is exact:
    every partial sum is a count <= k, far below 2^24.  The counts are
    cast to the narrowest unsigned type that holds k, and k - |a n b| is
    formed at that width, the scheme's packed width.
    """
    v, k = require_integer(v, "v"), require_integer(k, "k")
    if k <= 0 or 2 * k > v:
        raise ValidationError(f"Johnson scheme needs 0 < k <= v/2, got v={v}, k={k}")
    n = comb(v, k)
    require_within_cap(n, DEFAULT_VERTEX_CAP, f"J({v},{k}) has {n} vertices")
    members = np.array(list(itertools.combinations(range(v), k)), dtype=np.intp)
    inc = np.zeros((n, v), dtype=np.float32)
    np.put_along_axis(inc, members, 1.0, axis=1)
    # two k-subsets share at most k points
    shared = (inc @ inc.T).astype(np.min_scalar_type(k))
    return AssociationScheme(n=n, d=k, relation=k - shared)


def build_grassmann(q: int, v: int, d: int) -> AssociationScheme:
    """Grassmann scheme J_q(v, d) on the d-dim subspaces of GF(q)^v.

    Subspaces a, b get class d - dim(a n b), so class 0 is the identity
    relation (pairs with full intersection are equal subspaces).  Vertices
    are the subspaces in the canonical RREF order of
    `galois.enumerate_subspaces` (pivot columns lexicographically, then
    free entries in base q), whose (n, d, v) array of bases
    `galois.subspace_points` reads whole.

    With M the 0/1 incidence matrix of subspaces against the projective
    points of GF(q)^v, (M M^T)[a, b] counts the points of a n b, which is
    [k,1]_q = (q^k - 1)/(q - 1) for k = dim(a n b) (Brouwer, Cohen &
    Neumaier 1989, Section 9.3).  The product runs in float32 and is exact:
    every partial sum is a count <= [d,1]_q, far below 2^24.  M has
    [v,1]_q <= n columns for 0 < d <= v/2, so it is never larger than the
    relation matrix.  The counts are cast to the narrowest unsigned type
    that holds [d,1]_q, and the classes are formed at the scheme's packed
    width by compares against the sizes [k,1]_q, k = 1..d.  (A table
    indexed by the counts would do the same, but NumPy casts every such
    index to intp, and at n = 357 that gather took six times as long as
    the compares.)  A count that is no [k,1]_q raises CertificationError
    naming the first such pair.  At most DEFAULT_VERTEX_CAP vertices,
    checked before any enumeration.
    """
    q, v, d = require_integer(q, "q"), require_integer(v, "v"), require_integer(d, "d")
    if q not in galois.SUPPORTED_ORDERS:
        raise ValidationError(
            f"unsupported field order {q}; supported: {galois.SUPPORTED_ORDERS}"
        )
    if d <= 0 or 2 * d > v:
        raise ValidationError(f"Grassmann scheme needs 0 < d <= v/2, got v={v}, d={d}")
    n = galois.gaussian_binomial(v, d, q)
    require_within_cap(n, DEFAULT_VERTEX_CAP, f"J_{q}({v},{d}) has {n} vertices")
    points = galois.subspace_points(q, galois.enumerate_subspaces(q, v, d))
    per_subspace = points.shape[1]
    _, cols = np.unique(points, return_inverse=True)
    inc = np.zeros((n, int(cols.max()) + 1), dtype=np.float32)
    inc[np.arange(n)[:, None], cols.reshape(n, per_subspace)] = 1.0
    # two subspaces share at most the [d,1]_q points of one
    counts = (inc @ inc.T).astype(np.min_scalar_type(per_subspace))
    # the class is d - k for the largest k with [k,1]_q <= count, and the
    # count must be that [k,1]_q
    rel = np.full((n, n), d, dtype=_packed_dtype(d))
    valid = counts == 0
    for k in range(1, d + 1):
        size = (q**k - 1) // (q - 1)
        rel -= counts >= size
        valid |= counts == size
    if not valid.all():
        a, b = np.argwhere(~valid)[0]
        raise CertificationError(
            f"J_{q}({v},{d}): subspaces {a} and {b} share {counts[a, b]} points, "
            f"which is no subspace size"
        )
    return AssociationScheme(n=n, d=d, relation=rel)
