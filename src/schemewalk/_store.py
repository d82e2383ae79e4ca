"""The process-wide store of certified objects.

The paper's objects are fixed finite structures, each a function of what
it is built from, so one least-recently-used map keeps them per key
(kind, parameters or shape, content bytes), matched by equality, never
by a hash alone: what the table-driven builders return, keyed by their
parameters, by the group's table (group and conjugacy schemes) or by n
and the distinct generators (orbit schemes); and axiom reports keyed by
n, d and the relation matrix's bytes, so a scheme with the content of an
earlier one gets its report, passed or failed, with no check run again.
Kept groups and fusion systems are frozen and hold read-only arrays, so
one object serves every equal request.  A kept scheme is handed out as a
new scheme over its read-only relation matrix: the report a check keeps
on it is the caller's, and reaches the store only as a report entry.  A
first build runs every certificate it runs without the store, and a
refusal is never kept.

The Bose-Mesner algebra, and with it the spectrum (m, P, Q), the Krein
parameters and the hypergroup, is a function of p alone, whatever the
vertex labelling (Bannai & Ito 1984, Section II.3).  So a passed report
holds an algebra record (`Algebra`), interned by the bytes of p: every
stored report with equal p, a relabelled copy's included, holds the same
record, and `intersection_numbers`, `BoseMesnerDecomposition`,
`krein_parameters` and `hypergroup_from` keep what they certify there.

The store holds at most `BUDGET_BYTES`.  An entry costs its key's content
bytes and the arrays its value holds; a record costs its charge, counted
once however many report entries hold it: p and, for a commutative p,
what `derive` can keep, unless that does not fit, when it is p alone and
the record keeps only the intersection tensor, which wraps p.  A record
the store does not hold, because it left or never fitted, is reached
only through callers' schemes and their reports, and goes with them.
"""

from __future__ import annotations

import copy as _copy
import functools
import inspect
import threading
from collections import OrderedDict
from collections.abc import Mapping

import numpy as np

# Under a tenth of the ~45 MB a process running this package occupies,
# and still a few dozen mid-size schemes: J_4(4,2) (n = 357) has a 127 KB
# relation matrix, and Z_32's record (p, P, Q, q, convolution) is 800 KB.
BUDGET_BYTES = 4 * 2 ** 20


class Algebra:
    """The Bose-Mesner algebra of one certified p, and what p determines.

    `p` is the read-only int64 tensor; `intersection`, `spectrum` (m, P,
    Q), `krein` and `hypergroup` are set once, by `derive`.  `nbytes` is
    the charge: p, and for a commutative p also q and the convolution (the
    size of p each) and P and Q (complex (d+1)^2 each), unless the store
    charges p alone.  `holders` counts the entries that hold the record.
    Records are equal when their p have equal bytes; the hash reads only
    p[d], so it forms no copy of p.
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
        return isinstance(other, Algebra) and np.array_equal(self.p, other.p)

    def derive(self, name: str, compute):
        """The kept value `name`, else the result of `compute()`, kept
        unless a caller kept one first or the charge covers p alone.
        What `compute` raises propagates, and nothing is kept."""
        if getattr(self, name) is None:
            value = compute()
            if name != "intersection" and self.nbytes == self.p.nbytes:
                return value
            with STORE._lock:
                if getattr(self, name) is None:
                    setattr(self, name, value)
        return getattr(self, name)


class Store:
    """Least-recently-used map from keys to kept objects, and the algebra
    records its entries hold, interned by p.  A value whose entry, with a
    new record charged at least p, would not fit alone is not kept, and
    inserting evicts from the least recently used end; a record leaves
    with the last entry that holds it.  One lock guards every access."""

    def __init__(self):
        self._lock = threading.Lock()
        # key -> (value, charge, the record the entry holds or None)
        self._entries: OrderedDict[tuple, tuple[object, int, Algebra | None]] = OrderedDict()
        self._algebras: dict[Algebra, Algebra] = {}
        self._bytes = 0

    def get(self, key: tuple):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, value, nbytes: int = 0, record: Algebra | None = None):
        """Keep `value` under `key`, charged the key's content bytes and
        `nbytes`; returns the kept value, an earlier one when another
        caller kept the key first.  `record` is the record the value (a
        report) holds in `_algebra`; one with the same p already held
        replaces it."""
        size = len(key[2]) + nbytes
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
            shared = None if record is None else self._algebras.get(record)
            fresh = record is not None and shared is None
            if size + (record.p.nbytes if fresh else 0) > BUDGET_BYTES:
                return value
            if fresh:
                if size + record.nbytes > BUDGET_BYTES:
                    record.nbytes = record.p.nbytes
                self._algebras[record] = shared = record
                self._bytes += record.nbytes
            if shared is not None:
                object.__setattr__(value, "_algebra", shared)
                shared.holders += 1
            self._entries[key] = (value, size, shared)
            self._bytes += size
            self._evict()
            return value

    def _evict(self) -> None:
        while self._bytes > BUDGET_BYTES and self._entries:
            _, (_, size, record) = self._entries.popitem(last=False)
            self._bytes -= size
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


STORE = Store()


def array_bytes(value) -> int:
    """Bytes of the arrays `value` holds, as attributes or in its mappings."""
    items = (v for a in vars(value).values()
             for v in (a.values() if isinstance(a, Mapping) else (a,)))
    return sum(v.nbytes for v in items if isinstance(v, np.ndarray))


def content_key(kind: str, params: tuple, array: np.ndarray, nbytes: int = 0) -> tuple | None:
    """(kind, params, the array's bytes), or None, with no copy made, when
    those bytes and `nbytes` more exceed the budget."""
    if array.nbytes + nbytes > BUDGET_BYTES:
        return None
    return kind, params, array.tobytes()


def kept(kind: str, key=None, copy: bool = False):
    """Decorate a builder: look its key up before building, and keep what
    it returns.  `key(kind, *args)` gives the key, or None for a result
    not to keep; by default it holds the arguments with their types, so a
    bool or a float never meets an equal int's entry.  Keyword arguments
    are bound to their positions first, and arguments that form no key
    (unhashable ones) go to the builder, which refuses them as it would
    without the store.  With `copy`, each caller gets a shallow copy of
    the kept value, so what a caller keeps on it (a scheme's report) stays
    off the kept one."""
    def wrap(build):
        signature = inspect.signature(build)

        @functools.wraps(build)
        def lookup(*args, **kwargs):
            try:
                if kwargs:
                    args, kwargs = signature.bind(*args, **kwargs).args, {}
                found = key(kind, *args) if key else (kind, tuple((type(a), a) for a in args), b"")
                value = None if found is None else STORE.get(found)
            except TypeError:
                return build(*args, **kwargs)
            if value is None:
                value = build(*args)
                if found is not None:
                    value = STORE.put(found, value, array_bytes(value))
            return _copy.copy(value) if copy else value
        return lookup
    return wrap
