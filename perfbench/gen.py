"""Seeded request generation and independent reference data.

Nothing here imports `schemewalk`: relation matrices, random operators
and the closed-form answers the checks compare against are all built
with plain Python and NumPy, so the library only ever sees the generated
inputs and a defect in it cannot leak into its own reference.

A workload is an endless sequence of rounds.  Every round holds the same
fixed multiset of request slots, shuffled by the seed and filled with
fresh seeded randomness (vertex relabelings, corruption sites, random
matrices).  Fixing the multiset keeps the latency mix, and therefore the
medians and every traced count, the same from seed to seed; the seed
moves only the order and the values.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from math import comb

import numpy as np


@dataclass(frozen=True)
class Request:
    """One request: which pipeline runs it, its inputs and what must happen.

    `expect` is "ok", or "reject:<step>" naming the step that must refuse
    it.  `key` identifies the input content, so two requests with equal
    keys are repeats.  `ref` holds the reference values the checks compare
    against.
    """

    kind: str
    payload: dict
    expect: str
    key: str
    ref: dict = field(default_factory=dict)


def _key(*parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- closed forms

def gaussian_binomial(v: int, k: int, q: int) -> int:
    if k < 0 or k > v:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (v - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def johnson_ref(v: int, k: int) -> dict:
    p11 = [k * (v - k), v - 2] + [4 if j == 2 else 0 for j in range(2, k + 1)]
    return {
        "n": comb(v, k), "d": k,
        "mults": sorted(comb(v, j) - comb(v, j - 1) if j else 1 for j in range(k + 1)),
        "vals": sorted(comb(k, j) * comb(v - k, j) for j in range(k + 1)),
        "p11": p11,
    }


def grassmann_ref(q: int, v: int, k: int) -> dict:
    return {
        "n": gaussian_binomial(v, k, q), "d": k,
        "mults": sorted(gaussian_binomial(v, j, q) - gaussian_binomial(v, j - 1, q)
                        for j in range(k + 1)),
        "vals": sorted(q ** (j * j) * gaussian_binomial(k, j, q)
                       * gaussian_binomial(v - k, j, q) for j in range(k + 1)),
    }


def cyclic_group_ref(n: int) -> dict:
    return {"n": n, "d": n - 1, "mults": [1] * n, "vals": [1] * n}


def cycle_ref(n: int) -> dict:
    """Distance scheme of the n-cycle: eigenvalues 2cos(2 pi j / n)."""
    half = n // 2
    if n % 2:
        mults = [1] + [2] * half
        vals = [1] + [2] * half
    else:
        mults = [1, 1] + [2] * (half - 1)
        vals = [1, 1] + [2] * (half - 1)
    return {"n": n, "d": half, "mults": sorted(mults), "vals": sorted(vals)}


# Squared irreducible degrees and class sizes of the small groups used.
_CONJUGACY = {
    "s4": ([1, 1, 4, 9, 9], [1, 3, 6, 6, 8]),
    "s5": ([1, 1, 16, 16, 25, 25, 36], [1, 10, 15, 20, 20, 24, 30]),
    "q8": ([1, 1, 1, 1, 4], [1, 1, 2, 2, 2]),
}


def conjugacy_ref(name: str) -> dict:
    if name.startswith("d"):
        n = int(name[1:])
        if n % 2:
            mults = [1, 1] + [4] * ((n - 1) // 2)
            vals = [1] + [2] * ((n - 1) // 2) + [n]
        else:
            mults = [1] * 4 + [4] * ((n - 2) // 2)
            vals = [1, 1] + [2] * ((n - 2) // 2) + [n // 2, n // 2]
        order = 2 * n
    else:
        mults, vals = _CONJUGACY[name]
        order = {"s4": 24, "s5": 120, "q8": 8}[name]
    return {"n": order, "d": len(mults) - 1, "mults": sorted(mults), "vals": sorted(vals)}


# ----------------------------------------------------- relation matrices

def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def _perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _group_relation(elements, mul, inv, by_class: bool) -> np.ndarray:
    """Relation matrix of a group scheme (y, z) -> y z^-1.

    With `by_class`, elements are merged along conjugacy classes (the
    conjugacy scheme); otherwise every element is its own class.
    """
    index = {x: i for i, x in enumerate(elements)}
    identity = next(x for x in elements if all(mul(x, y) == y for y in elements))
    if by_class:
        label, classes = {}, [[identity]]
        label[identity] = 0
        for x in elements:
            if x in label:
                continue
            cls = sorted({mul(mul(g, x), inv(g)) for g in elements}, key=index.get)
            for y in cls:
                label[y] = len(classes)
            classes.append(cls)
    else:
        others = [x for x in elements if x != identity]
        label = {identity: 0, **{x: i + 1 for i, x in enumerate(others)}}
    n = len(elements)
    rel = np.empty((n, n), dtype=np.int64)
    for a, y in enumerate(elements):
        for b, z in enumerate(elements):
            rel[a, b] = label[mul(y, inv(z))]
    return rel


def symmetric_elements(m: int):
    return list(itertools.permutations(range(m))), _perm_mul, _perm_inv


def dihedral_elements(n: int):
    """D_n as pairs (a, i) = s^a r^i with r^i s = s r^-i."""
    elements = [(a, i) for a in range(2) for i in range(n)]

    def mul(x, y):
        (a, i), (b, j) = x, y
        return ((a + b) % 2, ((-i if b else i) + j) % n)

    def inv(x):
        a, i = x
        return (1, i) if a else (0, (-i) % n)

    return elements, mul, inv


def cyclic_relation(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] - idx[None, :]) % n


def cycle_relation(n: int) -> np.ndarray:
    diff = cyclic_relation(n)
    return np.minimum(diff, (-diff) % n)


def johnson_relation(v: int, k: int) -> np.ndarray:
    subsets = [frozenset(c) for c in itertools.combinations(range(v), k)]
    return np.array([[k - len(a & b) for b in subsets] for a in subsets], dtype=np.int64)


def grassmann2_relation(v: int, k: int) -> np.ndarray:
    """k-dim subspaces of GF(2)^v as sets of bit vectors; class k - dim(A n B)."""
    spaces = set()
    for gens in itertools.combinations(range(1, 2 ** v), k):
        span = {0}
        for g in gens:
            span |= {x ^ g for x in span}
        if len(span) == 2 ** k:
            spaces.add(frozenset(span))
    spaces = sorted(spaces, key=sorted)
    dim = {2 ** i: i for i in range(k + 1)}
    return np.array([[k - dim[len(a & b)] for b in spaces] for a in spaces], dtype=np.int64)


def scheme_json(rel: np.ndarray, d: int) -> str:
    return json.dumps({"n": int(rel.shape[0]), "d": int(d), "relation": rel.tolist()})


def relabel(rel: np.ndarray, rng) -> np.ndarray:
    perm = rng.permutation(rel.shape[0])
    return rel[np.ix_(perm, perm)]


def corrupt(rel: np.ndarray, d: int, how: str, rng) -> np.ndarray:
    """Break the scheme axioms at one seeded site.

    "diagonal" puts class 1 on the diagonal (axiom 1).  "one_sided"
    moves one off-diagonal pair to another class (axiom 3 unless the
    classes happen to line up, axiom 4 otherwise).  "symmetric" moves a
    pair and its transpose together, which keeps axiom 3 but leaves row x
    one short in the old class, so A_a A_a' differs along the diagonal
    (axiom 4).  The replacement class has as many digits as the old one,
    so the JSON length, and every byte count, does not depend on the seed.
    """
    rel = rel.copy()
    n = rel.shape[0]
    if how == "diagonal":
        x = int(rng.integers(n))
        rel[x, x] = 1
        return rel
    x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
    a = int(rel[x, y])
    choices = [b for b in range(1, d + 1) if b != a and len(str(b)) == len(str(a))]
    b = int(rng.choice(choices))
    rel[x, y] = b
    if how == "symmetric":
        if rel[y, x] != a:
            raise ValueError("symmetric corruption needs a symmetric scheme")
        rel[y, x] = b
    return rel


# ---------------------------------------------------------------- workloads

def _matrix(rel: np.ndarray, d: int, ref: dict, rng, expect: str = "ok",
            corruption: str | None = None) -> Request:
    rel = relabel(rel, rng)
    if corruption:
        rel = corrupt(rel, d, corruption, rng)
    text = scheme_json(rel, d)
    return Request(kind="matrix", payload={"json": text, "n": int(rel.shape[0]), "d": int(d)},
                   expect=expect, key=_key("matrix", text), ref=ref)


SPECTRA_SLOTS = [
    ("johnson", (9, 4)), ("johnson", (10, 3)), ("johnson", (10, 4)), ("johnson", (11, 3)),
    ("grassmann", (2, 5, 2)), ("grassmann", (3, 4, 2)), ("grassmann", (4, 4, 2)),
    ("conjugacy", ("symmetric", 5)),
]


def _group_name(params) -> str:
    """("symmetric", 4) -> "s4", ("dihedral", 5) -> "d5", ("quaternion",) -> "q8"."""
    kind, *arg = params
    return "q8" if kind == "quaternion" else f"{kind[0]}{arg[0]}"


def _named_ref(family: str, params) -> dict:
    if family == "johnson":
        return johnson_ref(*params)
    if family == "grassmann":
        return grassmann_ref(*params)
    if family == "conjugacy":
        return conjugacy_ref(_group_name(params))
    if family == "group" and params[0] == "cyclic":
        return cyclic_group_ref(params[1])
    if family == "cycle":
        return cycle_ref(params[0])
    return {}


def _spectra(family: str, params) -> Request:
    return Request(kind="spectra", payload={"family": family, "params": params}, expect="ok",
                   key=_key("spectra", family, params), ref=_named_ref(family, params))


def spectra_round(rng) -> list[Request]:
    reqs = [_spectra(*slot) for slot in SPECTRA_SLOTS]
    return [reqs[i] for i in rng.permutation(len(reqs))]


# Named half of the catalog's scheme requests: (family, params, expect).
CATALOG_NAMED = [
    ("group", ("cyclic", 8), "ok"), ("group", ("cyclic", 16), "ok"),
    ("group", ("cyclic", 24), "ok"), ("group", ("cyclic", 32), "ok"),
    ("group", ("symmetric", 3), "reject:decompose"),
    ("conjugacy", ("symmetric", 4), "ok"), ("conjugacy", ("quaternion",), "ok"),
    ("conjugacy", ("dihedral", 5), "ok"),
    ("johnson", (8, 3), "ok"), ("grassmann", (2, 4, 2), "ok"), ("grassmann", (3, 3, 1), "ok"),
    ("cycle", (12,), "ok"),
]


def _catalog_matrices(rng) -> list[Request]:
    s4 = symmetric_elements(4)
    d5 = dihedral_elements(5)
    d8 = dihedral_elements(8)
    conj_s4 = _group_relation(*s4, by_class=True)
    return [
        _matrix(cyclic_relation(12), 11, cyclic_group_ref(12), rng),
        _matrix(cyclic_relation(20), 19, cyclic_group_ref(20), rng),
        _matrix(_group_relation(*d5, by_class=False), 9, {"n": 10}, rng, "reject:decompose"),
        _matrix(_group_relation(*d8, by_class=True), 6, conjugacy_ref("d8"), rng),
        _matrix(conj_s4, 4, conjugacy_ref("s4"), rng),
        _matrix(johnson_relation(7, 2), 2, johnson_ref(7, 2), rng),
        _matrix(johnson_relation(9, 2), 2, johnson_ref(9, 2), rng),
        _matrix(grassmann2_relation(4, 2), 2, grassmann_ref(2, 4, 2), rng),
        _matrix(cycle_relation(10), 5, cycle_ref(10), rng),
        _matrix(johnson_relation(8, 2), 2, {"n": 28}, rng, "reject:verify", "symmetric"),
        _matrix(cyclic_relation(10), 9, {"n": 10}, rng, "reject:verify", "one_sided"),
        _matrix(conj_s4, 4, {"n": 24}, rng, "reject:verify", "diagonal"),
    ]


# Anyon requests: (operation, argument, expect).  Hexagon on Ising is
# refused by the library (rank > 2), so it is an expected rejection.
CATALOG_ANYONS = [
    ("pentagon", "ising", "ok"), ("pentagon", "fibonacci", "ok"),
    ("hexagon", "fibonacci", "ok"), ("hexagon", "ising", "reject:hexagon"),
    ("braid", "ising", "ok"), ("braid", "fibonacci", "ok"),
] + [("bridge", k, "ok") for k in range(3, 8)]


def _named(family: str, params, expect: str) -> Request:
    payload_params = params
    if family == "cycle":
        # orbitals of the dihedral action on an n-gon: rotation and reflection
        n = params[0]
        payload_params = (n, [[(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]])
    return Request(kind="named", payload={"family": family, "params": payload_params},
                   expect=expect, key=_key("named", family, params),
                   ref=_named_ref(family, params))


def _anyon(op: str, arg, expect: str) -> Request:
    return Request(kind="anyon", payload={"op": op, "arg": arg}, expect=expect,
                   key=_key("anyon", op, arg),
                   ref=cyclic_group_ref(arg) if op == "bridge" else {})


def catalog_round(rng) -> list[Request]:
    reqs = [_named(*slot) for slot in CATALOG_NAMED]
    reqs += _catalog_matrices(rng)
    reqs += [_anyon(*slot) for slot in CATALOG_ANYONS]
    return [reqs[i] for i in rng.permutation(len(reqs))]


# Quantum slots: (operation, n).  The certify_cp and szegedy_walk
# eigensolves and products grow as n^6: at n = 40 one certification takes
# 2 s, at 48 about 6 s, and their run-to-run spread on a shared host grew
# with size.  They run at five sizes up to 32 and the cheap transition
# expectation covers 24 to 48, so latencies spread evenly from 5 ms to
# 0.5 s and the median and tail do not sit on a gap between sizes.
QUANTUM_SLOTS = [(op, n) for n in (16, 20, 24, 28, 32)
                 for op in ("szegedy", "cp_psd", "cp_indefinite")]
QUANTUM_SLOTS += [("transition", n) for n in (24, 32, 40, 48)]


def _stochastic(rng, n: int, axis: int) -> np.ndarray:
    m = rng.random((n, n)) + 0.05
    return m / m.sum(axis=axis, keepdims=True)


def _density(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def quantum_request(op: str, n: int, rng) -> Request:
    """Random inputs for one pair-space request; `ref` holds what only the checks see."""
    ref = {"n": n}
    expect = "ok"
    if op == "szegedy":
        payload = {"D": _stochastic(rng, n, axis=0)}
        ref["probe"] = rng.standard_normal((2, n * n))
    elif op in ("cp_psd", "cp_indefinite"):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(0.2, 1.0, n)
        if op == "cp_indefinite":
            lam[int(rng.integers(n))] = -0.5
            ref["min_eig"] = -0.5
            expect = "reject:iterate"
        mult = (q * lam) @ q.T
        if op == "cp_psd":
            # unit diagonal: the channel preserves trace and the diagonal
            scale = 1.0 / np.sqrt(np.diag(mult))
            mult = mult * scale[:, None] * scale[None, :]
        payload = {"multiplier": (mult + mult.T) / 2.0, "rho": _density(rng, n)}
    else:
        payload = {"P": _stochastic(rng, n, axis=1), "M": rng.standard_normal((n, n)),
                   "N": rng.standard_normal((n, n)), "rho": _density(rng, n)}
    digest = _key(op, *(np.ascontiguousarray(v).tobytes() for v in payload.values()))
    return Request(kind="quantum", payload={"op": op, "n": n, **payload}, expect=expect,
                   key=digest, ref=ref)


def quantum_round(rng) -> list[Request]:
    order = rng.permutation(len(QUANTUM_SLOTS))
    return [quantum_request(*QUANTUM_SLOTS[i], rng) for i in order]


ROUNDS = {"spectra": spectra_round, "catalog": catalog_round, "quantum": quantum_round}


def _rng(workload: str, seed: int, purpose: int):
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(ROUNDS)}")
    return np.random.default_rng([seed, sorted(ROUNDS).index(workload), purpose])


class RequestStream:
    """Rounds of one workload, drawn in order from one seeded generator."""

    def __init__(self, workload: str, seed: int):
        self._make = ROUNDS[workload]
        self._rng = _rng(workload, seed, 0)

    def next_round(self) -> list[Request]:
        return self._make(self._rng)


def warmup_round(workload: str, seed: int) -> list[Request]:
    """Small requests that touch every code path, on inputs no round contains."""
    rng = _rng(workload, seed, 1)
    if workload == "spectra":
        return [_spectra("johnson", (6, 3)), _spectra("grassmann", (2, 4, 2))]
    if workload == "catalog":
        return [_named("group", ("cyclic", 6), "ok"),
                _matrix(johnson_relation(6, 2), 2, johnson_ref(6, 2), rng),
                _anyon("bridge", 2, "ok")]
    return [quantum_request(op, 8, rng)
            for op in ("szegedy", "cp_psd", "cp_indefinite", "transition")]
