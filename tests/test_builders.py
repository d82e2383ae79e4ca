"""The incidence-product and gather builders against the pair loops they replace.

`_grassmann_oracle` runs the RREF intersection dimension on every pair of
subspaces, `_johnson_oracle` intersects frozensets pair by pair and
`_cayley_oracle` walks the Cayley table y, z by y, z.  The builders in
`schemes` must reproduce their relation matrices exactly: same vertex
order, int64.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from schemewalk import (
    CertificationError,
    build_conjugacy_scheme,
    build_grassmann,
    build_group_scheme,
    build_johnson,
    galois,
    groups,
)
from schemewalk.schemes import _class_order_with_identity_first


def _grassmann_oracle(q, v, d):
    field = galois.GF(q)
    bases = galois.enumerate_subspaces(q, v, d)
    n = len(bases)
    rel = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(a + 1, n):
            rel[a, b] = rel[b, a] = d - galois.intersection_dim(field, bases[a], bases[b])
    return rel


def _johnson_oracle(v, k):
    subsets = [frozenset(c) for c in itertools.combinations(range(v), k)]
    return np.array([[k - len(a & b) for b in subsets] for a in subsets], dtype=np.int64)


def _cayley_oracle(g, class_of):
    n = g.order
    return np.array([[class_of[g.cayley[y][g.inverse[z]]] for z in range(n)]
                     for y in range(n)], dtype=np.int64)


def _conjugacy_class_of(g):
    class_of = [None] * g.order
    for idx, cl in enumerate(g.conjugacy_classes()):
        for x in cl:
            class_of[x] = idx
    return class_of


def _assert_same(built, expected):
    assert built.relation.dtype == np.int64
    assert np.array_equal(built.relation, expected)


# small (v, d) on every supported field, then the benchmark's spectra and catalog mixes
GRASSMANN_PARAMS = sorted(
    {(q, v, d) for q in galois.SUPPORTED_ORDERS for v, d in ((2, 1), (3, 1))}
    | {(q, 4, 2) for q in galois.SUPPORTED_ORDERS if q <= 4}
    | {(2, 5, 2), (3, 4, 2), (4, 4, 2), (2, 4, 2), (3, 3, 1)}
)
JOHNSON_PARAMS = [(4, 2), (5, 2), (6, 3), (9, 4), (10, 3), (10, 4), (11, 3), (8, 3)]
GROUPS = {
    **{f"z{n}": (lambda n=n: groups.cyclic(n)) for n in (*range(1, 9), 16, 24, 32)},
    "s3": lambda: groups.symmetric(3),
    "s4": lambda: groups.symmetric(4),
    "s5": lambda: groups.symmetric(5),
    "d4": lambda: groups.dihedral(4),
    "d5": lambda: groups.dihedral(5),
    "d8": lambda: groups.dihedral(8),
    "q8": groups.quaternion,
}


@pytest.mark.parametrize("q,v,d", GRASSMANN_PARAMS)
def test_grassmann_matches_pairwise_rref(q, v, d):
    _assert_same(build_grassmann(q, v, d), _grassmann_oracle(q, v, d))


@pytest.mark.parametrize("v,k", JOHNSON_PARAMS)
def test_johnson_matches_frozenset_loop(v, k):
    _assert_same(build_johnson(v, k), _johnson_oracle(v, k))


@pytest.mark.parametrize("name", GROUPS)
def test_group_schemes_match_cayley_loop(name):
    g = GROUPS[name]()
    _assert_same(build_group_scheme(g),
                 _cayley_oracle(g, _class_order_with_identity_first(g.identity, g.order)))
    _assert_same(build_conjugacy_scheme(g), _cayley_oracle(g, _conjugacy_class_of(g)))


@pytest.mark.parametrize("q,v,d", [(2, 4, 2), (3, 3, 1), (4, 4, 2), (9, 3, 1)])
def test_subspace_points_are_the_normalised_span(q, v, d):
    field = galois.GF(q)
    bases = galois.enumerate_subspaces(q, v, d)
    points = galois.subspace_points(q, bases)
    assert points.shape == (len(bases), (q**d - 1) // (q - 1))
    for basis, row in zip(bases, points):
        span = set()
        for c in itertools.product(range(q), repeat=d):
            vec = [0] * v
            for coef, b_row in zip(c, basis):
                vec = [field.add(x, field.mul(coef, y)) for x, y in zip(vec, b_row)]
            if any(vec):
                lead = next(x for x in vec if x)
                vec = [field.mul(field.inv(lead), x) for x in vec]
                span.add(sum(x * q ** (v - 1 - i) for i, x in enumerate(vec)))
        assert sorted(row.tolist()) == sorted(span)


def test_grassmann_rejects_a_count_that_is_no_subspace_size(monkeypatch):
    real = galois.subspace_points

    def one_point_moved(q, bases):
        points = real(q, bases).copy()
        points[0, 0] = points[-1, 0]
        return points

    monkeypatch.setattr(galois, "subspace_points", one_point_moved)
    with pytest.raises(CertificationError, match="no subspace size"):
        build_grassmann(3, 4, 2)


def test_grassmann_peak_memory_stays_within_five_relation_matrices():
    n = galois.gaussian_binomial(4, 1, 9)
    assert n == 820
    tracemalloc.start()
    try:
        s = build_grassmann(9, 4, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(s.relation, 1 - np.eye(n, dtype=np.int64))
    assert peak < 5 * 8 * n * n
