import numpy as np
import pytest

from schemewalk import ValidationError
from schemewalk.galois import (
    _FIELD_SPECS,
    GF,
    SUPPORTED_ORDERS,
    enumerate_subspaces,
    gaussian_binomial,
)
from tests.gf_reference import add, intersection_dim, inv, mul, neg, rank, rref


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(4, 4, 3) == 1
    # symmetry [v d] = [v v-d]
    for q in (2, 3, 4):
        assert gaussian_binomial(5, 2, q) == gaussian_binomial(5, 3, q)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms(q):
    f = GF(q)
    elems = range(q)
    for a in elems:
        assert add(f, a, 0) == a
        assert mul(f, a, 1) == a
        assert add(f, a, neg(f, a)) == 0
        if a != 0:
            assert mul(f, a, inv(f, a)) == 1
    # associativity and distributivity on a few triples
    triples = [(a, b, c) for a in elems for b in elems for c in elems][: 4 * q]
    for a, b, c in triples:
        assert mul(f, a, mul(f, b, c)) == mul(f, mul(f, a, b), c)
        assert mul(f, a, add(f, b, c)) == add(f, mul(f, a, b), mul(f, a, c))


def test_gf2_has_working_arithmetic():
    # regression: the order-2 field has a trivial multiplicative group
    f = GF(2)
    assert mul(f, 1, 1) == 1
    assert inv(f, 1) == 1
    assert add(f, 1, 1) == 0


def test_gf4_multiplicative_order():
    f = GF(4)
    # the multiplicative group is cyclic of order 3: a^3 = 1 for nonzero a
    for a in (1, 2, 3):
        assert mul(f, a, mul(f, a, a)) == 1
    # the field has characteristic 2
    assert add(f, 2, 2) == 0


def test_unsupported_order():
    with pytest.raises(ValidationError):
        GF(6)
    with pytest.raises(ValidationError):
        GF(10)


def test_rref_and_rank_gf2():
    f = GF(2)
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert rank(f, rows) == 2
    r = rref(f, rows)
    assert r == [[1, 0, 1], [0, 1, 1]]


def test_rref_and_rank_gf3():
    f = GF(3)
    # det[[1,2],[2,1]] = 1-4 = -3 = 0 over GF(3), so the block has rank 1
    assert rank(f, [[1, 2], [2, 1]]) == 1
    rows = [[1, 2, 0], [2, 1, 0], [0, 0, 1]]
    assert rank(f, rows) == 2
    assert rref(f, rows) == [[1, 2, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "q,v,d",
    [(2, 3, 1), (2, 4, 2), (3, 2, 1), (2, 4, 1), (3, 3, 1), (4, 2, 1)],
)
def test_enumerate_subspaces_counts(q, v, d):
    subs = enumerate_subspaces(q, v, d)
    assert len(subs) == gaussian_binomial(v, d, q)
    # canonical rref bases: all distinct, all rank d
    assert len(set(subs)) == len(subs)
    f = GF(q)
    for basis in subs:
        assert rank(f, [list(row) for row in basis]) == d


def test_intersection_dim():
    f = GF(2)
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[0, 1, 0], [0, 0, 1]]
    assert intersection_dim(f, a, b) == 1
    assert intersection_dim(f, a, a) == 2
    c = [[0, 0, 1]]
    assert intersection_dim(f, a, c) == 0
    # symmetric
    assert intersection_dim(f, b, a) == intersection_dim(f, a, b)


def _log_table_field(q):
    """The field as Python lists: digit-wise addition, and multiplication
    through log/antilog tables of a primitive element found by search."""
    p, k, poly = _FIELD_SPECS[q]

    def digits(a):
        return tuple((a // p**i) % p for i in range(k))

    def undigits(vec):
        return sum(v * p**i for i, v in enumerate(vec))

    add = [[undigits(tuple((x + y) % p for x, y in zip(digits(a), digits(b))))
            for b in range(q)] for a in range(q)]
    neg = [undigits(tuple((-x) % p for x in digits(a))) for a in range(q)]

    def poly_mul(a, b):
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

    for g in range(1 if q == 2 else 2, q):
        power, antilog = 1, []
        for _ in range(q - 1):
            antilog.append(power)
            power = poly_mul(power, g)
        if len(set(antilog)) == q - 1:
            break
    log = [0] * q
    for i, v in enumerate(antilog):
        log[v] = i

    def mul(a, b):
        if a == 0 or b == 0:
            return 0
        return antilog[(log[a] + log[b]) % (q - 1)]

    mul_table = [[mul(a, b) for b in range(q)] for a in range(q)]
    inv = [None] + [antilog[(-log[a]) % (q - 1)] for a in range(1, q)]
    return add, mul_table, neg, inv


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_tables_equal_the_log_table_construction(q):
    add_list, mul_list, neg_list, inv_list = _log_table_field(q)
    f = GF(q)
    assert f.add_table.dtype == f.mul_table.dtype == np.int64
    assert np.array_equal(f.add_table, add_list)
    assert np.array_equal(f.mul_table, mul_list)
    assert [neg(f, a) for a in range(q)] == neg_list
    assert [inv(f, a) for a in range(1, q)] == inv_list[1:]
    with pytest.raises(ZeroDivisionError):
        inv(f, 0)
    assert not f.add_table.flags.writeable and not f.mul_table.flags.writeable
