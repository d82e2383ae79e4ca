"""The one-pass axiom check against independent oracles.

`_reference_verify` checks axiom 4 with integer products A_i A_j, class
by class, and decides commutativity from A_i A_j = A_j A_i.
`_reference_intersection` counts p_ij^k at one representative per class
and checks the full identity A_i A_j = sum_k p_ij^k A_k for every i, j.
`verify_axioms`, `intersection_numbers` and `decompose` must agree with
them exactly: verdicts, witnesses and tensors.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schemewalk import (
    ValidationError,
    build_conjugacy_scheme,
    build_group_scheme,
    build_johnson,
    decompose,
    groups,
    intersection_numbers,
    verify_axioms,
)
from schemewalk.schemes import DEFAULT_VERTEX_CAP, AssociationScheme, _block_size
from tests.conftest import BUILTIN_NAMES, _builtin_constructors


def _reference_verify(s):
    """(passed, violations, commutative) by integer products."""
    rel = s.relation
    n, d = s.n, s.d
    violations = []
    bad = np.nonzero(np.diagonal(rel) != 0)[0]
    if bad.size:
        violations.append((1, (int(bad[0]), int(bad[0]))))
    off_zero = (rel == 0) & ~np.eye(n, dtype=bool)
    if off_zero.any():
        x, y = np.argwhere(off_zero)[0]
        violations.append((1, (int(x), int(y))))
    present = np.unique(rel)
    violations.extend((2, (j,)) for j in range(d + 1) if j not in present)
    ok3 = True
    for j in range(d + 1):
        xs, ys = np.nonzero(rel == j)
        if xs.size == 0:
            continue
        back = rel[ys, xs]
        mismatch = np.nonzero(back != back[0])[0]
        if mismatch.size:
            m = int(mismatch[0])
            violations.append((3, (int(xs[0]), int(ys[0]), int(xs[m]), int(ys[m]))))
            ok3 = False
    mats = [(rel == k).astype(np.int64) for k in range(d + 1)]
    if ok3 and not violations:
        witness = None
        for i in range(d + 1):
            for j in range(d + 1):
                prod = mats[i] @ mats[j]
                for k in range(d + 1):
                    xs, ys = np.nonzero(rel == k)
                    vals = prod[xs, ys]
                    if (vals != vals[0]).any():
                        m = int(np.nonzero(vals != vals[0])[0][0])
                        witness = (i, j, int(xs[0]), int(ys[0]), int(xs[m]), int(ys[m]))
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            violations.append((4, witness))
    passed = not violations
    commutative = passed and all(
        np.array_equal(mats[i] @ mats[j], mats[j] @ mats[i])
        for i in range(d + 1) for j in range(i + 1, d + 1)
    )
    return passed, tuple(violations), commutative


def _reference_intersection(s):
    """p by pair histograms, checked on the full product identity."""
    rel = s.relation
    d = s.d
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for k in range(d + 1):
        xs, ys = np.nonzero(rel == k)
        if xs.size == 0:
            raise ValidationError(f"relation class {k} is empty")
        np.add.at(p[:, :, k], (rel[xs[0], :], rel[:, ys[0]]), 1)
    mats = np.stack([(rel == k).astype(np.int64) for k in range(d + 1)])
    for i in range(d + 1):
        for j in range(d + 1):
            if not np.array_equal(mats[i] @ mats[j], np.tensordot(p[i, j], mats, axes=1)):
                raise ValidationError(f"A_{i} A_{j} is not in the span")
    return p


def _raw(rel, d):
    return AssociationScheme(n=rel.shape[0], d=d, relation=rel)


def _relabel(s, perm):
    return _raw(s.relation[np.ix_(perm, perm)], s.d)


def _transpose_of(s):
    xs, ys = np.nonzero(np.ones_like(s.relation))
    t = np.empty(s.d + 1, dtype=np.int64)
    t[s.relation[xs, ys]] = s.relation[ys, xs]
    return t


def _move_pair(s, x, y, b):
    """Move (x, y) to class b and (y, x) to the transpose of b."""
    rel = np.array(s.relation)
    rel[x, y] = b
    rel[y, x] = _transpose_of(s)[b]
    return _raw(rel, s.d)


def _corruptions(s):
    """Inputs that break axioms 1, 2, 3 and 4 in turn."""
    rel, d = s.relation, s.d
    out = []
    bad = np.array(rel)
    bad[0, 0] = 1
    out.append(bad)
    bad = np.array(rel)
    bad[0, 1] = 0
    out.append(bad)
    bad = np.array(rel)
    bad[bad == d] = d - 1
    out.append(bad)
    schemes = [_raw(r, d) for r in out]
    if d >= 2:
        bad = np.array(rel)
        bad[0, 1] = 1 + rel[0, 1] % d
        schemes.append(_raw(bad, d))
        x, y = np.argwhere(rel == 1)[-1]
        schemes.append(_move_pair(s, int(x), int(y), 2))
    return schemes


def _assert_matches_reference(s):
    report = verify_axioms(s)
    assert (report.passed, report.violations, report.commutative) == _reference_verify(s)
    if report.passed:
        assert np.array_equal(report.p, _reference_intersection(s))
        assert np.array_equal(intersection_numbers(s).p, report.p)
    else:
        assert report.p is None
        with pytest.raises(ValidationError):
            intersection_numbers(s)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_matches_reference(name):
    s = _builtin_constructors()[name]()
    _assert_matches_reference(s)
    rng = np.random.default_rng(7)
    for _ in range(2):
        relabelled = _relabel(s, rng.permutation(s.n))
        _assert_matches_reference(relabelled)
        assert np.array_equal(verify_axioms(relabelled).p, verify_axioms(s).p)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_corruptions_match_reference(name):
    s = _builtin_constructors()[name]()
    rng = np.random.default_rng(11)
    for bad in _corruptions(s):
        assert not verify_axioms(bad).passed
        _assert_matches_reference(bad)
        _assert_matches_reference(_relabel(bad, rng.permutation(s.n)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_relabelling_keeps_p_and_moving_a_pair_is_rejected(data):
    name = data.draw(st.sampled_from(BUILTIN_NAMES))
    s = _builtin_constructors()[name]()
    perm = np.array(data.draw(st.permutations(range(s.n))))
    t = _relabel(s, perm)
    report, base = verify_axioms(t), verify_axioms(s)
    assert report.passed
    assert report.commutative == base.commutative
    assert np.array_equal(report.p, base.p)
    if s.d >= 2:
        # the row of x gains a class-b neighbour, so A_b has no constant row sum
        x, y = data.draw(st.sampled_from([tuple(v) for v in np.argwhere(t.relation != 0)]))
        a = int(t.relation[x, y])
        b = data.draw(st.sampled_from([c for c in range(1, s.d + 1) if c != a]))
        moved = _move_pair(t, int(x), int(y), b)
        assert not verify_axioms(moved).passed
        _assert_matches_reference(moved)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_axioms_1_to_3_with_random_classes_match_reference(data):
    """Random relation matrices that satisfy axioms 1-3 by construction.

    Once rows 1..d-1 of the products are class-constant, every class has a
    constant row count, hence (axiom 3) a constant column count, and row d
    follows from A_d = J - sum_{i<d} A_i.  So the first axiom-4 failure is
    never in row d, and no input can fail there alone.
    """
    n = data.draw(st.integers(2, 7))
    symmetric = data.draw(st.integers(0, 3))
    paired = data.draw(st.integers(0, 2))
    d = symmetric + 2 * paired
    assume(0 < d <= n * (n - 1))
    back = np.arange(d + 1)
    back[symmetric + 1:] += np.tile([1, -1], paired)  # classes a, a + 1 transpose each other
    upper = data.draw(st.lists(st.integers(1, d), min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2))
    rel = np.zeros((n, n), dtype=np.int64)
    xs, ys = np.triu_indices(n, 1)
    rel[xs, ys] = upper
    rel[ys, xs] = back[upper]
    s = _raw(rel, d)
    _assert_matches_reference(s)
    report = verify_axioms(s)
    if report.violations and report.violations[0][0] == 4:
        assert report.violations[0][1][0] < d


def test_non_constant_column_counts_of_a_d_fail_in_an_earlier_row():
    s = build_johnson(5, 2)
    x, y = np.argwhere(s.relation == 1)[-1]
    bad = _move_pair(s, int(x), int(y), 2)
    col = (bad.relation == bad.d).sum(axis=0)
    assert col.min() != col.max()
    _assert_matches_reference(bad)
    (axiom, (i, *_)), = verify_axioms(bad).violations
    assert axiom == 4 and i < bad.d


@pytest.mark.parametrize("name", ["johnson_6_3", "grassmann_2_4_2", "conjugacy_s4"])
def test_failure_away_from_the_representatives_matches_reference(name):
    """Move a pair (x, y) and (y, x) off row 0 and off the representatives' columns.

    Every representative lies in row 0, so the packed codes there are those
    of the clean scheme, and the mismatch is found at another pair.
    """
    s = _builtin_constructors()[name]()
    clean = verify_axioms(s).p
    touched = {0, *np.unique(s.relation[0], return_index=True)[1].tolist()}
    x, y = next((int(x), int(y)) for x, y in np.argwhere(s.relation != 0)
                if x not in touched and y not in touched)
    bad = _move_pair(s, x, y, 1 + s.relation[x, y] % s.d)
    _assert_matches_reference(bad)
    (axiom, (i, j, rx, ry, x2, y2)), = verify_axioms(bad).violations
    assert axiom == 4 and rx == 0
    k = int(bad.relation[rx, ry])
    prod = bad.adjacency(i) @ bad.adjacency(j)
    assert prod[rx, ry] == clean[i, j, k] != prod[x2, y2]


def test_failure_in_the_second_block_matches_reference():
    s = build_group_scheme(groups.symmetric(4))  # n = 24, g = 11: three blocks
    assert _block_size(s.n) == 11
    x, y = np.argwhere(s.relation == 14)[-1]
    bad = _move_pair(s, int(x), int(y), 15)
    _assert_matches_reference(bad)
    assert verify_axioms(bad).violations == ((4, (1, 14, 0, 15, 12, 23)),)


@pytest.mark.parametrize("n", [1, 2, 64, 357, DEFAULT_VERTEX_CAP])
def test_digit_budget_is_the_largest_exact_block(n):
    g = _block_size(n)
    assert (n + 1) ** g <= 2 ** 53 < (n + 1) ** (g + 1)


def test_codes_filling_every_digit_of_a_block_match_reference():
    s = build_conjugacy_scheme(groups.symmetric(5))  # n = 120, d + 1 = 7 = g
    assert s.d + 1 == _block_size(s.n)
    p = verify_axioms(s).p
    # in the multiplied rows A_1 .. A_{d-1}, every digit of the one block
    # carries a count; the top digit reaches 12, the largest 30
    assert (p[1:-1].max(axis=(0, 2)) > 0).all()
    assert (p[1:-1, -1].max(), p[1:-1].max()) == (12, 30)
    assert np.array_equal(p, _reference_intersection(s))


def test_packed_pass_memory_is_p_plus_a_few_matrices():
    s = build_group_scheme(groups.symmetric(5))  # n = 120, d = 119
    tracemalloc.start()
    try:
        report = verify_axioms(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # p, its (d+1)^3-byte commutativity compare, and at most 8 n x n words;
    # one float64 matrix per class would be 120 words per pair
    assert peak <= 1.125 * report.p.nbytes + 8 * 8 * s.n ** 2


def test_moved_pair_above_64_vertices_is_rejected_everywhere():
    s = build_johnson(10, 3)  # n = 120
    x, y = np.argwhere(s.relation == 1)[-1]
    bad = _move_pair(s, int(x), int(y), 2)
    assert verify_axioms(bad).violations == ((4, (1, 1, 0, 0, 118, 118)),)
    with pytest.raises(ValidationError):
        intersection_numbers(bad)
    with pytest.raises(ValidationError):
        decompose(bad)


def test_noncommutative_error_names_a_noncommuting_pair():
    s = build_group_scheme(groups.symmetric(3))
    with pytest.raises(ValidationError, match="commut") as err:
        decompose(s)
    i, j = map(int, re.search(r"A_(\d+) and A_(\d+)", str(err.value)).groups())
    a_i, a_j = s.adjacency(i), s.adjacency(j)
    assert not np.array_equal(a_i @ a_j, a_j @ a_i)


def test_scheme_does_not_alias_the_callers_array():
    base = np.array(build_johnson(4, 2).relation)
    s = AssociationScheme(n=6, d=2, relation=base[:, :])
    assert verify_axioms(s).passed
    base[0, 0] = 1
    assert s.relation[0, 0] == 0
    assert not s.relation.flags.writeable
    assert verify_axioms(_raw(s.relation, s.d)).passed
    assert np.array_equal(intersection_numbers(s).p, _reference_intersection(s))
