"""The one-pass axiom check against independent oracles.

`_reference_verify` checks axiom 4 with integer products A_i A_j, class
by class, and decides commutativity from A_i A_j = A_j A_i.
`_reference_intersection` counts p_ij^k at one representative per class
and checks the full identity A_i A_j = sum_k p_ij^k A_k for every i, j.
`verify_axioms`, `intersection_numbers` and `decompose` must agree with
them exactly: verdicts, witnesses and tensors.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemewalk import (
    ValidationError,
    build_group_scheme,
    build_johnson,
    decompose,
    groups,
    intersection_numbers,
    verify_axioms,
)
from schemewalk.schemes import AssociationScheme
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
        assert not verify_axioms(_move_pair(t, int(x), int(y), b)).passed


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
