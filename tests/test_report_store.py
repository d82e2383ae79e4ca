"""The store of axiom reports kept per relation content, and the spectrum
kept on a report.

A scheme whose content (n, d, relation) an earlier scheme had gets that
scheme's report, and `decompose` gets its spectrum, with no check and no
`eigh` run again.  Every served report and spectrum must equal a fresh
computation, and content that differs in any byte, in n or in d must
miss.  `conftest.py` empties the store before every test.
"""

import json
import sys
import threading

import numpy as np
import pytest

from schemewalk import (
    CertificationError,
    ValidationError,
    build_group_scheme,
    build_johnson,
    decompose,
    groups,
    schemes,
    serialize,
    spectral,
    verify_axioms,
)
from schemewalk.schemes import AssociationScheme
from tests.conftest import BUILTIN_NAMES, COMMUTATIVE_NAMES, _builtin_constructors


_CHECK = schemes._check_axioms


def _copy(s, relation=None, d=None):
    """A new scheme object with the content of `s`, or with its edits."""
    return AssociationScheme(n=s.n, d=s.d if d is None else d,
                             relation=s.relation if relation is None else relation)


@pytest.fixture
def checks(monkeypatch):
    """Count the axiom checks that run."""
    calls = []

    def counted(s):
        calls.append(s)
        return _CHECK(s)

    monkeypatch.setattr(schemes, "_check_axioms", counted)
    return calls


@pytest.fixture
def eighs(monkeypatch):
    """Count the eigensolves that run."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _entries():
    return list(schemes._REPORTS._entries)


def _assert_same_report(report, fresh):
    assert report.passed == fresh.passed
    assert report.violations == fresh.violations
    assert report.commutative == fresh.commutative
    if fresh.p is None:
        assert report.p is None
    else:
        assert np.array_equal(report.p, fresh.p)


def _fresh(s):
    """The report of a fresh check, computed outside the store."""
    return _CHECK(_copy(s))


def _relabellings(s, rng, count=3):
    for _ in range(count):
        perm = rng.permutation(s.n)
        yield _copy(s, s.relation[np.ix_(perm, perm)])


def _corruptions(s, rng):
    """The three corruptions of the benchmark's catalog: class 1 on the
    diagonal (axiom 1), one pair moved to another class, and a symmetric
    pair moved together, when the scheme has one."""
    n, d, rel = s.n, s.d, s.relation
    out = []
    bad = rel.copy()
    x = int(rng.integers(n))
    bad[x, x] = 1
    out.append(bad)
    x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
    a = int(rel[x, y])
    bad = rel.copy()
    bad[x, y] = a % d + 1 if d > 1 else 0
    out.append(bad)
    pairs = np.argwhere((rel == rel.T) & (rel > 0))
    if len(pairs):
        x, y = pairs[int(rng.integers(len(pairs)))]
        a = int(rel[x, y])
        bad = rel.copy()
        bad[x, y] = bad[y, x] = a % d + 1 if d > 1 else 0
        out.append(bad)
    return [_copy(s, b) for b in out]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_served_reports_equal_fresh_checks(name, checks):
    """On every built-in, three relabellings and their corruptions: each
    report served from the store is a fresh check's report, and a
    corrupted copy of a stored scheme misses and reports its own witness."""
    rng = np.random.default_rng(sum(map(ord, name)))
    base = _builtin_constructors()[name]()
    seen = set()
    for s in [base, *_relabellings(base, rng)]:
        for t in [s, *_corruptions(s, rng)]:
            content = t.relation.tobytes()
            ran = len(checks)
            report = verify_axioms(t)
            # small schemes repeat content across relabellings; only new content is checked
            assert len(checks) == ran + (content not in seen)
            seen.add(content)
            assert report.passed == (t is s)
            _assert_same_report(report, _fresh(t))
            after = len(checks)
            assert verify_axioms(_copy(t)) is report and len(checks) == after


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_served_spectra_equal_fresh_decompositions(name):
    s = _builtin_constructors()[name]()
    dec = decompose(s)
    again = decompose(_copy(s))
    assert again.scheme is not s and again is not dec
    assert again.multiplicities == dec.multiplicities
    assert again.eigenmatrix_P is dec.eigenmatrix_P
    assert again.eigenmatrix_Q is dec.eigenmatrix_Q
    assert not dec.eigenmatrix_P.flags.writeable and not dec.eigenmatrix_Q.flags.writeable
    schemes._REPORTS.clear()
    fresh = decompose(_copy(s))
    assert fresh.eigenmatrix_P is not dec.eigenmatrix_P
    assert fresh.multiplicities == dec.multiplicities
    assert np.array_equal(fresh.eigenmatrix_P, dec.eigenmatrix_P)
    assert np.array_equal(fresh.eigenmatrix_Q, dec.eigenmatrix_Q)


def test_a_reloaded_scheme_runs_no_check_and_no_eigh(checks, eighs):
    s = build_johnson(6, 3)
    dec = decompose(s)
    assert (len(checks), len(eighs)) == (1, 1)
    text = json.dumps(serialize.to_jsonable("scheme", s))
    loaded = serialize.loads(text, "scheme")
    reloaded = decompose(loaded)
    assert (len(checks), len(eighs)) == (1, 1)
    assert loaded is not s and reloaded.scheme is loaded
    assert reloaded.multiplicities == dec.multiplicities
    assert reloaded.eigenmatrix_P is dec.eigenmatrix_P
    assert reloaded.eigenmatrix_Q is dec.eigenmatrix_Q


def test_labels_play_no_part_in_the_key(checks):
    s = build_johnson(4, 2)
    labelled = AssociationScheme(n=s.n, d=s.d, relation=s.relation, labels=("I", "A", "B"))
    assert verify_axioms(labelled) is verify_axioms(s)
    assert len(checks) == 1


def test_refusals_are_not_kept_on_the_report(monkeypatch):
    s3 = build_group_scheme(groups.symmetric(3))
    for _ in range(2):
        with pytest.raises(ValidationError, match="commut"):
            decompose(_copy(s3))
        assert verify_axioms(s3)._spectrum is None

    s = build_johnson(5, 2)

    def refuse(*args):
        raise CertificationError("refused once")

    monkeypatch.setattr(spectral, "_certify_characters", refuse)
    with pytest.raises(CertificationError, match="refused once"):
        decompose(s)
    assert verify_axioms(s)._spectrum is None
    monkeypatch.undo()
    assert decompose(_copy(s)).multiplicities == (1, 4, 5)


def test_equal_bytes_with_another_d_miss(checks):
    s = build_johnson(4, 2)
    wider = _copy(s, d=3)  # class 3 declared but absent: axiom 2
    report, other = verify_axioms(s), verify_axioms(wider)
    assert schemes._content_key(s)[2] == schemes._content_key(wider)[2]
    assert len(checks) == 2 and other is not report
    assert report.passed and other.violations == ((2, (3,)),)


def test_equal_bytes_with_another_n_miss(checks):
    """257^2 u4 entries and 514^2 u1 entries are the same 264,196 bytes."""
    small = AssociationScheme(n=257, d=2 ** 16, relation=1 - np.eye(257, dtype=np.int64))
    relation = np.frombuffer(small.relation.astype("<u4").tobytes(), dtype="<u1")
    large = AssociationScheme(n=514, d=1, relation=relation.reshape(514, 514))
    keys = schemes._content_key(small), schemes._content_key(large)
    assert keys[0][2] == keys[1][2] and keys[0] != keys[1]
    first, second = verify_axioms(small), verify_axioms(large)
    assert len(checks) == 2 and first is not second
    assert first.violations[0] == (2, (2,))
    assert second.violations[0][0] == 1


def test_the_key_width_is_the_narrowest_that_holds_d():
    for n, d, width in [(17, 255, 1), (17, 256, 2), (257, 2 ** 16 - 1, 2), (257, 2 ** 16, 4)]:
        relation = np.arange(n * n).reshape(n, n) % 256
        key = schemes._content_key(AssociationScheme(n=n, d=d, relation=relation))
        assert key[:2] == (n, d) and len(key[2]) == width * n * n


def test_an_oversized_relation_forms_no_key(monkeypatch, checks):
    s = build_johnson(4, 2)
    monkeypatch.setattr(schemes, "_REPORT_STORE_BYTES", s.n * s.n - 1)
    assert schemes._content_key(s) is None
    verify_axioms(s)
    verify_axioms(_copy(s))
    assert len(checks) == 2 and _entries() == []


def test_an_oversized_report_is_not_stored(monkeypatch, checks):
    s = build_johnson(4, 2)
    p_bytes = 27 * 8
    monkeypatch.setattr(schemes, "_REPORT_STORE_BYTES", s.n * s.n + p_bytes - 1)
    assert schemes._content_key(s) is not None
    assert verify_axioms(s).p.nbytes == p_bytes
    verify_axioms(_copy(s))
    assert len(checks) == 2 and _entries() == []


def test_eviction_drops_the_least_recently_used(monkeypatch, checks):
    a, b, c = (build_group_scheme(groups.cyclic(n)) for n in (3, 4, 5))
    sizes = [s.n * s.n + s.n ** 3 * 8 for s in (a, b, c)]
    # room for a and c, or for b and c, but not for all three
    monkeypatch.setattr(schemes, "_REPORT_STORE_BYTES", sizes[1] + sizes[2])
    verify_axioms(a)
    verify_axioms(b)
    assert _entries() == [schemes._content_key(a), schemes._content_key(b)]
    verify_axioms(_copy(a))  # a hit makes a the most recently used
    assert _entries() == [schemes._content_key(b), schemes._content_key(a)]
    verify_axioms(c)
    assert _entries() == [schemes._content_key(a), schemes._content_key(c)]
    assert schemes._REPORTS._bytes == sizes[0] + sizes[2]
    assert len(checks) == 3
    verify_axioms(_copy(b))
    assert len(checks) == 4
    assert _entries() == [schemes._content_key(c), schemes._content_key(b)]


def test_concurrent_callers_under_a_tiny_budget(monkeypatch):
    """More threads than cores, switching often, with room for one small
    report at a time: every lookup, insert and eviction races."""
    made = [build_group_scheme(groups.cyclic(n)) for n in (2, 3, 4, 5, 6)]
    expected = [_CHECK(s) for s in made]
    monkeypatch.setattr(schemes, "_REPORT_STORE_BYTES", 6 * 6 + 6 ** 3 * 8)
    errors = []

    def work(offset):
        try:
            for round_ in range(60):
                k = (offset + round_) % len(made)
                report = verify_axioms(_copy(made[k]))
                _assert_same_report(report, expected[k])
        except Exception as exc:  # reported below, with the thread's traceback
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    store = schemes._REPORTS
    assert store._bytes == sum(size for _, size in store._entries.values())
    assert store._bytes <= schemes._REPORT_STORE_BYTES
