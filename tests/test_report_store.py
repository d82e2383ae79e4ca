"""The store of axiom reports kept per relation content, and the algebra
records kept per certified p.

A scheme whose content (n, d, relation) an earlier scheme had gets that
scheme's report with no check run again.  A scheme whose p an earlier
one had, a relabelled copy included, is checked, but gets that scheme's
algebra record, and with it the spectrum, the Krein tensor and the
hypergroup, with no `eigh`, no Krein GEMM and no hypergroup
certificate run again.  Every served value must equal a fresh
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
    KreinTensor,
    ValidationError,
    build_group_scheme,
    build_johnson,
    decompose,
    groups,
    hypergroup,
    hypergroup_from,
    krein_parameters,
    parameters,
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


def _charge(s, commutative=True):
    """The record charge of a scheme's p: p (int64), and for a commutative
    scheme q and the convolution (float64) and P and Q (complex128)."""
    size = s.d + 1
    return 8 * size ** 3 + (16 * size ** 3 + 32 * size ** 2 if commutative else 0)


def _cost(s):
    """What a scheme's entry and its new record take from the store."""
    return len(schemes._content_key(s)[2]) + _charge(s)


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
    # schemes carry no labels; a file that still names its classes loads
    # to the scheme without them, and gets the report of the same content
    s = build_johnson(4, 2)
    text = json.dumps({**serialize.to_jsonable("scheme", s), "labels": ["I", "A", "B"]})
    labelled = serialize.loads(text, "scheme")
    assert labelled == s and not hasattr(labelled, "labels")
    assert verify_axioms(labelled) is verify_axioms(s)
    assert len(checks) == 1


def test_refusals_are_not_kept_on_the_report(monkeypatch):
    s3 = build_group_scheme(groups.symmetric(3))
    for _ in range(2):
        with pytest.raises(ValidationError, match="commut"):
            decompose(_copy(s3))
        assert verify_axioms(s3)._algebra.spectrum is None

    s = build_johnson(5, 2)

    def refuse(*args):
        raise CertificationError("refused once")

    monkeypatch.setattr(spectral, "_certify_characters", refuse)
    with pytest.raises(CertificationError, match="refused once"):
        decompose(s)
    assert verify_axioms(s)._algebra.spectrum is None
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
    cost = _cost(s)
    monkeypatch.setattr(schemes, "_REPORT_STORE_BYTES", cost - 1)
    assert schemes._content_key(s) is not None
    assert verify_axioms(s)._algebra.nbytes == _charge(s) == 936
    verify_axioms(_copy(s))
    assert len(checks) == 2 and _entries() == []
    monkeypatch.setattr(schemes, "_REPORT_STORE_BYTES", cost)
    verify_axioms(_copy(s))
    assert len(checks) == 3 and _entries() == [schemes._content_key(s)]
    assert schemes._REPORTS._bytes == cost


def test_eviction_drops_the_least_recently_used(monkeypatch, checks):
    a, b, c = (build_group_scheme(groups.cyclic(n)) for n in (3, 4, 5))
    sizes = [_cost(s) for s in (a, b, c)]
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
    """More threads than cores, switching often, with room for the largest
    report alone: every lookup, insert and eviction races."""
    made = [build_group_scheme(groups.cyclic(n)) for n in (2, 3, 4, 5, 6)]
    expected = [_CHECK(s) for s in made]
    monkeypatch.setattr(schemes, "_REPORT_STORE_BYTES", _cost(made[-1]))
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
    assert _entries()
    _assert_consistent(schemes._REPORTS)


def _held_bytes(record):
    """Bytes of the arrays a record holds: p and what `derive` kept."""
    arrays = [record.p]
    if record.spectrum is not None:
        arrays += record.spectrum[1:]
    if record.krein is not None:
        arrays.append(record.krein.q)
    if record.hypergroup is not None:
        arrays.append(record.hypergroup.convolution)
    return sum(a.nbytes for a in arrays)


def _assert_consistent(store):
    """The store's byte count is its entries' key bytes plus each held
    record's charge once, each record counts the entries holding it, and
    no record holds more than its charge."""
    holders = {}
    for report, _ in store._entries.values():
        if report._algebra is not None:
            assert store._algebras[report._algebra] is report._algebra
            assert report.p is report._algebra.p
            holders[id(report._algebra)] = holders.get(id(report._algebra), 0) + 1
    assert {id(r): r.holders for r in store._algebras} == holders
    assert store._bytes == (sum(size for _, size in store._entries.values())
                            + sum(r.nbytes for r in store._algebras))
    assert store._bytes <= schemes._REPORT_STORE_BYTES
    assert all(_held_bytes(r) <= r.nbytes for r in store._algebras)


# ------------------------------------------------------- algebra records


def _chain(s):
    dec = decompose(s)
    q = krein_parameters(dec)
    return dec, q, hypergroup_from(dec, q)


def _arrays(dec, q, h):
    return [dec.eigenmatrix_P, dec.eigenmatrix_Q, q.q, h.convolution]


@pytest.fixture
def stages(monkeypatch):
    """Count the eigensolves, Krein GEMMs and hypergroup certificates that run."""
    calls = {"eigh": 0, "krein": 0, "hypergroup": 0}

    def counted(module, name, key):
        run = getattr(module, name)

        def spy(*args):
            calls[key] += 1
            return run(*args)

        monkeypatch.setattr(module, name, spy)

    counted(np.linalg, "eigh", "eigh")
    counted(parameters, "_krein", "krein")
    counted(hypergroup, "_hypergroup", "hypergroup")
    return calls


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_relabelled_copies_share_one_record_equal_to_a_fresh_computation(name):
    """On every commutative built-in and three seeded relabellings: every
    copy gets the same record, and m, P, Q, q and the convolution it
    serves are byte-identical to a fresh computation on an empty store."""
    rng = np.random.default_rng(sum(map(ord, name)))
    base = _builtin_constructors()[name]()
    copies = [base, *_relabellings(base, rng)]
    served = [_chain(s) for s in copies]
    record = verify_axioms(base)._algebra
    assert list(schemes._REPORTS._algebras) == [record]
    for s, (dec, q, h) in zip(copies, served):
        assert verify_axioms(s)._algebra is record and verify_axioms(s).p is record.p
        assert dec.scheme is s and dec.multiplicities is record.spectrum[0]
        assert all(a is b for a, b in zip(_arrays(dec, q, h), _arrays(*served[0])))
        assert all(not a.flags.writeable for a in _arrays(dec, q, h))
        schemes._REPORTS.clear()
        fresh = _chain(_copy(s))
        assert not any(a is b for a, b in zip(_arrays(*fresh), _arrays(dec, q, h)))
        assert dec.multiplicities == fresh[0].multiplicities == h.multiplicities
        for a, b in zip(_arrays(dec, q, h), _arrays(*fresh)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_relabelled_copy_is_checked_but_not_decomposed_again(checks, stages):
    s = build_group_scheme(groups.cyclic(12))
    first = _chain(s)
    assert len(checks) == 1 and stages == {"eigh": 1, "krein": 1, "hypergroup": 1}
    perm = np.random.default_rng(12).permutation(s.n)
    again = _chain(_copy(s, s.relation[np.ix_(perm, perm)]))
    assert len(checks) == 2 and stages == {"eigh": 1, "krein": 1, "hypergroup": 1}
    assert all(a is b for a, b in zip(_arrays(*again), _arrays(*first)))
    assert again[0] is not first[0] and again[1] is first[1] and again[2] is first[2]


def test_each_call_returns_the_kept_object():
    """The Krein tensor and the hypergroup are served as the kept objects;
    each `decompose` call is a new decomposition over the kept arrays."""
    s = build_johnson(6, 3)
    one, two = _chain(s), _chain(s)
    assert one[0] is not two[0] and one[0] != two[0]
    assert one[1] is two[1] and one[2] is two[2]
    assert all(a is b for a, b in zip(_arrays(*one), _arrays(*two)))
    assert two[1].d == 3 and two[2].size == 4


def test_the_record_counts_each_array_once():
    s = build_group_scheme(groups.cyclic(8))
    rng = np.random.default_rng(8)
    copies = [s, *_relabellings(s, rng)]
    for c in copies:
        verify_axioms(c)
    store = schemes._REPORTS
    record = verify_axioms(s)._algebra
    keys = sum(len(schemes._content_key(c)[2]) for c in copies)
    assert record.holders == 4 and record.nbytes == _charge(s)
    assert store._bytes == keys + record.nbytes
    dec, q, h = _chain(copies[2])
    assert store._bytes == keys + record.nbytes
    assert sum(a.nbytes for a in [record.p, *_arrays(dec, q, h)]) == record.nbytes
    _assert_consistent(store)


def test_a_non_commutative_record_is_charged_its_p_alone():
    s = build_group_scheme(groups.symmetric(3))
    record = verify_axioms(s)._algebra
    assert record.nbytes == record.p.nbytes == _charge(s, commutative=False)
    assert schemes._REPORTS._bytes == s.n * s.n + record.nbytes


def test_the_chain_moves_no_byte_of_the_store():
    s = build_johnson(6, 3)
    verify_axioms(s)
    before = schemes._REPORTS._bytes
    dec = decompose(s)
    assert schemes._REPORTS._bytes == before
    q = krein_parameters(dec)
    assert schemes._REPORTS._bytes == before
    hypergroup_from(dec, q)
    assert schemes._REPORTS._bytes == before == _cost(s)
    _assert_consistent(schemes._REPORTS)


def test_an_unheld_record_computes_each_value_once(monkeypatch, stages):
    s = build_johnson(6, 3)
    monkeypatch.setattr(schemes, "_REPORT_STORE_BYTES", _cost(s) - 1)
    one, two = _chain(s), _chain(s)
    record = verify_axioms(s)._algebra
    assert _entries() == [] and schemes._REPORTS._bytes == 0
    assert stages == {"eigh": 1, "krein": 1, "hypergroup": 1}
    assert all(a is b for a, b in zip(_arrays(*one), _arrays(*two)))
    assert record.hypergroup.convolution is two[2].convolution


def test_the_record_leaves_with_its_last_holder(monkeypatch):
    s, other = build_johnson(4, 2), build_johnson(5, 2)
    moved = _copy(s, s.relation[np.ix_([1, 0, 2, 3, 4, 5], [1, 0, 2, 3, 4, 5])])
    assert not np.array_equal(moved.relation, s.relation)
    sizes = [_cost(s), 36, _cost(other)]
    # room for s with its relabelled copy, or for other alone
    monkeypatch.setattr(schemes, "_REPORT_STORE_BYTES", sizes[2])
    record = verify_axioms(s)._algebra
    verify_axioms(moved)
    assert record.holders == 2 and list(schemes._REPORTS._algebras) == [record]
    verify_axioms(other)  # evicts both holders, then the record
    assert list(schemes._REPORTS._algebras) == [verify_axioms(other)._algebra]
    assert schemes._REPORTS._bytes == sizes[2]
    # a record out of the store keeps serving its reports, uncounted
    dec = decompose(moved)
    assert record.spectrum[1] is dec.eigenmatrix_P and schemes._REPORTS._bytes == sizes[2]
    fresh = verify_axioms(_copy(s))._algebra
    assert fresh is not record and fresh.spectrum is None


def test_clear_drops_every_record():
    s = build_johnson(5, 2)
    dec, q, _ = _chain(s)
    schemes._REPORTS.clear()
    assert schemes._REPORTS._algebras == {} and schemes._REPORTS._bytes == 0
    again = _chain(_copy(s))
    assert again[0].eigenmatrix_P is not dec.eigenmatrix_P and again[1].q is not q.q


def test_a_hand_built_krein_tensor_equal_to_the_record_is_computed_fresh(stages):
    s = build_johnson(6, 3)
    dec, q, h = _chain(s)
    twin = KreinTensor(q.q.copy())
    assert np.array_equal(twin.q, q.q) and twin.q is not q.q
    before = stages["hypergroup"]
    fresh = hypergroup_from(dec, twin)
    assert stages["hypergroup"] == before + 1
    assert fresh.convolution is not h.convolution
    assert fresh.convolution.tobytes() == h.convolution.tobytes()


def test_krein_and_hypergroup_refusals_are_not_kept(monkeypatch):
    s = build_johnson(5, 2)
    dec = decompose(s)
    record = verify_axioms(s)._algebra
    monkeypatch.setattr(parameters, "KREIN_TOLERANCE", -1.0)
    for _ in range(2):
        with pytest.raises(CertificationError, match="imaginary residue"):
            krein_parameters(decompose(_copy(s)))
        assert record.krein is None
    monkeypatch.undo()
    q = krein_parameters(dec)
    assert record.krein.q is q.q
    monkeypatch.setattr(hypergroup, "_SLICE_SUM_TOL", -1.0)
    for _ in range(2):
        with pytest.raises(CertificationError, match="total mass"):
            hypergroup_from(dec, q)
        assert record.hypergroup is None
    monkeypatch.undo()
    assert hypergroup_from(dec, q).convolution is record.hypergroup.convolution


def test_non_commutative_refusals_are_raised_on_each_relabelled_copy():
    s = build_group_scheme(groups.symmetric(3))
    rng = np.random.default_rng(3)
    for t in [s, *_relabellings(s, rng)]:
        with pytest.raises(ValidationError, match="not commutative"):
            decompose(t)
    record = verify_axioms(s)._algebra
    assert list(schemes._REPORTS._algebras) == [record] and record.spectrum is None


def test_four_threads_end_with_one_record():
    """Relabelled copies of Z_16 decomposed by more threads than cores,
    switching every microsecond: one record, each value kept once, and
    every result wraps the kept arrays."""
    base = build_group_scheme(groups.cyclic(16))
    rng = np.random.default_rng(16)
    copies = [base, *_relabellings(base, rng, count=7)]
    results, errors = [], []

    def work(offset):
        try:
            for round_ in range(6):
                results.append(_chain(_copy(copies[(offset + round_) % len(copies)])))
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
    (record,) = schemes._REPORTS._algebras
    kept = [record.spectrum[1], record.spectrum[2], record.krein.q, record.hypergroup.convolution]
    assert len(results) == 24
    for dec, q, h in results:
        assert all(a is b for a, b in zip(_arrays(dec, q, h), kept))
    _assert_consistent(schemes._REPORTS)
