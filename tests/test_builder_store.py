"""The store's builder entries and large records.

The table-driven builders keep what they return; a scheme builder hands
each caller a new scheme over the kept relation matrix.  Every kept
object must equal what a build on an empty store gives, and every
refusal must be raised again, with the same message, and leave nothing
behind.  `conftest.py` empties the store before every test.
"""

import gc
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from schemewalk import (
    FusionSystem,
    ValidationError,
    _store,
    anyons,
    build_group_scheme,
    build_johnson,
    build_orbit_scheme,
    builtin_fusion_system,
    cyclic_fusion_system,
    decompose,
    groups,
    hypergroup_from,
    krein_parameters,
    schemes,
    serialize,
    verify_axioms,
)
from schemewalk.groups import FiniteGroup
from schemewalk.schemes import AssociationScheme
from tests.test_report_store import _assert_consistent, _relabellings
from tests.test_store_traffic import gen, pipeline, spans

GROUP_NAMES = ([f"z{n}" for n in range(1, 13)] + [f"s{n}" for n in range(1, 6)]
               + [f"d{n}" for n in range(1, 9)] + ["q8"])
FUSION = [lambda: builtin_fusion_system("ising"), lambda: builtin_fusion_system("fibonacci")]
FUSION += [lambda k=k: cyclic_fusion_system(k) for k in range(1, 9)]
SLOTS = [(family, params) for family, params in gen.SPECTRA_SLOTS]
SLOTS += [(slot.payload["family"], slot.payload["params"])
          for slot in (gen._named(*named) for named in gen.CATALOG_NAMED)]


def _fresh(make):
    """What `make` gives on an empty store, leaving the store empty."""
    _store.STORE.clear()
    try:
        return make()
    finally:
        _store.STORE.clear()


def _outcome(make):
    """(result, None) or (None, the refusal's type and message)."""
    try:
        return make(), None
    except ValidationError as exc:
        return None, (type(exc), str(exc))


def _same_group(a, b):
    assert a.table.tobytes() == b.table.tobytes() and a.table.dtype == b.table.dtype
    assert (a.identity, a.inverse) == (b.identity, b.inverse)
    assert not a.table.flags.writeable


def _same_fusion(a, b):
    assert (a.labels, a.dual, a.twist) == (b.labels, b.dual, b.twist)
    assert a.N.tobytes() == b.N.tobytes() and a.dims.tobytes() == b.dims.tobytes()
    assert a.F.keys() == b.F.keys() and all(a.F[k].tobytes() == b.F[k].tobytes() for k in a.F)
    assert dict(a.R) == dict(b.R)


def _same_scheme(a, b):
    assert (a.n, a.d) == (b.n, b.d) and a.relation.dtype == b.relation.dtype
    assert a.relation.tobytes() == b.relation.tobytes()


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_every_builtin_group_is_kept_and_equals_a_fresh_build(name):
    fresh = _fresh(lambda: groups.builtin(name))
    kept = groups.builtin(name)
    assert groups.builtin(name) is kept
    _same_group(kept, fresh)
    _same_group(FiniteGroup(fresh.table.tolist()), fresh)


@pytest.mark.parametrize("make", FUSION)
def test_every_builtin_fusion_system_is_kept_and_equals_a_fresh_build(make):
    fresh = _fresh(make)
    kept = make()
    assert make() is kept and kept is not fresh
    _same_fusion(kept, fresh)
    loaded = serialize.from_jsonable("fusion-system", serialize.to_jsonable("fusion-system", kept))
    assert loaded is not kept
    _same_fusion(loaded, fresh)


@pytest.mark.parametrize("family, params", SLOTS, ids=[f"{f}{p}" for f, p in SLOTS])
def test_every_benchmark_slot_is_kept_and_equals_a_fresh_build(family, params):
    tracer = spans.NullTracer()
    fresh = _fresh(lambda: pipeline._build(tracer, family, params))
    kept = pipeline._build(tracer, family, params)
    again = pipeline._build(tracer, family, params)
    assert again is not kept and again.relation is kept.relation
    _same_scheme(kept, fresh)
    # each caller's scheme keeps its own report; the report store serves
    # the repeat, so it runs no check
    report = verify_axioms(kept)
    assert again._axioms is None and verify_axioms(again) is report
    _assert_consistent(_store.STORE)


def test_a_builder_hit_runs_no_build(monkeypatch):
    calls = []
    for module, name in [(schemes, "_support_components"), (schemes.galois, "enumerate_subspaces"),
                         (groups, "_generators"), (anyons, "_dims_from_tensor")]:
        run = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, run=run, name=name: calls.append(name)
                            or run(*a))
    makers = [lambda: schemes.build_grassmann(2, 4, 2),
              lambda: build_group_scheme(groups.cyclic(6)),
              lambda: build_orbit_scheme([[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]], 5),
              lambda: builtin_fusion_system("ising")]
    first = [make() for make in makers]
    assert sorted(calls) == ["_dims_from_tensor", "_generators", "_support_components",
                             "enumerate_subspaces"]
    assert all(make() == done for make, done in zip(makers, first))
    assert len(calls) == 4
    # the same generators in another order and repeated are the same key
    again = build_orbit_scheme([[0, 4, 3, 2, 1], [1, 2, 3, 4, 0], [0, 4, 3, 2, 1]], 5)
    assert again.relation is first[2].relation


def test_a_bool_or_a_float_never_meets_an_int_entry():
    build_johnson(4, 1)
    for args in [(4, True), (4.0, 1)]:
        with pytest.raises(ValidationError, match="must be an integer"):
            build_johnson(*args)
    assert build_johnson(np.int64(4), 1) == build_johnson(4, 1)


def test_keyword_calls_meet_the_positional_entry():
    assert build_johnson(v=9, k=4).relation is build_johnson(9, k=4).relation \
        is build_johnson(9, 4).relation
    assert groups.cyclic(n=5) is groups.cyclic(5)
    assert cyclic_fusion_system(order=3) is cyclic_fusion_system(3)
    assert schemes.build_grassmann(q=2, v=4, d=2) == schemes.build_grassmann(2, 4, 2)
    with pytest.raises(TypeError, match="unexpected keyword argument 'x'"):
        groups.cyclic(n=5, x=1)


@pytest.mark.parametrize("make", [lambda: groups.cyclic([3]), lambda: groups.cyclic(np.array(3)),
                                  lambda: build_johnson(v=[9], k=4),
                                  lambda: cyclic_fusion_system({"order": 3})])
def test_an_unhashable_argument_is_refused_as_without_the_store(make):
    """Such an argument forms no key, so the builder's own check refuses it."""
    for _ in range(2):
        with pytest.raises(ValidationError, match="must be an integer"):
            make()
    assert _store.STORE._entries == {}


def _relabelled_table(g, perm):
    """The Cayley table of g with element x renamed perm[x]."""
    inv = np.argsort(perm)
    return perm[g.table[np.ix_(inv, inv)]]


def _corrupted_tables(g, rng):
    """A table whose rows are no permutations, and a Latin square that
    fails associativity or the inverse law (two columns swapped)."""
    t = g.table.copy()
    x, y = (int(v) for v in rng.choice(g.order, size=2, replace=False))
    t[x, y] = t[x, (y + 1) % g.order]
    swapped = g.table.copy()
    swapped[:, [1, 2]] = swapped[:, [2, 1]]
    return [t, swapped]


@pytest.mark.parametrize("name", ["z6", "s3", "d4", "q8", "z12", "s4"])
def test_relabelled_and_corrupted_tables_match_an_empty_store(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    g = groups.builtin(name)
    perm = np.concatenate(([0], 1 + rng.permutation(g.order - 1)))
    tables = [_relabelled_table(g, perm), *_corrupted_tables(g, rng)]
    for table in tables:
        fresh = _fresh(lambda: _outcome(lambda: FiniteGroup(table)))
        groups.builtin(name)
        first, second = (_outcome(lambda: FiniteGroup(table.tolist())) for _ in range(2))
        assert first[1] == second[1] == fresh[1]
        assert (fresh[1] is None) == (table is tables[0])
        if fresh[1] is None:
            _same_group(first[0], fresh[0])
            assert second[0] is not first[0]
            assert build_group_scheme(second[0]).relation is build_group_scheme(first[0]).relation
            _same_scheme(build_group_scheme(first[0]), _fresh(lambda: build_group_scheme(fresh[0])))


def test_relabelled_and_corrupted_fusion_rules_match_an_empty_store():
    ising = builtin_fusion_system("ising")
    swap = [0, 2, 1]
    relabelled = ising.N[np.ix_(swap, swap, swap)]
    psi_psi_is_psi = ising.N.copy()
    psi_psi_is_psi[2, 2] = [0, 0, 1]
    broken = np.array([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 1, 0], [0, 0, 1]],
                       [[0, 0, 1], [0, 0, 1], [1, 0, 0]]])
    lopsided = ising.N.copy()
    lopsided[1, 2, 1] = 0
    for n, refused in ((relabelled, ""), (psi_psi_is_psi, "not associative at (a a b"),
                       (broken, "not associative"), (lopsided, "commutative")):
        fresh = _fresh(lambda: _outcome(lambda: FusionSystem(("1", "a", "b"), n)))
        first, second = (_outcome(lambda: FusionSystem(("1", "a", "b"), n.tolist()))
                         for _ in range(2))
        assert first[1] == second[1] == fresh[1]
        assert (fresh[1] is None) == (not refused) and refused in str(fresh[1])
        if fresh[1] is None:
            assert first[0].N.tobytes() == second[0].N.tobytes() == fresh[0].N.tobytes()
            assert first[0].dims.tobytes() == fresh[0].dims.tobytes()
            assert first[0].dual == fresh[0].dual


@pytest.mark.parametrize("make, match", [
    (lambda: build_orbit_scheme([[1, 0, 2, 3]], 4), "not transitive"),
    (lambda: build_johnson(3, 2), "0 < k <= v/2"),
    (lambda: groups.builtin("z0"), "must be an integer >= 1"),
    (lambda: builtin_fusion_system("toric"), "unknown fusion system"),
    (lambda: FiniteGroup([[0, 1], [0, 1]]), "not a permutation"),
    (lambda: FusionSystem(("1", "a"), [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]), "no unique dual"),
])
def test_a_refusal_raised_twice_leaves_the_store_unchanged(make, match):
    build_johnson(5, 2)
    entries, size = list(_store.STORE._entries), _store.STORE._bytes
    for _ in range(2):
        with pytest.raises(ValidationError, match=match):
            make()
        assert list(_store.STORE._entries) == entries and _store.STORE._bytes == size


def test_eight_threads_building_one_key_get_one_object():
    """More threads than cores, switching every microsecond, released
    together on an empty store: every caller gets the kept object, or for
    a scheme a new one over the kept relation matrix."""
    barrier = threading.Barrier(8, timeout=30)
    results, errors = [], []

    def work():
        try:
            barrier.wait()
            results.append((build_johnson(8, 3).relation, groups.dihedral(9),
                            cyclic_fusion_system(7)))
        except Exception as exc:  # reported below, with the thread's traceback
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 8
    for column in zip(*results):
        assert all(obj is column[0] for obj in column)
    _assert_consistent(_store.STORE)


def test_named_builders_stay_resident_under_twice_the_budget_in_one_offs(monkeypatch):
    """Rounds like the catalog's: every named slot is built and verified,
    then relabelled one-off copies of J_4(4,2), 127 KB of key each, are
    checked until their keys have passed twice the budget.  Every named
    builder still hits, and so does every report its scheme keeps."""
    evicted = []
    evict = _store.Store._evict

    def counted(store):
        before = len(store._entries)
        evict(store)
        evicted.append(before - len(store._entries))

    monkeypatch.setattr(_store.Store, "_evict", counted)
    tracer = spans.NullTracer()
    kept = [pipeline._build(tracer, family, params) for family, params in SLOTS]
    reports = [verify_axioms(s) for s in kept]
    base = schemes.build_grassmann(4, 4, 2)
    rng = np.random.default_rng(357)
    one_offs = 0
    while one_offs <= 2 * _store.BUDGET_BYTES:
        again = [pipeline._build(tracer, family, params) for family, params in SLOTS]
        assert all(a.relation is b.relation for a, b in zip(again, kept))
        assert all(verify_axioms(s) is r for s, r in zip(again, reports))
        for copy in _relabellings(base, rng, count=4):
            verify_axioms(copy)
            one_offs += copy.relation.nbytes
    print(f"{sum(evicted)} entries evicted by {one_offs} bytes of one-off keys")
    assert sum(evicted) > 0 and _store.STORE._bytes <= _store.BUDGET_BYTES
    assert all(pipeline._build(tracer, f, p).relation is s.relation
               for (f, p), s in zip(SLOTS, kept))
    _assert_consistent(_store.STORE)


def test_a_kept_scheme_keeps_no_report_the_store_does_not_count():
    """Z_81's p (4.25 MB) is over the budget, so its report is not stored.
    The chain keeps P, Q, q and the convolution on the caller's report
    alone, so they go with the caller's scheme, as without the store."""
    tracemalloc.start()
    try:
        s = build_group_scheme(groups.cyclic(81))
        dec = decompose(s)
        hypergroup_from(dec, krein_parameters(dec))
        assert [key[0] for key in _store.STORE._entries] == ["cyclic", "group scheme"]
        assert not _store.STORE._algebras and _store.STORE._bytes <= _store.BUDGET_BYTES
        _assert_consistent(_store.STORE)
        held = tracemalloc.get_traced_memory()[0]
        again = build_group_scheme(groups.cyclic(81))
        assert again.relation is s.relation and again._axioms is None
        del s, dec, again
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held > 8 * 81 ** 3 and left < _store.BUDGET_BYTES
    _assert_consistent(_store.STORE)


def test_a_kept_schemes_report_leaves_with_its_entry(monkeypatch):
    checks = []
    check = schemes._check_axioms
    monkeypatch.setattr(schemes, "_check_axioms", lambda s: checks.append(s) or check(s))
    s = build_group_scheme(groups.cyclic(8))
    record = verify_axioms(s)._algebra
    assert record.holders == 1
    # least recently used first: the two builders, then the report
    assert [key[0] for key in _store.STORE._entries] == ["cyclic", "group scheme", "axioms"]
    # room for the 4-byte key of a failing report alone
    monkeypatch.setattr(_store, "BUDGET_BYTES", 4)
    failing = AssociationScheme(n=2, d=1, relation=[[0, 1], [0, 0]])
    assert not verify_axioms(failing).passed
    assert [key[0] for key in _store.STORE._entries] == ["axioms"]
    assert not _store.STORE._algebras
    monkeypatch.setattr(_store, "BUDGET_BYTES", 2 ** 22)
    again = build_group_scheme(groups.cyclic(8))
    assert again is not s and len(checks) == 2
    assert verify_axioms(again) is not verify_axioms(s) and len(checks) == 3
    assert verify_axioms(again).p.tobytes() == record.p.tobytes()
    _assert_consistent(_store.STORE)


def test_a_record_too_large_to_keep_its_values_is_stored_charged_p_alone(monkeypatch):
    """Z_60: key and p (1.7 MB) fit in the budget, p with P, Q, q and the
    convolution (5.3 MB) do not.  Two fresh schemes with its relation run
    one check, and the record derives the rest without keeping it."""
    checks = []
    check = schemes._check_axioms
    monkeypatch.setattr(schemes, "_check_axioms", lambda s: checks.append(s) or check(s))
    relation = build_group_scheme(groups.cyclic(60)).relation
    _store.STORE.clear()
    a, b = (AssociationScheme(n=60, d=59, relation=relation) for _ in range(2))
    record = verify_axioms(a)._algebra
    assert verify_axioms(b) is verify_axioms(a) and len(checks) == 1
    assert record.nbytes == record.p.nbytes == 8 * 60 ** 3
    full = _store.Algebra(record.p, True).nbytes
    assert 60 * 60 + 8 * 60 ** 3 <= _store.BUDGET_BYTES < 60 * 60 + full
    assert _store.STORE._bytes == 60 * 60 + record.nbytes <= _store.BUDGET_BYTES
    one, two = decompose(a), decompose(b)
    assert record.spectrum is None and one.eigenmatrix_P is not two.eigenmatrix_P
    assert one.eigenmatrix_P.tobytes() == two.eigenmatrix_P.tobytes()
    _store.STORE.clear()
    assert decompose(AssociationScheme(n=60, d=59, relation=relation)).eigenmatrix_P.tobytes() \
        == one.eigenmatrix_P.tobytes()


def _load_peak(load) -> int:
    tracemalloc.start()
    try:
        load()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unpacking_in_blocks_keeps_a_load_near_two_matrices():
    """J(16,4), n = 1,820, in a b4 file: decoding holds the n^2 / 2
    payload, the n x n matrix and one block of the unpacking, and the
    constructor's copy adds a second matrix once the payload is freed.
    Unpacking the whole matrix at once peaked at 2.5 n^2 for either."""
    s = build_johnson(16, 4)
    data = json.loads(json.dumps(serialize.to_jsonable("scheme", s)))
    assert data["relation"]["dtype"] == "b4"
    square = s.n ** 2
    loaded = serialize.from_jsonable("scheme", data, validate=False)
    assert loaded.relation.tobytes() == s.relation.tobytes()
    decode = _load_peak(lambda: serialize._unpack_relation(data["relation"], s.n))
    load = _load_peak(lambda: serialize.from_jsonable("scheme", data, validate=False))
    assert decode < 1.6 * square and 2 * square <= load < 2.1 * square


@pytest.mark.parametrize("v, k, code", [(800, 1, "b1"), (33, 2, "b2"), (16, 4, "b4")])
def test_a_file_of_many_unpacking_blocks_gives_back_its_bytes(v, k, code):
    s = build_johnson(v, k)
    text = json.dumps(serialize.to_jsonable("scheme", s))
    assert json.loads(text)["relation"]["dtype"] == code
    back = serialize.loads(text, "scheme", validate=False)
    assert back.relation.dtype == s.relation.dtype
    assert back.relation.tobytes() == s.relation.tobytes()
