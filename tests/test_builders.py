"""The incidence-product and gather builders against the pair loops they replace.

`_grassmann_oracle` runs the RREF intersection dimension on every pair of
subspaces, `_johnson_oracle` intersects frozensets pair by pair and
`_cayley_oracle` walks the Cayley table y, z by y, z, and `_orbit_oracle`
grows each orbital by a breadth-first search over pairs.  The builders in
`schemes` must reproduce their relation matrices exactly: same vertex
order, held at the scheme's packed width.
"""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from schemewalk import (
    CertificationError,
    ValidationError,
    build_conjugacy_scheme,
    build_grassmann,
    build_group_scheme,
    build_johnson,
    build_orbit_scheme,
    groups,
)
from schemewalk import galois
from schemewalk.schemes import (
    DEFAULT_VERTEX_CAP,
    _class_order_with_identity_first,
    _packed_dtype,
)
from tests.gf_reference import add, enumerate_subspaces, intersection_dim, inv, mul


def _grassmann_oracle(q, v, d):
    field = galois.GF(q)
    bases = enumerate_subspaces(q, v, d)
    n = len(bases)
    rel = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(a + 1, n):
            rel[a, b] = rel[b, a] = d - intersection_dim(field, bases[a], bases[b])
    return rel


def _johnson_oracle(v, k):
    subsets = [frozenset(c) for c in itertools.combinations(range(v), k)]
    return np.array([[k - len(a & b) for b in subsets] for a in subsets], dtype=np.int64)


def _cayley_oracle(g, class_of):
    n = g.order
    return np.array([[class_of[g.table[y, g.inverse[z]]] for z in range(n)]
                     for y in range(n)], dtype=np.int64)


def _orbit_oracle(gens, n):
    """Point orbits by search (ValidationError if there are several), then
    each orbital by a search from its first pair in row-major order."""
    orbit_of = [None] * n
    partition = []
    for x in range(n):
        if orbit_of[x] is None:
            block, frontier = [], [x]
            orbit_of[x] = len(partition)
            while frontier:
                y = frontier.pop()
                block.append(y)
                for p in gens:
                    if orbit_of[p[y]] is None:
                        orbit_of[p[y]] = len(partition)
                        frontier.append(p[y])
            partition.append(sorted(block))
    if len(partition) > 1:
        raise ValidationError(f"action is not transitive; point orbits: {partition}")
    rel = np.full((n, n), -1, dtype=np.int64)
    count = 0
    for x0, y0 in itertools.product(range(n), repeat=2):
        if rel[x0, y0] < 0:
            rel[x0, y0] = count
            members = [(x0, y0)]
            while members:
                x, y = members.pop()
                for p in gens:
                    if rel[p[x], p[y]] < 0:
                        rel[p[x], p[y]] = count
                        members.append((p[x], p[y]))
            count += 1
    return rel


def _dihedral_action(n):
    return [[(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]]


def _conjugacy_class_of(g):
    class_of = [None] * g.order
    for idx, cl in enumerate(g.conjugacy_classes()):
        for x in cl:
            class_of[x] = idx
    return class_of


def _assert_same(built, expected):
    """Same dtype, same entries, and so the same bytes as scheme files carry."""
    assert built.relation.dtype == _packed_dtype(built.d)
    assert np.array_equal(built.relation, expected)
    assert built.relation.tobytes() == expected.astype(_packed_dtype(built.d)).tobytes()


# small (v, d) on every supported field, then the benchmark's spectra and catalog
# mixes: J_2(5,2), J_3(4,2), J_4(4,2), J_2(4,2), J_3(3,1); J(9,4), J(10,3),
# J(10,4), J(11,3), J(8,3); and the conjugacy scheme of S5
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


@pytest.mark.parametrize("build, kind", [(build_group_scheme, "group scheme"),
                                         (build_conjugacy_scheme, "conjugacy scheme")])
@pytest.mark.parametrize("g, type_name", [(5, "int"), ("z4", "str"), ([[0, 1], [1, 0]], "list")])
def test_group_builders_refuse_what_is_not_a_group(build, kind, g, type_name):
    with pytest.raises(ValidationError, match=f"^{kind} needs a FiniteGroup, got {type_name}$"):
        build(g)


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
                vec = [add(field, x, mul(field, coef, y)) for x, y in zip(vec, b_row)]
            if any(vec):
                lead = next(x for x in vec if x)
                vec = [mul(field, inv(field, lead), x) for x in vec]
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


@pytest.mark.parametrize("build, args, n", [(build_johnson, (20, 4), 4845),
                                             (build_grassmann, (8, 4, 2), 4745)],
                         ids=["J(20,4)", "J_8(4,2)"])
def test_builders_near_the_vertex_cap_stay_within_its_budget(build, args, n):
    # DEFAULT_VERTEX_CAP is sized so that an int64 n x n table takes 200 MB
    tracemalloc.start()
    try:
        s = build(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.n == n and s.relation.dtype == np.uint8
    assert peak < 200 * 10 ** 6


@pytest.mark.parametrize("n", [*range(1, 13), 31, 64, 97, 200])
def test_orbit_schemes_of_cycles_match_the_pair_search(n):
    rotation = [[(i + 1) % n for i in range(n)]]
    _assert_same(build_orbit_scheme(rotation, n), _orbit_oracle(rotation, n))


@pytest.mark.parametrize("n", [*range(1, 13), 25, 64, 100])
def test_orbit_schemes_of_dihedral_actions_match_the_pair_search(n):
    _assert_same(build_orbit_scheme(_dihedral_action(n), n),
                 _orbit_oracle(_dihedral_action(n), n))


@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
@settings(max_examples=100, deadline=None)
def test_orbit_schemes_of_random_actions_match_the_pair_search(gens):
    n = len(gens[0])
    try:
        expected = _orbit_oracle(gens, n)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            build_orbit_scheme(gens, n)
        assert str(info.value) == str(exc)
    else:
        _assert_same(build_orbit_scheme(gens, n), expected)


@pytest.mark.parametrize("gens", [[[0, 1, 2.0]], [[0, 1], [1]], [[0, 1, 3]], [[0, 0, 1]], [], 5])
def test_orbit_scheme_refuses_malformed_generators(gens):
    with pytest.raises(ValidationError):
        build_orbit_scheme(gens, 3)


def test_orbit_scheme_refuses_more_points_than_the_cap_before_allocating():
    n = DEFAULT_VERTEX_CAP + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="above the cap"):
            build_orbit_scheme([list(range(n))], n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n // 100


def test_orbit_scheme_refuses_a_large_orbital_pass_before_allocating():
    n = 1500
    rotation, reflection = _dihedral_action(n)
    gens = [rotation, reflection, rotation, list(rotation)]  # 2 distinct generators
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError,
                           match=r"1500 points with 2 distinct generators .* 25000000"):
            build_orbit_scheme(gens, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("k", [1, 2, 3])
def test_orbit_scheme_peak_memory_is_linear_in_the_generators(k):
    n = 150
    gens = (_dihedral_action(n) + [[(7 * i) % n for i in range(n)]])[:k]
    tracemalloc.start()
    try:
        s = build_orbit_scheme(gens, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.n == n
    # pair labels, the k edge lists and their gathers: 6k + 1 words per pair measured
    assert peak < (6 * k + 6) * 8 * n * n


# Every builder, the axioms, the file round trip, the spectral chain and the
# CLI's S5 build, in an interpreter of their own: plain `np.unique` imports
# numpy.ma on first use, a once-per-process cost, and none of them may call it.
_SERVING_PATHS = """
import json, sys
from pathlib import Path
import numpy as np
from schemewalk import (
    ValidationError, build_conjugacy_scheme, build_grassmann, build_group_scheme,
    build_johnson, build_orbit_scheme, decompose, groups, hypergroup_from,
    intersection_numbers, krein_parameters, serialize, verify_axioms, walk,
)
from schemewalk.cli import run

gs = [groups.builtin(name) for name in ("z6", "s4", "s5", "d5", "q8")]
n = 8
rotate, reflect = [(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]
built = [build_group_scheme(g) for g in gs[:2]] + [build_conjugacy_scheme(g) for g in gs]
built += [build_johnson(6, 3), build_grassmann(2, 4, 2),
          build_orbit_scheme([rotate, reflect, rotate], n)]
try:
    build_orbit_scheme([[1, 0, 2, 3]], 4)
except ValidationError:
    pass
for s in built:
    assert verify_axioms(s).passed
    s = serialize.loads(json.dumps(serialize.to_jsonable("scheme", s)), "scheme")
    intersection_numbers(s)
    try:
        dec = decompose(s)
    except ValidationError:  # the non-commutative group schemes
        continue
    start = np.zeros(s.d + 1)
    start[0] = 1.0
    walk(hypergroup_from(dec, krein_parameters(dec)), 1, start, 3)
out = Path(sys.argv[1])
assert run(["scheme", "build", "--family", "conjugacy", "--group", "s5", "--out", str(out)]) == 0
assert run(["scheme", "verify", str(out)]) == 0
print("numpy.ma" in sys.modules)
"""


def test_no_builder_nor_the_chain_imports_numpy_ma(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", _SERVING_PATHS, str(tmp_path / "s5c.json")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
