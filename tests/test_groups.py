import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schemewalk import ValidationError, groups
from schemewalk.cli import run


@pytest.mark.parametrize("n", range(2, 9))
def test_cyclic_orders(n):
    g = groups.cyclic(n)
    assert g.order == n
    assert g.is_abelian()
    assert all(g.mul(i, j) == (i + j) % n for i in range(n) for j in range(n))


def test_symmetric_group_basics():
    s3 = groups.symmetric(3)
    assert s3.order == 6
    assert not s3.is_abelian()
    assert s3.identity == 0
    for x in range(6):
        assert s3.mul(x, s3.inverse[x]) == s3.identity
    s4 = groups.symmetric(4)
    assert s4.order == 24
    assert len(s4.conjugacy_classes()) == 5


def test_dihedral_and_quaternion():
    d4 = groups.dihedral(4)
    assert d4.order == 8
    assert not d4.is_abelian()
    assert len(d4.conjugacy_classes()) == 5

    q8 = groups.quaternion()
    assert q8.order == 8
    assert not q8.is_abelian()
    assert len(q8.conjugacy_classes()) == 5
    # exactly one element of order 2 (the central -1)
    order_two = [x for x in range(8) if x != 0 and q8.mul(x, x) == 0]
    assert len(order_two) == 1


def test_conjugacy_classes_s3():
    s3 = groups.symmetric(3)
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]
    # identity sits in its own class, listed first
    assert s3.conjugacy_classes()[0] == [0]


def test_from_table_validation():
    # not a latin square
    with pytest.raises(ValidationError):
        groups.from_table([[0, 0], [1, 1]])
    # subtraction mod 3: a latin square with no two-sided identity
    with pytest.raises(ValidationError):
        groups.from_table([[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    # order-5 loop with identity and inverses but no associativity
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError, match="associativity"):
        groups.from_table(loop)


def test_from_table_accepts_klein_four():
    table = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    g = groups.from_table(table, name="V4")
    assert g.is_abelian()
    assert g.inverse == (0, 1, 2, 3)
    assert g.name == "V4"


def test_builtin_lookup():
    assert groups.builtin("s4").order == 24
    assert groups.builtin("z5").order == 5
    with pytest.raises(ValidationError):
        groups.builtin("monster")


# --- the loop validator and builders the array-backed group layer replaced ---

def _loop_validate(table):
    """The pair/triple-loop checks `FiniteGroup` ran before Light's test, with
    their messages.  Returns (identity, inverse); associativity is checked on
    every triple, so callers keep to orders <= 64."""
    n = len(table)
    for x, row in enumerate(table):
        if sorted(row) != list(range(n)):
            raise ValidationError(f"row {x} of the Cayley table is not a permutation")
    for y in range(n):
        if sorted(table[x][y] for x in range(n)) != list(range(n)):
            raise ValidationError(f"column {y} of the Cayley table is not a permutation")
    identity = next((e for e in range(n)
                     if all(table[e][x] == x and table[x][e] == x for x in range(n))), None)
    if identity is None:
        raise ValidationError("Cayley table has no identity element")
    inverse = []
    for x in range(n):
        y = next((y for y in range(n)
                  if table[x][y] == identity and table[y][x] == identity), None)
        if y is None:
            raise ValidationError(f"element {x} has no inverse")
        inverse.append(y)
    c = table
    for x, y, z in itertools.product(range(n), repeat=3):
        if c[c[x][y]][z] != c[x][c[y][z]]:
            raise ValidationError(f"associativity fails on triple ({x}, {y}, {z})")
    return identity, tuple(inverse)


def _loop_conjugacy_classes(table, identity, inverse):
    n = len(table)
    seen, classes = set(), []
    for x in range(n):
        if x not in seen:
            orbit = sorted({table[table[g][x]][inverse[g]] for g in range(n)})
            seen.update(orbit)
            classes.append(orbit)
    classes.sort(key=lambda cl: (cl != [identity], cl[0]))
    return classes


def _loop_dihedral_mul(n, a, b):
    ka, ia = divmod(a, n)
    kb, ib = divmod(b, n)
    if kb == 0:
        return ka * n + (ia + ib) % n
    return (ka ^ 1) * n + (ib - ia) % n


def _loop_symmetric_table(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]


LOOP_TABLES = {
    **{f"z{n}": (lambda n=n: [[(x + y) % n for y in range(n)] for x in range(n)])
       for n in (*range(1, 9), 16, 24, 32, 64, 120)},
    **{f"s{n}": (lambda n=n: _loop_symmetric_table(n)) for n in range(1, 6)},
    **{f"d{n}": (lambda n=n: [[_loop_dihedral_mul(n, a, b) for b in range(2 * n)]
                               for a in range(2 * n)])
       for n in (*range(1, 9), 16, 32)},
    # Q_8 as the table of (sign, axis) products, elements 1, -1, i, -i, j, -j, k, -k
    "q8": lambda: [[0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6],
                   [2, 3, 1, 0, 6, 7, 5, 4], [3, 2, 0, 1, 7, 6, 4, 5],
                   [4, 5, 7, 6, 1, 0, 2, 3], [5, 4, 6, 7, 0, 1, 3, 2],
                   [6, 7, 4, 5, 3, 2, 1, 0], [7, 6, 5, 4, 2, 3, 0, 1]],
}
BUILT = {
    **{f"z{n}": (lambda n=n: groups.cyclic(n)) for n in (*range(1, 9), 16, 24, 32, 64, 120)},
    **{f"s{n}": (lambda n=n: groups.symmetric(n)) for n in range(1, 6)},
    **{f"d{n}": (lambda n=n: groups.dihedral(n)) for n in (*range(1, 9), 16, 32)},
    "q8": groups.quaternion,
}


def _oracle_group(table):
    """identity, inverse and classes by the loops (associativity up to order 64)."""
    n = len(table)
    if n <= 64:
        identity, inverse = _loop_validate(table)
    else:
        identity = next(e for e in range(n) if list(table[e]) == list(range(n)))
        inverse = tuple(next(y for y in range(n) if table[x][y] == identity)
                        for x in range(n))
    return identity, inverse, _loop_conjugacy_classes(table, identity, inverse)


@pytest.mark.parametrize("name", sorted(BUILT))
def test_builtins_match_the_loop_builders_and_validator(name):
    g = BUILT[name]()
    table = LOOP_TABLES[name]()
    assert g.cayley == tuple(map(tuple, table))
    assert g.table.dtype == np.int64 and not g.table.flags.writeable
    identity, inverse, classes = _oracle_group(table)
    assert (g.identity, g.inverse) == (identity, inverse)
    assert g.conjugacy_classes() == classes
    assert g.is_abelian() == all(table[x][y] == table[y][x]
                                 for x in range(g.order) for y in range(g.order))


def _swap_intercalate(table, r1, r2, c1, c2):
    t = [list(row) for row in table]
    t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
    t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
    return t


def _assert_triple_fails(table, message):
    x, y, z = (int(v) for v in re.search(r"triple \((\d+), (\d+), (\d+)\)", message).groups())
    assert table[table[x][y]][z] != table[x][table[y][z]]


@st.composite
def small_tables(draw):
    """Small group tables, relabelled, then perhaps with intercalates swapped
    or one entry overwritten: groups, loops, and tables that are neither."""
    base = LOOP_TABLES[draw(st.sampled_from(["z4", "z6", "z8", "s3", "d4", "d5", "z7"]))]()
    n = len(base)
    sigma = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[sigma[x]][sigma[y]] = sigma[base[x][y]]
    for _ in range(draw(st.integers(0, 2))):
        intercalates = [(r1, r2, c1, c2) for r1, r2 in itertools.combinations(range(n), 2)
                        for c1 in range(n) for c2 in [table[r2].index(table[r1][c1])]
                        if c1 < c2 and table[r2][c1] == table[r1][c2]]
        if intercalates:
            table = _swap_intercalate(table, *draw(st.sampled_from(intercalates)))
    if draw(st.integers(0, 4)) == 4:
        x, y, v = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[x][y] = v
    return table


@given(small_tables())
@settings(max_examples=200, deadline=None)
def test_light_test_agrees_with_the_loop_validator(table):
    try:
        expected = _loop_validate(table)
    except ValidationError as exc:
        expected = str(exc)
    try:
        g = groups.from_table(table)
    except ValidationError as exc:
        if str(exc).startswith("associativity"):
            assert isinstance(expected, str) and expected.startswith("associativity")
            _assert_triple_fails(table, str(exc))
        else:
            assert str(exc) == expected
    else:
        assert (g.identity, g.inverse) == expected


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_an_intercalate_swap_above_order_64_is_rejected(data):
    family = data.draw(st.sampled_from(["cyclic", "dihedral"]))
    if family == "cyclic":
        g = groups.cyclic(2 * data.draw(st.integers(33, 100)))
    else:
        g = groups.dihedral(data.draw(st.integers(33, 100)))
    n = g.order
    # r1 c1 = r2 c2 and r1 c2 = r2 c1 for r2 = r1 u, c2 = u c1 with u an involution
    involutions = [u for u in range(1, n) if g.mul(u, u) == 0]
    u = data.draw(st.sampled_from(involutions))
    r1, c1 = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
    r2, c2 = g.mul(r1, u), g.mul(u, c1)
    # keep the identity row and column, and every identity entry, in place:
    # the result is a loop with two-sided inverses, so only associativity fails
    assume(0 not in (r2, c2, g.mul(r1, c1), g.mul(r1, c2)))
    table = _swap_intercalate(g.cayley, r1, r2, c1, c2)
    with pytest.raises(ValidationError, match="associativity") as info:
        groups.from_table(table)
    _assert_triple_fails(table, str(info.value))


def test_order_66_loop_is_rejected_with_a_failing_triple():
    table = _swap_intercalate(groups.cyclic(66).cayley, 1, 34, 1, 34)
    with pytest.raises(ValidationError, match="associativity") as info:
        groups.from_table(table)
    _assert_triple_fails(table, str(info.value))


@pytest.mark.parametrize("table", [5, [[0, 1], [1, 1.7]], [[0, 1], [1]], [["0", "1"], ["1", "0"]],
                                   [[True, False], [False, True]], [[0.0, 1.0], [1.0, 0.0]], []])
def test_from_table_refuses_non_integer_tables(table):
    with pytest.raises(ValidationError):
        groups.from_table(table)


def test_groups_compare_and_hash_by_value():
    a, b = groups.cyclic(6), groups.from_table(groups.cyclic(6).table.tolist(), name="Z_6")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != groups.dihedral(3)
    with pytest.raises(ValueError):
        a.table[0, 0] = 1


@pytest.mark.parametrize("build, name", [
    (lambda: groups.cyclic(5001), "Z_5001"),
    (lambda: groups.dihedral(2501), "D_2501"),
    (lambda: groups.builtin("z5001"), "Z_5001"),
], ids=["cyclic", "dihedral", "builtin"])
def test_orders_above_the_vertex_cap_are_refused_before_any_table(build, name):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"{name} has order .* above the cap of 5000"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("family, group", [("group", "z5001"), ("conjugacy", "d2501")])
def test_cli_refuses_a_group_above_the_vertex_cap(family, group, tmp_path, capsys):
    out = tmp_path / "scheme.json"
    tracemalloc.start()
    try:
        code = run(["scheme", "build", "--family", family, "--group", group, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "above the cap of 5000" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 1 << 20


def test_an_order_equal_to_the_cap_builds(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_VERTEX_CAP", 12)
    assert groups.cyclic(12).order == 12
    assert groups.dihedral(6).order == 12
    with pytest.raises(ValidationError, match="D_7 has order 14"):
        groups.dihedral(7)


def _layered_generators(c, identity):
    """The generating-set search as it first stood, with one np.ix_ gather
    per breadth-first layer; the oracle for `groups._generators`, which
    gathers the generators' columns once."""
    reached = np.zeros(c.shape[0], dtype=bool)
    reached[identity] = True
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = np.unique(c[np.ix_(frontier, gens)])
            frontier = step[~reached[step]]
            reached[frontier] = True
    return gens


@pytest.mark.parametrize("name", sorted(BUILT))
def test_generators_match_the_layered_search_on_the_builtins(name):
    g = BUILT[name]()
    assert groups._generators(g.table, g.identity) == _layered_generators(g.table, g.identity)


@given(small_tables())
@settings(max_examples=100, deadline=None)
def test_generators_match_the_layered_search_on_relabelled_tables(table):
    # every Latin square with an identity and inverses reaches _generators,
    # the ones that Light's test then refuses included
    try:
        groups.from_table(table)
    except ValidationError as exc:
        if not str(exc).startswith("associativity"):
            return
    c = np.array(table)
    identity = int(np.flatnonzero((c == np.arange(len(c))).all(axis=1))[0])
    gens = groups._generators(c, identity)
    assert gens == _layered_generators(c, identity)
    assert gens == sorted(gens) and identity not in gens


def test_generators_of_z1000_peak_with_one_column_not_the_table():
    n = 1000
    c = np.add.outer(np.arange(n), np.arange(n)) % n
    groups._generators(c, 0)  # keep the first call's one-off allocations out
    tracemalloc.start()
    gens = groups._generators(c, 0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert gens == [1]
    # one generator column of n int64 and the masks of one layer, far
    # below the 8 MB table
    assert peak < 4 * 8 * n
