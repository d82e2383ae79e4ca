import dataclasses
import inspect

import numpy as np
import pytest

import schemewalk
from schemewalk import (
    Hypergroup,
    IntersectionTensor,
    KreinTensor,
    SchurChannel,
    ValidationError,
    braid_generators,
    build_conjugacy_scheme,
    build_grassmann,
    build_group_scheme,
    build_johnson,
    build_orbit_scheme,
    builtin_fusion_system,
    cyclic_fusion_system,
    decompose,
    groups,
    hypergroup_from,
    intersection_numbers,
    iterate_channel,
    krein_parameters,
    make_transition_expectation,
    szegedy_walk,
    verify_axioms,
)
from schemewalk.schemes import AssociationScheme, _packed_dtype
from tests.conftest import BUILTIN_NAMES, COMMUTATIVE_NAMES, NONCOMMUTATIVE

EXPECTED_SIZES = {
    "group_z2": (2, 1), "group_z3": (3, 2), "group_z4": (4, 3),
    "group_z5": (5, 4), "group_z6": (6, 5), "group_z7": (7, 6),
    "group_z8": (8, 7), "group_s3": (6, 5), "group_s4": (24, 23),
    "group_d4": (8, 7), "group_q8": (8, 7),
    "conjugacy_s3": (6, 2), "conjugacy_s4": (24, 4), "conjugacy_q8": (8, 4),
    "johnson_4_2": (6, 2), "johnson_5_2": (10, 2), "johnson_6_3": (20, 3),
    "grassmann_2_3_1": (7, 1), "grassmann_2_4_2": (35, 2), "grassmann_3_2_1": (4, 1),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_axioms(name, builtin_schemes):
    s = builtin_schemes[name]
    assert (s.n, s.d) == EXPECTED_SIZES[name]
    report = verify_axioms(s)
    assert report.passed, report.violations
    assert report.commutative == (name in COMMUTATIVE_NAMES)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_valencies_sum_to_n(name, builtin_schemes):
    s = builtin_schemes[name]
    k = s.valencies()
    assert k[0] == 1
    assert int(k.sum()) == s.n


def test_adjacency_matrices_partition(builtin_schemes):
    s = builtin_schemes["johnson_6_3"]
    mats = [s.adjacency(j) for j in range(s.d + 1)]
    assert len(mats) == s.d + 1
    assert np.array_equal(mats[0], np.eye(s.n, dtype=np.int64))
    assert np.array_equal(sum(mats), np.ones((s.n, s.n), dtype=np.int64))


def test_group_scheme_structure():
    z4 = build_group_scheme(groups.cyclic(4))
    # (y, z) -> class of y * z^-1, i.e. the residue y - z for Z_4
    for y in range(4):
        for z in range(4):
            assert z4.relation[y][z] == (y - z) % 4
    # identity class on the diagonal
    assert all(z4.relation[x][x] == 0 for x in range(4))

    s3 = build_group_scheme(groups.symmetric(3))
    assert not verify_axioms(s3).commutative
    # each class is a single permutation matrix (valency 1)
    assert list(s3.valencies()) == [1] * 6


def test_conjugacy_scheme_always_commutative():
    for g in (groups.symmetric(3), groups.symmetric(4), groups.quaternion(), groups.dihedral(4)):
        s = build_conjugacy_scheme(g)
        rep = verify_axioms(s)
        assert rep.passed and rep.commutative
        # valencies are the conjugacy class sizes
        sizes = sorted(len(c) for c in g.conjugacy_classes())
        assert sorted(s.valencies()) == sizes


def test_johnson_octahedron():
    s = build_johnson(4, 2)
    assert s.n == 6 and s.d == 2
    assert list(s.valencies()) == [1, 4, 1]
    # class 2 (disjoint pairs) is a perfect matching
    a2 = s.adjacency(2)
    assert np.array_equal(a2 @ a2, np.eye(6, dtype=np.int64))


def test_johnson_valencies():
    s = build_johnson(5, 2)
    assert list(s.valencies()) == [1, 6, 3]
    s = build_johnson(6, 3)
    assert list(s.valencies()) == [1, 9, 9, 1]


def test_johnson_requires_small_k():
    with pytest.raises(ValidationError):
        build_johnson(4, 3)
    with pytest.raises(ValidationError):
        build_johnson(3, 0)


def test_grassmann_sizes():
    s = build_grassmann(2, 3, 1)
    assert s.n == 7 and s.d == 1
    assert list(s.valencies()) == [1, 6]
    s = build_grassmann(2, 4, 2)
    assert s.n == 35
    assert list(s.valencies()) == [1, 18, 16]
    s = build_grassmann(3, 2, 1)
    assert s.n == 4 and s.d == 1


def test_grassmann_vertex_cap():
    with pytest.raises(ValidationError, match=r"J_2\(8,4\) has 200787 vertices, above the cap of 5000"):
        build_grassmann(2, 8, 4)


def test_johnson_vertex_cap_fails_before_enumerating():
    # C(40, 20) is about 1.4e11 subsets; the cap must refuse before listing any
    with pytest.raises(ValidationError, match="J\\(40,20\\) has 137846528820 vertices, above the cap"):
        build_johnson(40, 20)


def test_scheme_equality_and_hash():
    a, b = build_johnson(4, 2), build_johnson(4, 2)
    verify_axioms(a)  # the kept report plays no part in equality
    assert a == b and hash(a) == hash(b)
    assert a != build_johnson(5, 2)
    assert a != "johnson"
    perm = np.array([1, 0, 2, 3, 4, 5])
    relabelled = AssociationScheme(n=6, d=2, relation=a.relation[np.ix_(perm, perm)])
    assert relabelled != a
    assert len({a, b, relabelled}) == 2


def test_decomposition_equality_is_identity():
    s = build_johnson(4, 2)
    first, second = decompose(s), decompose(s)
    assert first == first and first != second
    assert len({first, second}) == 2


_J42 = build_johnson(4, 2)
_P = np.array([[0.5, 0.5], [0.25, 0.75]])



def _rebuilt_hypergroup():
    dec = decompose(_J42)
    kept = hypergroup_from(dec, krein_parameters(dec))
    return Hypergroup(kept.convolution, kept.multiplicities)


# Each builder returns a fresh result object holding arrays.  The served
# tensors and hypergroup are the objects kept on the algebra record, so
# their entries wrap the kept arrays in new objects through the constructors.
RESULT_BUILDERS = {
    "FusionSystem": lambda: cyclic_fusion_system(3),
    "BraidGenerators": lambda: braid_generators(builtin_fusion_system("ising")),
    "Hypergroup": _rebuilt_hypergroup,
    "IntersectionTensor": lambda: IntersectionTensor(intersection_numbers(_J42).p),
    "KreinTensor": lambda: KreinTensor(krein_parameters(decompose(_J42)).q),
    "SchurChannel": lambda: SchurChannel(np.eye(3)),
    "TransitionExpectation": lambda: make_transition_expectation(_P),
    "ChannelTrajectory": lambda: iterate_channel(
        make_transition_expectation(_P), np.eye(2) / 2, 1),
    "WalkOperator": lambda: szegedy_walk(_P.T),
}


@pytest.mark.parametrize("name", RESULT_BUILDERS)
def test_array_results_compare_and_hash_by_identity(name):
    a, b = RESULT_BUILDERS[name](), RESULT_BUILDERS[name]()
    assert type(a).__name__ == name
    assert a == a
    assert a != b
    assert len({a, b}) == 2


# Each record takes only what the library cannot derive: d, size, dim_v,
# dual and dims are read from its arrays, and tolerances and thresholds are
# module constants.
RECORD_INIT_FIELDS = {
    "AssociationScheme": ("n", "d", "relation"),
    "AxiomReport": ("violations", "commutative"),
    "BoseMesnerDecomposition": ("scheme",),
    "FusionSystem": ("labels", "N", "F", "R", "twist"),
    "IntersectionTensor": ("p",),
    "KreinTensor": ("q",),
    "Hypergroup": ("convolution", "multiplicities"),
    "SchurChannel": ("multiplier",),
    "TransitionExpectation": ("transition",),
    "ChannelTrajectory": ("states", "trace_factors"),
    "WalkOperator": ("column_stochastic",),
    "BraidGenerators": ("label",),
    "CPReport": ("choi_min_eigenvalue", "multiplier_min_eigenvalue"),
    "PentagonReport": ("max_residual", "identities_checked"),
    "HexagonReport": ("max_residual", "max_residual_inverse", "identities_checked"),
    "BridgeReport": ("bijection", "scalars", "deviation"),
}


@pytest.mark.parametrize("name", RECORD_INIT_FIELDS)
def test_records_take_only_what_cannot_be_derived(name):
    fields = dataclasses.fields(getattr(schemewalk, name))
    assert tuple(f.name for f in fields if f.init) == RECORD_INIT_FIELDS[name]


def test_every_exported_dataclass_lists_its_init_fields():
    exported = {name for name in schemewalk.__all__
                if dataclasses.is_dataclass(getattr(schemewalk, name))}
    assert exported == set(RECORD_INIT_FIELDS)


def test_a_group_takes_only_its_table():
    fields = dataclasses.fields(groups.FiniteGroup)
    assert tuple(f.name for f in fields if f.init) == ("table",)


# `passed`, `is_cp` and `verdicts_agree` are read from the measurements;
# `labels` and `name` were tags that nothing read
@pytest.mark.parametrize("build, keyword", [
    (lambda **kw: AssociationScheme(6, 2, _J42.relation, **kw), "labels"),
    (lambda **kw: groups.FiniteGroup(groups.cyclic(3).table, **kw), "name"),
    (lambda **kw: schemewalk.AxiomReport((), True, **kw), "passed"),
    (lambda **kw: schemewalk.CPReport(0.0, 0.0, **kw), "is_cp"),
    (lambda **kw: schemewalk.CPReport(0.0, 0.0, **kw), "verdicts_agree"),
])
def test_derived_values_and_unread_tags_are_not_arguments(build, keyword):
    build()
    with pytest.raises(TypeError, match=keyword):
        build(**{keyword: True})


def test_reports_read_their_verdicts_from_their_measurements():
    assert verify_axioms(_J42).passed
    failed = schemewalk.AxiomReport(violations=((1, (0, 0)),), commutative=False)
    assert not failed.passed
    report = schemewalk.CPReport(choi_min_eigenvalue=-1e-11, multiplier_min_eigenvalue=-1e-11)
    assert report.is_cp and report.verdicts_agree
    report = schemewalk.CPReport(choi_min_eigenvalue=-1e-9, multiplier_min_eigenvalue=-1e-9)
    assert not report.is_cp and report.verdicts_agree
    assert not schemewalk.CPReport(-1e-9, 0.5).verdicts_agree


@pytest.mark.parametrize("name, parameters", [
    ("WalkOperator", ["column_stochastic", "convention"]),
    ("BraidGenerators", ["system", "label"]),
])
def test_the_walk_and_the_braids_are_built_from_their_input_alone(name, parameters):
    # `convention` and `system` are read by the constructor and not kept
    assert list(inspect.signature(getattr(schemewalk, name)).parameters) == parameters


def test_the_walk_and_the_braids_take_no_derived_array_from_their_caller():
    with pytest.raises(TypeError):
        schemewalk.WalkOperator(np.ones((2, 2)), np.ones((4, 2)), np.ones((4, 4)))
    eye = np.eye(2)
    with pytest.raises(TypeError):
        schemewalk.BraidGenerators("sigma", eye, np.diag([1.0, -1.0]), 0 * eye,
                                   braid_residual=0.0)


def test_a_decomposition_takes_no_spectrum_from_its_caller():
    dec = decompose(_J42)
    with pytest.raises(TypeError, match="multiplicities"):
        schemewalk.BoseMesnerDecomposition(
            scheme=_J42, multiplicities=dec.multiplicities,
            eigenmatrix_P=dec.eigenmatrix_P, eigenmatrix_Q=dec.eigenmatrix_Q)


def test_a_report_takes_no_intersection_tensor_from_its_caller():
    report = verify_axioms(_J42)
    assert report.p is report._algebra.p
    with pytest.raises(TypeError, match="'p'"):
        schemewalk.AxiomReport(violations=(), commutative=True, p=report.p)


def test_fixed_tolerances_and_caps_are_not_parameters():
    assert list(inspect.signature(schemewalk.certify_cp).parameters) == ["c"]
    assert list(inspect.signature(build_grassmann).parameters) == ["q", "v", "d"]
    assert not hasattr(schemewalk, "make_fusion_system")


def test_grassmann_unsupported_field():
    with pytest.raises(ValidationError):
        build_grassmann(6, 3, 1)


def test_orbit_scheme_regular_action():
    # the regular action of Z_5 given by the cycle (0 1 2 3 4)
    cycle = [[1, 2, 3, 4, 0]]
    s = build_orbit_scheme(cycle, 5)
    z5 = build_group_scheme(groups.cyclic(5))
    assert s.d == z5.d == 4
    rep = verify_axioms(s)
    assert rep.passed and rep.commutative


def test_orbit_scheme_two_transitive():
    # S_4 natural action on 4 points is 2-transitive: one nontrivial class
    gens = [[1, 0, 2, 3], [1, 2, 3, 0]]
    s = build_orbit_scheme(gens, 4)
    assert s.d == 1
    assert verify_axioms(s).passed


def test_orbit_scheme_rejects_intransitive():
    # two fixed blocks {0,1} and {2,3}
    gens = [[1, 0, 2, 3], [0, 1, 3, 2]]
    with pytest.raises(ValidationError, match="transitiv"):
        build_orbit_scheme(gens, 4)


def test_orbit_scheme_rejects_bad_permutation():
    with pytest.raises(ValidationError):
        build_orbit_scheme([[0, 0, 1]], 3)


@pytest.mark.parametrize("n, d", [(1, 1), (1, 10**12), (2, 3), (2, 10**7), (3, 7)])
def test_more_classes_than_off_diagonal_pairs_is_refused(n, d):
    # class 0 is the diagonal, so a scheme has d <= n(n - 1); refused before
    # any allocation of d + 1 entries
    rel = 1 - np.eye(n, dtype=np.int64)
    with pytest.raises(ValidationError, match="non-identity classes"):
        AssociationScheme(n=n, d=d, relation=rel)


@pytest.mark.parametrize("d, dtype", [(255, "<u1"), (256, "<u2"), (2 ** 16 - 1, "<u2"),
                                      (2 ** 16, "<u4")])
def test_the_relation_is_held_at_the_narrowest_width_that_holds_d(d, dtype):
    """Direct construction, no axiom check: 17 vertices hold 256 classes
    and 257 hold 65,536.  Every class 0..d occurs, d included."""
    n = 17 if d < 2 ** 16 - 1 else 257
    given = np.asfortranarray(np.arange(n * n).reshape(n, n) % (d + 1))
    s = AssociationScheme(n=n, d=d, relation=given)
    rel = s.relation
    assert rel.dtype == np.dtype(dtype) == _packed_dtype(d)
    assert rel.flags.c_contiguous and not rel.flags.writeable
    assert not np.shares_memory(rel, given) and rel.max() == d
    assert np.array_equal(rel, given)


@pytest.mark.parametrize("d, entry", [(255, 256), (255, -1), (2 ** 16 - 1, 2 ** 16), (1, -1)])
def test_an_entry_outside_the_classes_is_refused_before_narrowing(d, entry):
    n = 17 if d < 2 ** 16 - 1 else 257
    given = np.arange(n * n).reshape(n, n) % (d + 1)
    given[1, 2] = entry
    with pytest.raises(ValidationError, match=rf"class indices must lie in 0\.\.{d}, found "):
        AssociationScheme(n=n, d=d, relation=given)


def test_as_many_classes_as_off_diagonal_pairs_is_checked():
    rel = np.array([[0, 1], [2, 0]])
    report = verify_axioms(AssociationScheme(n=2, d=2, relation=rel))
    assert report.violations == ((4, (1, 2, 0, 0, 1, 1)),)


def test_axiom_violation_witnesses():
    s = build_johnson(4, 2)
    rel = np.array(s.relation, copy=True)

    bad = rel.copy()
    bad[0][0] = 1  # diagonal must be class 0
    rep = verify_axioms(_raw(bad))
    assert not rep.passed
    assert rep.violations[0][0] == 1

    bad = rel.copy()
    bad[bad == 2] = 1  # drop class 2 entirely
    rep = verify_axioms(_raw(bad, d=2))
    assert not rep.passed
    assert any(v[0] == 2 for v in rep.violations)

    bad = rel.copy()
    bad[0][1], bad[1][0] = 1, 2  # break transpose-closure
    rep = verify_axioms(_raw(bad))
    assert not rep.passed
    assert any(v[0] in (3, 4) for v in rep.violations)


def _raw(relation, d=None):
    from schemewalk.schemes import AssociationScheme

    return AssociationScheme(
        n=relation.shape[0],
        d=int(relation.max()) if d is None else d,
        relation=relation,
    )
