import re
from types import SimpleNamespace

import numpy as np
import pytest

from schemewalk import (
    CertificationError,
    IntersectionTensor,
    KreinTensor,
    ValidationError,
    build_group_scheme,
    build_johnson,
    decompose,
    groups,
    intersection_numbers,
    krein_parameters,
    parameters,
    verify_axioms,
)
from tests.conftest import BUILTIN_NAMES, COMMUTATIVE_NAMES
from tests.test_spectral_oracle import relabelled

# Octahedron J(4,2) intersection tensor, worked out by hand: classes are
# equal / adjacent / antipodal with valencies (1, 4, 1).  An adjacent pair
# shares 2 common neighbours, an antipodal pair all 4.
J42_P = {
    (1, 1): [4, 2, 4],
    (1, 2): [0, 1, 0],
    (2, 2): [1, 0, 0],
}

# Krein tensor of the same scheme from the dual eigenmatrix (frozen values).
J42_Q = {
    (1, 1): [3.0, 0.0, 3.0],
    (1, 2): [0.0, 2.0, 0.0],
    (2, 2): [2.0, 0.0, 1.0],
}


def test_johnson_4_2_intersection_oracle(j42):
    it = intersection_numbers(j42)
    for (i, j), row in J42_P.items():
        assert it.p[i, j].tolist() == row
        assert it.p[j, i].tolist() == row


def test_johnson_4_2_krein_oracle(j42_krein):
    for (i, j), row in J42_Q.items():
        assert np.max(np.abs(j42_krein.q[i, j] - row)) < 1e-8
        assert np.max(np.abs(j42_krein.q[j, i] - row)) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_abelian_group_tensors_are_group_tables(n):
    s = build_group_scheme(groups.cyclic(n))
    it = intersection_numbers(s)
    kt = krein_parameters(decompose(s))
    table = np.empty((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            expect = np.zeros(n)
            expect[(i + j) % n] = 1
            assert np.array_equal(it.p[i, j], expect.astype(np.int64))
            # the dual is group-like: every Krein slice is a point mass
            k = int(np.argmax(kt.q[i, j]))
            table[i, j] = k
            assert abs(kt.q[i, j, k] - 1) < 1e-9
            assert np.abs(np.delete(kt.q[i, j], k)).max() < 1e-9
    # ... and the point masses form a cyclic group of order n
    dual = groups.FiniteGroup(table)
    assert dual.identity == 0
    orders = set()
    for x in range(n):
        y, order = x, 1
        while y != 0:
            y, order = dual.table[y, x], order + 1
        orders.add(order)
    assert max(orders) == n


def test_z2_z3_duals_keep_the_literal_labelling():
    """The idempotent ordering makes e_i * e_j = e_{i+j mod n} on Z_2, Z_3."""
    for n in (2, 3):
        kt = krein_parameters(decompose(build_group_scheme(groups.cyclic(n))))
        for i in range(n):
            for j in range(n):
                expect = np.zeros(n)
                expect[(i + j) % n] = 1
                assert np.max(np.abs(kt.q[i, j] - expect)) < 1e-9


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_intersection_identity_exact(name, builtin_schemes):
    """A_i A_j = sum_k p_ij^k A_k in integer arithmetic."""
    s = builtin_schemes[name]
    it = intersection_numbers(s)
    mats = [s.adjacency(j) for j in range(s.d + 1)]
    for i in range(s.d + 1):
        for j in range(s.d + 1):
            prod = mats[i] @ mats[j]
            rebuilt = sum(int(it.p[i, j, k]) * mats[k] for k in range(s.d + 1))
            assert np.array_equal(prod, rebuilt), (name, i, j)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_intersection_row_sums(name, builtin_schemes):
    """sum_j p_ij^k = k_i for every i and k."""
    s = builtin_schemes[name]
    it = intersection_numbers(s)
    k = s.valencies()
    for i in range(s.d + 1):
        for kk in range(s.d + 1):
            assert int(it.p[i, :, kk].sum()) == int(k[i])


def test_sampled_path_matches_full_check():
    """Above 64 vertices the tensor kept by axiom verification still
    satisfies A_i A_j = sum_k p_ij^k A_k; re-verify it exactly here."""
    s = build_johnson(12, 2)  # n = 66, above the size where checks once sampled
    it = intersection_numbers(s)
    mats = [s.adjacency(j) for j in range(s.d + 1)]
    for i in range(s.d + 1):
        for j in range(s.d + 1):
            rebuilt = sum(int(it.p[i, j, k]) * mats[k] for k in range(s.d + 1))
            assert np.array_equal(mats[i] @ mats[j], rebuilt)


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_krein_nonnegativity_and_trace(name, decompositions, krein_tensors):
    dec = decompositions[name]
    kt = krein_tensors[name]
    ms = np.array(dec.multiplicities, dtype=np.float64)
    d1 = dec.d + 1

    assert kt.q.min() >= -1e-9

    for i in range(d1):
        for j in range(d1):
            total = float(np.dot(ms, kt.q[i, j]))
            assert abs(total - ms[i] * ms[j]) < 1e-8

    # exact symmetry in the lower indices
    assert np.array_equal(kt.q, np.swapaxes(kt.q, 0, 1))


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_krein_identity_slices(name, krein_tensors):
    kt = krein_tensors[name]
    d1 = kt.d + 1
    for j in range(d1):
        expect = np.zeros(d1)
        expect[j] = 1
        assert np.max(np.abs(kt.q[0, j] - expect)) < 1e-9


def edited(dec, **arrays):
    """A stand-in for `dec` that carries edited arrays, for `parameters._krein`,
    which reads n, d, m, P and Q.  A decomposition derives those from its
    scheme, so an edited one cannot be constructed."""
    return SimpleNamespace(**{"n": dec.n, "d": dec.d, "multiplicities": dec.multiplicities,
                              "eigenmatrix_P": dec.eigenmatrix_P,
                              "eigenmatrix_Q": dec.eigenmatrix_Q, **arrays})


def test_krein_parameters_refuse_a_negative_entry_with_its_witness(j42_dec):
    # Negating column 1 of Q turns q_12^1 of J(4,2) from +2 into -2.
    eq = j42_dec.eigenmatrix_Q.copy()
    eq[:, 1] *= -1
    with pytest.raises(CertificationError,
                       match=re.escape("Krein condition violated: q[1][2][1] = -2.000e+00 < -1e-09")):
        parameters._krein(edited(j42_dec, eigenmatrix_Q=eq))


def test_krein_parameters_refuse_swapped_multiplicities_by_the_trace_identity(j42_dec):
    swapped = edited(j42_dec, multiplicities=j42_dec.multiplicities[::-1])
    with pytest.raises(CertificationError,
                       match=re.escape("trace identity sum_k m_k q_ij^k = m_i m_j fails "
                                       "with residual 4.000e+00")):
        parameters._krein(swapped)


def tensordot_krein(dec):
    """The complex Krein tensor as krein_parameters first formed it: all
    (d+1)^3 products Q[l][i] Q[l][j] contracted with P in one tensordot,
    then symmetrised in i and j; the oracle for the GEMM over i <= j."""
    eq = dec.eigenmatrix_Q
    raw = np.tensordot(eq[:, :, np.newaxis] * eq[:, np.newaxis, :], dec.eigenmatrix_P,
                       axes=([0], [1])) / dec.n
    return (raw + raw.swapaxes(0, 1)) / 2


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_krein_gemm_matches_the_tensordot_route(name, builtin_schemes):
    s = builtin_schemes[name]
    rng = np.random.default_rng(26)
    for perm in [np.arange(s.n)] + [rng.permutation(s.n) for _ in range(3)]:
        dec = decompose(relabelled(s, perm))
        q = krein_parameters(dec).q
        oracle = tensordot_krein(dec).real
        assert np.max(np.abs(q - oracle)) <= 1e-13 * np.max(np.abs(oracle))
        assert np.array_equal(q, q.swapaxes(0, 1))


@pytest.mark.parametrize("order", [16, 24, 32])
def test_krein_gemm_matches_the_tensordot_route_above_the_crossover(order):
    dec = decompose(build_group_scheme(groups.cyclic(order)))
    q = krein_parameters(dec).q
    oracle = tensordot_krein(dec).real
    assert np.max(np.abs(q - oracle)) <= 1e-13 * np.max(np.abs(oracle))
    assert np.array_equal(q, q.swapaxes(0, 1))


def test_krein_parameters_refuse_an_imaginary_residue(j42_dec):
    # Turning column 1 of Q by a phase of 1e-6 moves every real part of q by
    # less than 1e-11, so nonnegativity and the trace identity still hold
    # and only the residue check can refuse.
    eq = j42_dec.eigenmatrix_Q.copy()
    eq[:, 1] *= np.exp(1e-6j)
    bad = edited(j42_dec, eigenmatrix_Q=eq)
    raw = tensordot_krein(bad)
    ms = np.array(j42_dec.multiplicities, dtype=np.float64)
    assert raw.real.min() > -1e-9
    assert np.max(np.abs(raw.real @ ms - np.outer(ms, ms))) < 1e-8
    with pytest.raises(CertificationError, match="imaginary residue") as info:
        parameters._krein(bad)
    residue = float(re.search(r"imaginary residue (\S+);", str(info.value)).group(1))
    assert residue == pytest.approx(float(np.max(np.abs(raw.imag))), rel=1e-3)
    # the largest: q_11^0 = q_11^2 = 3 (J42_Q), turned by twice the phase
    assert residue == pytest.approx(3 * np.sin(2e-6), rel=1e-3)


def test_tensors_read_d_from_their_shape(j42, j42_krein):
    assert intersection_numbers(j42).d == 2
    assert KreinTensor(j42_krein.q).d == 2


@pytest.mark.parametrize("edit, witness", [
    (lambda q: q[:, :, :2], r"non-empty array of shape \(n, n, n\), got shape \(3, 3, 2\)"),
    (lambda q: q[0], r"non-empty array of shape \(n, n, n\), got shape \(3, 3\)"),
    (lambda q: q[:0, :0, :0], r"non-empty array of shape \(n, n, n\), got shape \(0, 0, 0\)"),
    (lambda q: np.where(np.arange(27).reshape(3, 3, 3) == 14, np.nan, q),
     r"non-finite entry at \(1,1,2\)"),
    (lambda q: np.where(np.arange(27).reshape(3, 3, 3) == 5, -np.inf, q),
     r"non-finite entry at \(0,1,2\)"),
    (lambda q: q + 0j, "entries must be numbers"),
], ids=["not-cubic", "two-axes", "empty", "nan", "inf", "complex"])
def test_krein_tensor_refuses_what_is_not_a_finite_cube(edit, witness, j42_krein):
    # a NaN weight compares false, so it would pass every refusal of
    # hypergroup_from; the tensor itself refuses it
    with pytest.raises(ValidationError, match=witness):
        KreinTensor(edit(j42_krein.q))


@pytest.mark.parametrize("data, witness", [
    (np.zeros((2, 3, 4), dtype=np.int64), r"array of shape \(n, n, n\), got shape \(2, 3, 4\)"),
    (np.zeros((3, 3), dtype=np.int64), r"array of shape \(n, n, n\), got shape \(3, 3\)"),
    (np.zeros((0, 0, 0), dtype=np.int64), r"array of shape \(n, n, n\), got shape \(0, 0, 0\)"),
    (np.zeros((2, 2, 2)), "entries must be integers"),
    (np.zeros((2, 2, 2), dtype=bool), "entries must be integers"),
], ids=["not-cubic", "two-axes", "empty", "float", "bool"])
def test_intersection_tensor_refuses_what_is_not_an_integer_cube(data, witness):
    with pytest.raises(ValidationError, match=witness):
        IntersectionTensor(data)


def _edited_j42_p(j42, edit):
    p = np.array(intersection_numbers(j42).p)
    edit(p)
    return p


@pytest.mark.parametrize("edit, witness", [
    (lambda p: p.fill(5), r"p\[0\]\[0\]\[0\] = 5 is not delta_jk"),
    (lambda p: p.__imul__(-1), r"p\[0\]\[0\]\[0\] = -1 < 0"),
    (lambda p: p.__setitem__((2, 1, 1), -1), r"p\[2\]\[1\]\[1\] = -1 < 0"),
    (lambda p: p.__setitem__((0, 1, 2), 1), r"p\[0\]\[1\]\[2\] = 1 is not delta_jk"),
    (lambda p: p.__setitem__((1, 1, 2), 5), r"sum_j p\[1\]\[j\]\[2\] = 5 differs from k_1 = 4"),
    (lambda p: p.__setitem__((2, 2, 0), 2), r"sum_j p\[2\]\[j\]\[1\] = 1 differs from k_2 = 2"),
], ids=["all-fives", "negated", "one-negative", "unit-law", "row-sum", "valency"])
def test_intersection_tensor_refuses_a_tensor_that_is_not_of_a_scheme(edit, witness, j42):
    with pytest.raises(ValidationError, match=witness):
        IntersectionTensor(_edited_j42_p(j42, edit))


def test_the_probes_with_d_equal_one_are_refused():
    with pytest.raises(ValidationError, match="not delta_jk"):
        IntersectionTensor(np.full((2, 2, 2), 5))
    with pytest.raises(ValidationError, match="< 0"):
        IntersectionTensor(-np.ones((2, 2, 2), int))


def test_intersection_numbers_are_certified_once_per_algebra_record(monkeypatch, j42):
    built = []
    certify = IntersectionTensor.__post_init__
    monkeypatch.setattr(IntersectionTensor, "__post_init__",
                        lambda self: built.append(certify(self)))
    copies = [relabelled(j42, range(6)), relabelled(j42, [3, 1, 4, 0, 5, 2])]
    tensors = [intersection_numbers(s) for s in copies for _ in range(2)]
    assert len(built) == 1
    assert all(t is tensors[0] for t in tensors)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_intersection_tensor_leaves_the_callers_array_writeable(dtype, j42):
    certified = intersection_numbers(j42).p
    mine = np.array(certified, dtype=dtype)
    tensor = IntersectionTensor(mine)
    assert mine.flags.writeable and tensor.p is not mine
    assert tensor.p.dtype == np.int64 and not tensor.p.flags.writeable
    mine[0, 0, 0] = 7
    assert np.array_equal(tensor.p, certified)


def test_intersection_numbers_wrap_the_certified_p_without_a_copy(j42):
    assert intersection_numbers(j42).p is verify_axioms(j42).p


def test_intersection_rejects_noncommutative_free():
    # intersection numbers exist for noncommutative schemes too
    s = build_group_scheme(groups.symmetric(3))
    it = intersection_numbers(s)
    # group scheme: p_{ij}^k = [x_i x_j = x_k] under the class labelling
    assert it.p.sum() == (s.d + 1) ** 2


def test_intersection_requires_valid_scheme():
    from schemewalk.schemes import AssociationScheme

    rel = np.zeros((3, 3), dtype=np.int64)
    np.fill_diagonal(rel, 0)
    rel[0, 1] = rel[1, 0] = 1
    rel[0, 2] = rel[2, 0] = 1
    rel[1, 2] = rel[2, 1] = 2
    bad = AssociationScheme(n=3, d=3, relation=rel)  # class 3 empty
    with pytest.raises(ValidationError):
        intersection_numbers(bad)
