"""Differential tests: the (d+1)-dimensional spectral layer against the
n x n refinement decomposition and the trace-pairing Krein numbers.

The oracles below diagonalize the adjacency matrices themselves: one
Hermitian generic combination through `eigh`, eigenspaces refined against
the Hermitian and anti-Hermitian parts of every A_j, the idempotents
E = B B^H of the common eigenspaces, and q_ij^k = (n/m_k) tr((E_i o E_j) E_k).
They share no code with `decompose` beyond the scheme itself.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemewalk import (
    AssociationScheme,
    CertificationError,
    ValidationError,
    build_conjugacy_scheme,
    build_grassmann,
    build_group_scheme,
    build_johnson,
    decompose,
    groups,
    krein_parameters,
    spectral,
)
from schemewalk.schemes import require_axioms
from tests.conftest import COMMUTATIVE_NAMES

_ORACLE_SEED = 1729
_GROUP_RTOL = 1e-8


def _cluster(values):
    """Index runs of nearly equal entries of a sorted real vector."""
    order = np.argsort(values)
    tol = _GROUP_RTOL * max(1.0, float(np.abs(values).max()))
    groups_: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[groups_[-1][-1]] < tol:
            groups_[-1].append(int(idx))
        else:
            groups_.append([int(idx)])
    return [np.array(g) for g in groups_]


def refinement_decompose(s):
    """Idempotents, multiplicities, P and Q from the n x n adjacency matrices."""
    mats = [s.adjacency(j).astype(np.float64) for j in range(s.d + 1)]
    rng = np.random.default_rng(_ORACLE_SEED)
    generic = np.zeros((s.n, s.n), dtype=np.complex128)
    for a in mats:
        c, cp = rng.standard_normal(2)
        generic += c * (a + a.T) + cp * 1j * (a - a.T)
    vals, vecs = np.linalg.eigh(generic)
    subspaces = [vecs[:, idx] for idx in _cluster(vals)]
    for a in mats:
        for part in ((a + a.T) / 2.0, -0.5j * (a - a.T)):
            refined = []
            for basis in subspaces:
                w, v = np.linalg.eigh(basis.conj().T @ part @ basis)
                refined.extend(basis @ v[:, idx] for idx in _cluster(w))
            subspaces = refined

    merged: list[tuple[np.ndarray, list[np.ndarray]]] = []
    for basis in subspaces:
        vec = np.array([np.trace(basis.conj().T @ a @ basis) / basis.shape[1] for a in mats])
        for known, bases in merged:
            if np.max(np.abs(known - vec)) < 1e-7:
                bases.append(basis)
                break
        else:
            merged.append((vec, [basis]))
    assert len(merged) == s.d + 1

    k = s.valencies()
    first = [t for t, (vec, _) in enumerate(merged) if np.max(np.abs(vec - k)) < 1e-6]
    rest = sorted((t for t in range(s.d + 1) if t != first[0]), key=lambda t: tuple(
        (-round(merged[t][0][j].real, 9), -round(merged[t][0][j].imag, 9))
        for j in range(1, s.d + 1)
    ))
    idempotents, rows = [], []
    for t in first + rest:
        vec, bases = merged[t]
        basis = np.hstack(bases)
        idempotents.append(basis @ basis.conj().T)
        rows.append(vec)
    mult = tuple(int(round(float(np.trace(e).real))) for e in idempotents)
    q_mat = np.array([[s.n * e[s.relation == i].mean() for e in idempotents]
                      for i in range(s.d + 1)])
    return idempotents, mult, np.array(rows), q_mat


def trace_pairing_krein(idempotents, mult):
    """q_ij^k = (n/m_k) tr((E_i o E_j) E_k), real part."""
    n = idempotents[0].shape[0]
    size = len(idempotents)
    q = np.empty((size, size, size))
    for i in range(size):
        for j in range(size):
            had = idempotents[i] * idempotents[j]
            for k in range(size):
                q[i, j, k] = (np.sum(had * idempotents[k].conj()) * n / mult[k]).real
    return q


def relabelled(s, perm):
    perm = np.asarray(perm)
    return AssociationScheme(n=s.n, d=s.d, relation=s.relation[np.ix_(perm, perm)])


EXTRA = {
    "group_z16": lambda: build_group_scheme(groups.cyclic(16)),
    "group_z32": lambda: build_group_scheme(groups.cyclic(32)),
    "conjugacy_s5": lambda: build_conjugacy_scheme(groups.symmetric(5)),
    "johnson_9_4": lambda: build_johnson(9, 4),
    "johnson_10_3": lambda: build_johnson(10, 3),
    "grassmann_2_5_2": lambda: build_grassmann(2, 5, 2),
    "grassmann_4_4_2": lambda: build_grassmann(4, 4, 2),
}

CASES = [(name, False) for name in COMMUTATIVE_NAMES] \
    + [(name, True) for name in COMMUTATIVE_NAMES] \
    + [(name, False) for name in EXTRA]


@pytest.fixture(scope="module")
def case_schemes(builtin_schemes):
    rng = np.random.default_rng(5)
    out = {}
    for name, relabel in CASES:
        s = builtin_schemes[name] if name in builtin_schemes else EXTRA[name]()
        out[name, relabel] = relabelled(s, rng.permutation(s.n)) if relabel else s
    return out


@pytest.mark.parametrize("name,relabel", CASES,
                         ids=[f"{n}-relabelled" if r else n for n, r in CASES])
def test_matches_refinement_oracle(name, relabel, case_schemes):
    s = case_schemes[name, relabel]
    dec = decompose(s)
    kt = krein_parameters(dec)
    idem, mult, p_mat, q_mat = refinement_decompose(s)

    assert dec.multiplicities == mult
    assert np.max(np.abs(dec.eigenmatrix_P - p_mat)) < 1e-9
    assert np.max(np.abs(dec.eigenmatrix_Q - q_mat)) < 1e-9
    assert np.max(np.abs(kt.q - trace_pairing_krein(idem, mult))) < 1e-9
    assert len(idem) == dec.d + 1
    for j, refined in enumerate(idem):
        gathered = dec.idempotent(j)
        assert gathered.shape == (s.n, s.n)
        assert np.max(np.abs(gathered - refined)) < 1e-12


def test_idempotent_is_read_only_and_refuses_a_bad_index(j42_dec):
    with pytest.raises(ValueError):
        j42_dec.idempotent(1)[0, 0] = 0.0
    for j in (-1, j42_dec.d + 1, True, 1.0):
        with pytest.raises(ValidationError, match="idempotent index"):
            j42_dec.idempotent(j)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(COMMUTATIVE_NAMES), data=st.data())
def test_relabelling_leaves_spectral_data_bit_identical(name, data, builtin_schemes,
                                                        decompositions, krein_tensors):
    """decompose reads only p and the valencies, which relabelling keeps exactly."""
    s = builtin_schemes[name]
    perm = data.draw(st.permutations(range(s.n)))
    dec = decompose(relabelled(s, perm))
    base = decompositions[name]
    assert dec.multiplicities == base.multiplicities
    assert np.array_equal(dec.eigenmatrix_P, base.eigenmatrix_P)
    assert np.array_equal(dec.eigenmatrix_Q, base.eigenmatrix_Q)
    assert np.array_equal(krein_parameters(dec).q, krein_tensors[name].q)


@pytest.mark.parametrize("weights", [
    lambda count: np.eye(count)[0],                      # G = I: every character collides
    lambda count: np.eye(count)[1].astype(np.complex128),  # real A_1: w and conj(w) collide
], ids=["identity", "real-a1"])
def test_degenerate_combination_fails_character_identities(weights, monkeypatch):
    monkeypatch.setattr(spectral, "_generic_weights", weights)
    with pytest.raises(CertificationError, match="character identities"):
        decompose(build_group_scheme(groups.cyclic(4)))


# ------------------------------------------------- the class-1 certificate

def full_residual_decompose(s):
    """(m, P, Q) as decompose formed them before the class-1 certificate:
    the same seeded generic combination, every character identity checked,
    the rows ordered by `sorted` over list keys."""
    p, k, n, d = require_axioms(s).p, s.valencies(), s.n, s.d
    g = np.tensordot(spectral._generic_weights(d + 1), p * k, axes=1) / np.sqrt(np.outer(k, k))
    _, vecs = np.linalg.eigh(g + g.conj().T)
    rows = vecs.T * np.sqrt(k)
    chars = rows / rows[:, :1]
    residual = np.abs(chars[:, :, np.newaxis] * chars[:, np.newaxis, :]
                      - np.tensordot(chars, p, axes=([1], [2])))
    assert np.max(residual / np.outer(k, k)) <= 1e-8
    first = np.flatnonzero(np.max(np.abs(chars - k), axis=1) < 1e-6).tolist()
    assert len(first) == 1
    rounded = np.round(chars[:, 1:], 9)
    keys = np.stack([-rounded.real, -rounded.imag], axis=2).reshape(d + 1, -1).tolist()
    rest = sorted(set(range(d + 1)) - set(first), key=keys.__getitem__)
    eigmat_p = chars[first + rest]
    mult = tuple(int(round(float(m))) for m in n / np.sum(np.abs(eigmat_p) ** 2 / k, axis=1))
    return mult, eigmat_p, np.array(mult) * eigmat_p.conj().T / k[:, np.newaxis]


def _assert_bit_identical(dec, oracle):
    mult, eigmat_p, eigmat_q = oracle
    assert dec.multiplicities == mult
    assert np.array_equal(dec.eigenmatrix_P, eigmat_p)
    assert np.array_equal(dec.eigenmatrix_Q, eigmat_q)


SPECTRA_SCHEMES = {
    "johnson_9_4": lambda: build_johnson(9, 4),
    "johnson_10_3": lambda: build_johnson(10, 3),
    "johnson_10_4": lambda: build_johnson(10, 4),
    "johnson_11_3": lambda: build_johnson(11, 3),
    "grassmann_2_5_2": lambda: build_grassmann(2, 5, 2),
    "grassmann_3_4_2": lambda: build_grassmann(3, 4, 2),
    "grassmann_4_4_2": lambda: build_grassmann(4, 4, 2),
    "conjugacy_s5": lambda: build_conjugacy_scheme(groups.symmetric(5)),
}


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_builtins_match_the_full_residual_decompose_bit_for_bit(name, builtin_schemes):
    s = builtin_schemes[name]
    _assert_bit_identical(decompose(s), full_residual_decompose(s))


@pytest.mark.parametrize("order", range(8, 65))
def test_cyclic_schemes_match_the_full_residual_decompose_bit_for_bit(order):
    s = build_group_scheme(groups.cyclic(order))
    _assert_bit_identical(decompose(s), full_residual_decompose(s))


@pytest.mark.parametrize("name", SPECTRA_SCHEMES)
def test_spectra_schemes_match_the_full_residual_decompose_bit_for_bit(name):
    s = SPECTRA_SCHEMES[name]()
    _assert_bit_identical(decompose(s), full_residual_decompose(s))


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["cyclic", "dihedral"]), order=st.integers(3, 40), data=st.data())
def test_relabelled_schemes_match_the_full_residual_decompose(family, order, data):
    # cyclic schemes from order 16 on are separated by class 1; dihedral
    # conjugacy schemes never are, so they exercise the fallback
    if family == "cyclic":
        s = build_group_scheme(groups.cyclic(order))
    else:
        s = build_conjugacy_scheme(groups.dihedral(order))
    moved = relabelled(s, data.draw(st.permutations(range(s.n))))
    dec = decompose(moved)
    _assert_bit_identical(dec, full_residual_decompose(moved))
    _assert_bit_identical(dec, full_residual_decompose(s))


def _full_route_spy(monkeypatch):
    """The sizes d+1 of the character checks that cover every class."""
    calls = []
    residual = spectral._identity_residual

    def spy(chars, p, k, h):
        if h == len(k) - 1:
            calls.append(len(k))
        return residual(chars, p, k, h)

    monkeypatch.setattr(spectral, "_identity_residual", spy)
    return calls


ROUTE_SCHEMES = {
    **{f"group_z{order}": lambda order=order: build_group_scheme(groups.cyclic(order))
       for order in (12, 15, 16, 32, 64)},
    "johnson_9_4": lambda: build_johnson(9, 4),
    "conjugacy_s4": lambda: build_conjugacy_scheme(groups.symmetric(4)),
    "conjugacy_d30": lambda: build_conjugacy_scheme(groups.dihedral(30)),
    "conjugacy_q8": lambda: build_conjugacy_scheme(groups.quaternion()),
}
# class 1 does not separate their rows, so the bound cannot certify
FULL_ROUTE = ("conjugacy_d30", "conjugacy_q8")


@pytest.mark.parametrize("name", ROUTE_SCHEMES)
def test_the_class_1_route_is_taken_where_its_bound_certifies(name, monkeypatch):
    calls = _full_route_spy(monkeypatch)
    s = ROUTE_SCHEMES[name]()
    decompose(s)
    assert calls == ([s.d + 1] if name in FULL_ROUTE else [])


def test_z32_is_separated_by_class_1():
    dec = decompose(build_group_scheme(groups.cyclic(32)))
    gap = spectral._class_1_gap(dec.eigenmatrix_P, dec.scheme.valencies())
    assert gap == pytest.approx(2 * np.sin(np.pi / 32), rel=1e-12)


def test_dihedral_conjugacy_is_not_separated_by_class_1(monkeypatch):
    calls = _full_route_spy(monkeypatch)
    dec = decompose(build_conjugacy_scheme(groups.dihedral(30)))
    assert spectral._class_1_gap(dec.eigenmatrix_P, dec.scheme.valencies()) < 1e-12
    assert calls == [dec.d + 1]


def _characters(s):
    return decompose(s).eigenmatrix_P.copy(), require_axioms(s).p, s.valencies()


def _z32_characters():
    return _characters(build_group_scheme(groups.cyclic(32)))


# class-1: P[5][1] of Z_32 moved by 1e-6, so the identity of classes
# (1, 1) is off by 2e-6 and every other one by at most 1e-6.  full: P[2][3]
# of Q_8 conjugacy moved by 1e-6; P[2][1] = 1 and class 1 (the element -1)
# maps class 3 to itself, so every class-1 identity still holds, and the
# rows, not separated on class 1, are checked in full, where (3, 3) is
# off by 1e-6.
@pytest.mark.parametrize("route, build, entry, message", [
    ("class-1", lambda: build_group_scheme(groups.cyclic(32)), (5, 1),
     r"2\.0\d\de-06 at row 5, classes \(1, 1\)"),
    ("full", lambda: build_conjugacy_scheme(groups.quaternion()), (2, 3),
     r"1\.0\d\de-06 at row 2, classes \(3, 3\)"),
], ids=["class-1", "full"])
def test_a_corrupted_row_is_refused_with_its_row_and_class(route, build, entry, message,
                                                           monkeypatch):
    chars, p, k = _characters(build())
    chars[entry] += 1e-6
    calls = _full_route_spy(monkeypatch)
    with pytest.raises(CertificationError,
                       match="character identities fail with relative residual " + message):
        spectral._certify_characters(chars, p, k)
    assert calls == ([] if route == "class-1" else [len(k)])


def test_a_row_the_bound_cannot_certify_is_checked_in_full(monkeypatch):
    # moved by 1e-9, the row passes on class 1 (residual 2e-9), but the
    # bound 6 R / gap is above 1e-8, so every identity is checked, and
    # they all hold within 1e-8 as they did before the certificate
    chars, p, k = _z32_characters()
    chars[5, 1] += 1e-9
    calls = _full_route_spy(monkeypatch)
    spectral._certify_characters(chars, p, k)
    assert calls == [32]
    calls.clear()
    clean, _, _ = _z32_characters()
    spectral._certify_characters(clean, p, k)
    assert calls == []


@pytest.mark.parametrize("weights", [
    lambda count: np.eye(count)[0],
    lambda count: np.eye(count)[1].astype(np.complex128),
], ids=["identity", "real-a1"])
def test_degenerate_combination_fails_above_the_crossover(weights, monkeypatch):
    # Z_32 is certified on the class-1 route, which must refuse these too
    monkeypatch.setattr(spectral, "_generic_weights", weights)
    with pytest.raises(CertificationError, match="character identities"):
        decompose(build_group_scheme(groups.cyclic(32)))


def test_trivial_scheme_decomposes():
    dec = decompose(AssociationScheme(n=1, d=0, relation=np.zeros((1, 1), dtype=np.int64)))
    assert dec.multiplicities == (1,)
    assert np.array_equal(dec.eigenmatrix_P, [[1.0]])
