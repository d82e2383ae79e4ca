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
    build_conjugacy_scheme,
    build_grassmann,
    build_group_scheme,
    build_johnson,
    decompose,
    groups,
    krein_parameters,
    spectral,
)
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
    mats = [a.astype(np.float64) for a in s.adjacency_matrices()]
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
    return AssociationScheme(n=s.n, d=s.d, relation=s.relation[np.ix_(perm, perm)],
                             labels=s.labels)


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
    for gathered, refined in zip(dec.idempotents, idem, strict=True):
        assert gathered.shape == (s.n, s.n)
        assert np.max(np.abs(gathered - refined)) < 1e-12


def test_idempotents_are_cached_and_read_only(j42_dec):
    first = j42_dec.idempotents
    assert j42_dec.idempotents is first
    with pytest.raises(ValueError):
        first[1][0, 0] = 0.0


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
