import numpy as np
import pytest
import sympy

from schemewalk import (
    ValidationError,
    build_group_scheme,
    build_johnson,
    decompose,
    groups,
    spectral,
)
from tests.conftest import COMMUTATIVE_NAMES


def test_johnson_4_2_multiplicities_against_charpoly():
    """Independent oracle: exact characteristic polynomial of A_1."""
    s = build_johnson(4, 2)
    a1 = sympy.Matrix(s.adjacency(1).tolist())
    lam = sympy.symbols("lam")
    roots = sympy.roots(a1.charpoly(lam).as_expr(), lam)
    assert roots == {4: 1, 0: 3, -2: 2}

    dec = decompose(s)
    assert dec.multiplicities == (1, 3, 2)
    # eigenvalue columns of P follow the idempotent order
    assert np.allclose(dec.eigenmatrix_P[:, 1], [4, 0, -2])


def test_z3_idempotents_match_fourier_kernel():
    """For Z_n the idempotents are the Fourier projections (1/n) sum w^{-jk} A_k."""
    s = build_group_scheme(groups.cyclic(3))
    dec = decompose(s)
    mats = [s.adjacency(j) for j in range(s.d + 1)]
    w = np.exp(2j * np.pi / 3)
    # the first nontrivial idempotent is ordered to carry A_1-eigenvalue w
    expected_e1 = sum(w ** (-k) * mats[k] for k in range(3)) / 3
    assert np.max(np.abs(dec.idempotent(1) - expected_e1)) < 1e-10
    expected_e2 = sum(w ** (-2 * k) * mats[k] for k in range(3)) / 3
    assert np.max(np.abs(dec.idempotent(2) - expected_e2)) < 1e-10
    assert dec.multiplicities == (1, 1, 1)


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_idempotent_identities(name, builtin_schemes, decompositions):
    s = builtin_schemes[name]
    dec = decompositions[name]
    ems = [dec.idempotent(j) for j in range(s.d + 1)]
    n = s.n

    total = sum(ems)
    assert np.max(np.abs(total - np.eye(n))) < 1e-10

    for i, ei in enumerate(ems):
        for j, ej in enumerate(ems):
            target = ei if i == j else 0
            assert np.max(np.abs(ei @ ej - target)) < 1e-10

    # E_0 is the rank-one uniform projection
    assert np.max(np.abs(ems[0] - np.ones((n, n)) / n)) < 1e-12


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_multiplicities_and_eigenmatrices(name, builtin_schemes, decompositions):
    s = builtin_schemes[name]
    dec = decompositions[name]
    ms = dec.multiplicities

    assert all(isinstance(m, int) for m in ms)
    assert sum(ms) == s.n
    assert ms[0] == 1

    p, q = dec.eigenmatrix_P, dec.eigenmatrix_Q
    assert np.allclose(p[0].real, s.valencies()) and np.max(np.abs(p[0].imag)) < 1e-10
    assert np.allclose(q[0].real, ms) and np.max(np.abs(q[0].imag)) < 1e-10
    assert np.max(np.abs(p @ q - s.n * np.eye(s.d + 1))) < 1e-8

    # reconstruction: A_i = sum_j P[j][i] E_j (rows of P index eigenspaces)
    mats = [s.adjacency(j) for j in range(s.d + 1)]
    ems = [dec.idempotent(j) for j in range(s.d + 1)]
    for i, a in enumerate(mats):
        rebuilt = sum(p[j, i] * ems[j] for j in range(s.d + 1))
        assert np.max(np.abs(rebuilt - a)) < 1e-8
    # dually E_j = (1/n) sum_i Q[i][j] A_i
    for j in range(s.d + 1):
        rebuilt = sum(q[i, j] * mats[i] for i in range(s.d + 1)) / s.n
        assert np.max(np.abs(rebuilt - ems[j])) < 1e-8


def test_decompose_is_deterministic():
    s = build_johnson(6, 3)
    d1 = decompose(s)
    d2 = decompose(s)
    for j in range(s.d + 1):
        assert np.array_equal(d1.idempotent(j), d2.idempotent(j))


def test_generic_weights_are_seeded_and_built_on_each_call():
    """They are read once per distinct p, when the record's spectrum is
    computed, so they need no cache of their own."""
    w = spectral._generic_weights(5)
    again = spectral._generic_weights(5)
    assert again is not w and again.tobytes() == w.tobytes()


def test_decompose_rejects_noncommutative():
    s = build_group_scheme(groups.symmetric(3))
    with pytest.raises(ValidationError, match="commut"):
        decompose(s)


def test_idempotents_schur_close_under_hadamard(j42_dec):
    """E_i o E_j stays in the idempotent span (Krein expansion exists)."""
    ems = [j42_dec.idempotent(j) for j in range(j42_dec.d + 1)]
    span = np.stack([e.ravel() for e in ems])
    for i in range(len(ems)):
        for j in range(len(ems)):
            had = (ems[i] * ems[j]).ravel()
            coeff, res, _, _ = np.linalg.lstsq(span.T, had, rcond=None)
            rebuilt = span.T @ coeff
            assert np.max(np.abs(rebuilt - had)) < 1e-10
