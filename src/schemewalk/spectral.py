"""Spectral decomposition of a commutative scheme's adjacency algebra.

For a commutative association scheme the adjacency matrices A_0..A_d are
simultaneously diagonalizable; the algebra they span has a second basis of
primitive idempotents E_0..E_d (orthogonal projections onto the maximal
common eigenspaces).  `decompose` produces the multiplicities
m_j = rank E_j and the two change-of-basis matrices

    A_j = sum_i P[i][j] E_i        (eigenmatrix P)
    E_j = (1/n) sum_i Q[i][j] A_i  (eigenmatrix Q)

entirely in the (d+1)-dimensional algebra, from the intersection numbers
that `verify_axioms` certifies.  Row t of P is a character of the
algebra, P[t][i] P[t][j] = sum_k p_ij^k P[t][k]; the multiplicities and Q
follow from the orthogonality relations (Bannai & Ito 1984, Sections
II.3-4),

    m_t = n / sum_j |P[t][j]|^2 / k_j,   Q[j][t] = m_t conj(P[t][j]) / k_j.

The n x n idempotents are gathered from Q and the relation matrix only
when `BoseMesnerDecomposition.idempotents` is first read.

Everything is complex throughout: non-symmetric commutative schemes (e.g.
cyclic group schemes) genuinely have complex characters, and symmetric
ones come out real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CertificationError, ValidationError
from .schemes import AssociationScheme, require_axioms

# Seed for the generic-combination coefficients.  Fixed so that repeated
# runs produce bit-identical decompositions.
_GENERIC_SEED = 1729

# Character identities are checked relative to k_i k_j, the size of
# P[t][i] P[t][j]; P Q = n I relative to n.
_RESIDUAL_TOL = 1e-8
_INTEGRALITY_TOL = 1e-6
_VALENCY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class BoseMesnerDecomposition:
    """Spectral data of a commutative scheme: m, P and Q.

    The primitive idempotents are computed on first access and kept.
    Equality is identity: float eigenmatrices have no exact value equality.
    """

    scheme: AssociationScheme
    multiplicities: tuple[int, ...]
    eigenmatrix_P: np.ndarray
    eigenmatrix_Q: np.ndarray

    def __post_init__(self):
        self.eigenmatrix_P.setflags(write=False)
        self.eigenmatrix_Q.setflags(write=False)

    @property
    def n(self) -> int:
        return self.scheme.n

    @property
    def d(self) -> int:
        return self.scheme.d

    @cached_property
    def idempotents(self) -> tuple[np.ndarray, ...]:
        """Read-only E_0..E_d, gathered as E_j[x][y] = Q[relation[x][y]][j] / n."""
        stack = (self.eigenmatrix_Q.T / self.n)[:, self.scheme.relation]
        stack.setflags(write=False)
        return tuple(stack)


def schur(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Entrywise (Hadamard) product of two equal-shaped matrices."""
    a = np.asarray(m1)
    b = np.asarray(m2)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch for entrywise product: {a.shape} vs {b.shape}")
    return a * b


@lru_cache(maxsize=64)
def _generic_weights(count: int) -> np.ndarray:
    """Seeded complex coefficients of the generic combination (read-only, kept per count)."""
    c = np.random.default_rng(_GENERIC_SEED).standard_normal((count, 2))
    weights = c[:, 0] + 1j * c[:, 1]
    weights.setflags(write=False)
    return weights


def decompose(s: AssociationScheme) -> BoseMesnerDecomposition:
    """Characters, multiplicities and eigenmatrices of a commutative scheme.

    Reads only the certified intersection numbers p_ij^k and the
    valencies k_j.  A row of P is a common eigenvector of the matrices
    p_i = (p_ij^k)_jk, scaled so that its entry 0 is 1.  Conjugated by
    diag(sqrt k), p_i turns into S_i with S_i^T = S_i' (i' the transposed
    class), so for one seeded generic combination G = sum c_i S_i the
    matrix G + G^H is Hermitian, its eigenvalues separate the d+1
    characters, and `eigh` returns them in an orthonormal basis.

    Ordering: E_0 (the row equal to the valencies) comes first; the rest
    are sorted by descending real part, then descending imaginary part,
    of their A_1-eigenvalue P[t][1], with ties broken by A_2, A_3, ...

    Raises ValidationError for inputs that fail the scheme axioms or are
    not commutative (p_ij^k != p_ji^k), and CertificationError when the
    character identities, the integrality of the multiplicities, the
    identification of E_0 or P Q = n I fail.
    """
    report = require_axioms(s)
    p = report.p
    if not report.commutative:
        i, j, _ = np.argwhere(p != p.swapaxes(0, 1))[0]
        raise ValidationError(
            f"scheme is not commutative (A_{i} and A_{j} do not commute); "
            "only commutative schemes can be decomposed"
        )
    n, d = s.n, s.d
    k = s.valencies()

    # S_i[j][k] = p_ij^k k_k / sqrt(k_j k_k).  The numerators are exact
    # integers with k_k p_ij^k = k_j p_i'k^j, so S_i^T = S_i' bit for bit
    # and a symmetric scheme gives a real symmetric G + G^H.
    g = np.tensordot(_generic_weights(d + 1), p * k, axes=1) / np.sqrt(np.outer(k, k))
    _, vecs = np.linalg.eigh(g + g.conj().T)
    rows = vecs.T * np.sqrt(k)
    # P[t][i] P[t][j] = sum_k p_ij^k P[t][k].  A degenerate combination can
    # leave a row with entry 0 equal to 0; its NaN residual fails too.
    with np.errstate(divide="ignore", invalid="ignore"):
        chars = rows / rows[:, :1]
        residual = np.abs(chars[:, :, np.newaxis] * chars[:, np.newaxis, :]
                          - np.tensordot(chars, p, axes=([1], [2])))
        worst = float(np.max(residual / np.outer(k, k)))
    if not worst <= _RESIDUAL_TOL:
        raise CertificationError(
            f"character identities fail with relative residual {worst:.3e}; "
            "the generic combination did not separate the characters"
        )

    first = np.flatnonzero(np.max(np.abs(chars - k), axis=1) < _VALENCY_TOL).tolist()
    if len(first) != 1:
        raise CertificationError("could not identify the all-ones eigenspace E_0 = J/n")
    # sort key of row t: [-Re P[t][1], -Im P[t][1], -Re P[t][2], ...], rounded
    rounded = np.round(chars[:, 1:], 9)
    keys = np.stack([-rounded.real, -rounded.imag], axis=2).reshape(d + 1, -1).tolist()
    rest = sorted(set(range(d + 1)) - set(first), key=keys.__getitem__)
    eigmat_p = chars[first + rest]

    mult = n / np.sum(np.abs(eigmat_p) ** 2 / k, axis=1)
    multiplicities = tuple(int(round(float(m))) for m in mult)
    drift = float(np.max(np.abs(mult - multiplicities)))
    if drift > _INTEGRALITY_TOL:
        raise CertificationError(
            f"multiplicities {mult.tolist()} are not integral within {_INTEGRALITY_TOL}"
        )
    if sum(multiplicities) != n:
        raise CertificationError(
            f"multiplicities {list(multiplicities)} do not sum to n={n}"
        )

    eigmat_q = np.array(multiplicities) * eigmat_p.conj().T / k[:, np.newaxis]
    pq_residual = float(np.max(np.abs(eigmat_p @ eigmat_q - n * np.eye(d + 1))))
    if pq_residual > _RESIDUAL_TOL * n:
        raise CertificationError(f"PQ = nI fails with residual {pq_residual:.3e}")

    return BoseMesnerDecomposition(
        scheme=s,
        multiplicities=multiplicities,
        eigenmatrix_P=eigmat_p,
        eigenmatrix_Q=eigmat_q,
    )
