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
algebra, P[t][i] P[t][j] = sum_k p_ij^k P[t][k], and every row is
certified on every pair (i, j).  The identities are evaluated for class
1, and the other classes are bounded from that residual and the
separation of the rows on class 1 by the Davis-Kahan argument spelled
out in `_certify_characters` (C. Davis & W. M. Kahan, SIAM J. Numer.
Anal. 7, 1970): (d+1)^3 work instead of (d+1)^4.  Cyclic group, Johnson
and Grassmann schemes are certified so.  When the bound does not reach
the tolerance, as for dihedral conjugacy schemes, whose class 1 does not
separate the rows, every identity is checked.  The multiplicities and Q
follow from the orthogonality relations (Bannai & Ito 1984, Sections
II.3-4),

    m_t = n / sum_j |P[t][j]|^2 / k_j,   Q[j][t] = m_t conj(P[t][j]) / k_j.

No n x n idempotent is kept: E_j[x][y] = Q[relation[x][y]][j] / n,
and `BoseMesnerDecomposition.idempotent(j)` gathers one on each call.

m, P and Q are functions of p alone, so they are kept on the algebra
record of p, as the `schemes` module docstring describes.

Everything is complex throughout: non-symmetric commutative schemes (e.g.
cyclic group schemes) genuinely have complex characters, and symmetric
ones come out real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, ValidationError, require_index
from .schemes import AssociationScheme, AxiomReport, require_axioms

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

    The scheme is the only argument: m, P and Q are derived from the
    algebra record of its report, as `decompose` describes.  A primitive
    idempotent is gathered from Q by `idempotent(j)` and not kept.
    Equality is identity: float eigenmatrices have no exact value equality.
    """

    scheme: AssociationScheme
    multiplicities: tuple[int, ...] = field(init=False)
    eigenmatrix_P: np.ndarray = field(init=False)
    eigenmatrix_Q: np.ndarray = field(init=False)
    # the algebra record of the scheme's report, which keeps m, P and Q
    _algebra: object = field(init=False, repr=False)

    def __post_init__(self):
        report = require_axioms(self.scheme)
        record = report._algebra
        spectrum = record.derive(
            "spectrum", lambda: _spectrum(report, self.n, self.scheme.valencies()))
        for name, value in zip(("multiplicities", "eigenmatrix_P", "eigenmatrix_Q"), spectrum):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_algebra", record)

    @property
    def n(self) -> int:
        return self.scheme.n

    @property
    def d(self) -> int:
        return self.scheme.d

    def idempotent(self, j: int) -> np.ndarray:
        """A fresh read-only E_j, gathered as E_j[x][y] = Q[relation[x][y]][j] / n."""
        j = require_index(j, self.d + 1, "idempotent index")
        e = (self.eigenmatrix_Q[:, j] / self.n)[self.scheme.relation]
        e.setflags(write=False)
        return e


def _generic_weights(count: int) -> np.ndarray:
    """Seeded complex coefficients of the generic combination."""
    c = np.random.default_rng(_GENERIC_SEED).standard_normal((count, 2))
    return c[:, 0] + 1j * c[:, 1]


def _identity_residual(chars: np.ndarray, p: np.ndarray, k: np.ndarray, h: int) -> np.ndarray:
    """|P[t][g] P[t][j] - sum_k p_gj^k P[t][k]| for the classes g = 1..h and
    every j, indexed (t, g - 1, j); one above _RESIDUAL_TOL k_g k_j is
    refused with its row and classes.  Class 0 needs no check: P[t][0] = 1
    and p_0j^k = delta_jk, so its identities hold exactly."""
    size = len(k)
    # one float GEMM against the real and imaginary parts side by side
    pg = p[1:h + 1].reshape(h * size, size).astype(np.float64)
    products = (pg @ np.ascontiguousarray(chars.T).view(np.float64)).view(np.complex128)
    residual = np.abs(chars[:, 1:h + 1, np.newaxis] * chars[:, np.newaxis, :]
                      - products.reshape(h, size, size).transpose(2, 0, 1))
    relative = residual / (k[1:h + 1, np.newaxis] * k)
    arg = int(np.argmax(relative))
    worst = float(relative.flat[arg])
    if not worst <= _RESIDUAL_TOL:
        t, g, j = np.unravel_index(arg, relative.shape)
        raise CertificationError(
            f"character identities fail with relative residual {worst:.3e} at row {t}, "
            f"classes ({g + 1}, {j}); the generic combination did not separate the characters"
        )
    return residual


def _class_1_gap(chars: np.ndarray, k: np.ndarray) -> float:
    """The least distance between the values P[t][1] / k_1 of two rows;
    NaN if a row is NaN, so that such rows never count as separated."""
    scaled = chars[:, 1] / k[1]
    dist = np.abs(scaled[:, np.newaxis] - scaled)
    dist.flat[::len(k) + 1] = np.inf
    return float(np.min(dist))


def _certify_characters(chars: np.ndarray, p: np.ndarray, k: np.ndarray) -> None:
    """Raise CertificationError unless every row of `chars` satisfies every
    character identity within _RESIDUAL_TOL relative to k_i k_j.

    The identities of class 1 are checked, and the others are bounded
    from that check; the bound alone decides, at every size, whether it
    certifies them.  The bound:
    the L_i = (p_ij^k)_jk commute exactly, and S_i = diag(k)^(-1/2) L_i
    diag(k)^(1/2) are normal, so they have a common orthonormal eigenbasis
    u_s, one vector per character chi_s, on which S_1 / k_1 has the
    eigenvalue chi_s(1) / k_1.  For a row r (r_0 = 1) put
    y = diag(k)^(-1/2) r and

        R_t^2 = sum_j |r_1 r_j - sum_k p_1j^k r_k|^2 / (k_j k_1^2),

    the residual of y.  y has norm >= 1, so its coefficients on the u_s put
    r_1 / k_1 within R_t of some chi_s(1) / k_1.  If the rows are pairwise
    gamma apart there and 2 max R < gamma, distinct rows go to distinct
    characters, every other character is at least gamma - max R away, and
    the part w of y off its own character has |w| <= eps_t =
    R_t / (gamma - max R) (Davis & Kahan's sin theta bound, for normal
    matrices).  Then |r_k - chi_k| <= 2 k_k eps_t and, as
    sum_k p_ij^k k_k = k_i k_j and |chi_k| <= k_k, every identity of row t
    holds within (6 eps_t + 4 eps_t^2) k_i k_j, for all i and j.  The check
    costs (d+1)^3 for the residual and (d+1)^2 for the gap and the bound,
    against (d+1)^4 for every identity.

    A residual above tolerance on class 1 is refused with its row and
    classes.  When the bound does not reach the tolerance, as when class
    1 does not separate the rows (gamma <= 2 max R, so eps is infinite),
    every identity is checked instead.
    """
    size = len(k)
    if size == 1:
        return  # P = [[1]]
    gap = _class_1_gap(chars, k)
    residual = _identity_residual(chars, p, k, 1)[:, 0]
    # max_t R_t; the bound grows with R_t, so the largest decides
    spread = float(np.sqrt(np.max(residual ** 2 @ (1.0 / k)))) / k[1]
    eps = spread / (gap - spread) if 2 * spread < gap else np.inf
    if 6 * eps + 4 * eps ** 2 > _RESIDUAL_TOL:
        _identity_residual(chars, p, k, size - 1)


def decompose(s: AssociationScheme) -> BoseMesnerDecomposition:
    """Characters, multiplicities and eigenmatrices of a commutative
    scheme: `BoseMesnerDecomposition(s)`, its only constructor.

    Reads only the certified intersection numbers p_ij^k and the
    valencies k_j, so m, P and Q are functions of p, kept on its algebra
    record (see `schemes`).

    A row of P is a common eigenvector of the matrices
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
    character identities (naming a row and two classes), the integrality
    of the multiplicities, the identification of E_0 or P Q = n I fail.
    """
    return BoseMesnerDecomposition(s)


def _spectrum(report: AxiomReport, n: int, k: np.ndarray):
    """(multiplicities, P, Q) of a passed report, P and Q read-only, or
    the refusal that `decompose` raises."""
    p = report.p
    if not report.commutative:
        i, j, _ = np.argwhere(p != p.swapaxes(0, 1))[0]
        raise ValidationError(
            f"scheme is not commutative (A_{i} and A_{j} do not commute); "
            "only commutative schemes can be decomposed"
        )
    d = len(k) - 1

    # S_i[j][k] = p_ij^k k_k / sqrt(k_j k_k).  The numerators are exact
    # integers with k_k p_ij^k = k_j p_i'k^j, so S_i^T = S_i' bit for bit
    # and a symmetric scheme gives a real symmetric G + G^H.
    g = np.tensordot(_generic_weights(d + 1), p * k, axes=1) / np.sqrt(np.outer(k, k))
    _, vecs = np.linalg.eigh(g + g.conj().T)
    rows = vecs.T * np.sqrt(k)
    # Complex throughout, as the checks and the sort read its float view.  A
    # degenerate combination can leave a row with entry 0 equal to 0; its
    # NaN residual fails the check too.
    with np.errstate(divide="ignore", invalid="ignore"):
        chars = (rows / rows[:, :1]).astype(np.complex128, copy=False)
        _certify_characters(chars, p, k)

    first = np.flatnonzero(np.max(np.abs(chars - k), axis=1) < _VALENCY_TOL)
    if len(first) != 1:
        raise CertificationError("could not identify the all-ones eigenspace E_0 = J/n")
    # sort keys of row t: -Re P[t][1], -Im P[t][1], -Re P[t][2], ..., rounded
    # (the float view of a complex row interleaves them); lexsort is stable,
    # so ties keep ascending t
    keys = -np.round(np.ascontiguousarray(chars).view(np.float64)[:, 2:], 9)
    order = np.lexsort(keys.T[::-1]) if d else first
    eigmat_p = chars[np.concatenate([first, order[order != first[0]]])]

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

    eigmat_p.setflags(write=False)
    eigmat_q.setflags(write=False)
    return multiplicities, eigmat_p, eigmat_q
