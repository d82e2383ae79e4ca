"""Spectral decomposition of a commutative scheme's adjacency algebra.

For a commutative association scheme the adjacency matrices A_0..A_d are
simultaneously diagonalizable; the algebra they span has a second basis of
primitive idempotents E_0..E_d (orthogonal projections onto the maximal
common eigenspaces).  `decompose` produces that basis along with the
multiplicities m_j = rank E_j and the two change-of-basis matrices

    A_j = sum_i P[i][j] E_i        (eigenmatrix P)
    E_j = (1/n) sum_i Q[i][j] A_i  (eigenmatrix Q)

Everything is complex throughout: non-symmetric commutative schemes (e.g.
cyclic group schemes) genuinely need complex idempotents, and symmetric
ones simply come out real within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ValidationError
from .schemes import AssociationScheme, require_axioms

# Seed for the generic-combination coefficients.  Fixed so that repeated
# runs produce bit-identical decompositions.
_GENERIC_SEED = 1729

# Two eigenvalues are considered equal when they differ by less than
# _GROUP_RTOL times the spectral scale (scheme eigenvalues are algebraic
# integers, well separated at the sizes in scope).
_GROUP_RTOL = 1e-8

_RESIDUAL_TOL = 1e-8
_INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class BoseMesnerDecomposition:
    """Primitive idempotents of a commutative scheme, with spectral data.

    Equality is identity: float idempotents have no exact value equality.
    """

    scheme: AssociationScheme
    idempotents: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]
    eigenmatrix_P: np.ndarray
    eigenmatrix_Q: np.ndarray

    def __post_init__(self):
        for e in self.idempotents:
            e.setflags(write=False)
        self.eigenmatrix_P.setflags(write=False)
        self.eigenmatrix_Q.setflags(write=False)

    @property
    def n(self) -> int:
        return self.scheme.n

    @property
    def d(self) -> int:
        return self.scheme.d


def schur(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Entrywise (Hadamard) product of two equal-shaped matrices."""
    a = np.asarray(m1)
    b = np.asarray(m2)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch for entrywise product: {a.shape} vs {b.shape}")
    return a * b

def schur_identity(n: int) -> np.ndarray:
    """The all-ones matrix J, the unit of the entrywise product."""
    if n < 1:
        raise ValidationError("size must be >= 1")
    return np.ones((n, n))


def _cluster(values: np.ndarray) -> list[np.ndarray]:
    """Group indices of a real vector into runs of nearly equal values."""
    order = np.argsort(values)
    tol = _GROUP_RTOL * max(1.0, float(np.abs(values).max()))
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] < tol:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return [np.array(g) for g in groups]


def decompose(s: AssociationScheme) -> BoseMesnerDecomposition:
    """Simultaneously diagonalize the adjacency matrices of `s`.

    Strategy: eigendecompose one Hermitian generic combination of the
    A_j and their transposes, then refine each eigenspace against the
    Hermitian and anti-Hermitian parts of every A_j until all act as
    scalars.  Refinement uses `eigh` throughout, so bases stay
    orthonormal, and subspaces whose full eigenvalue vectors agree are
    merged (guards against accidental splits at the clustering
    tolerance).

    Ordering: the all-ones eigenspace (E_0 = J/n) comes first; the rest
    are sorted by descending real part, then descending imaginary part,
    of their A_1-eigenvalue, with ties broken by A_2, A_3, ...

    Commutativity is read from the intersection numbers that
    `verify_axioms` certifies (A_i A_j = A_j A_i iff p_ij^k = p_ji^k).

    Raises ValidationError for inputs that fail the scheme axioms or are
    not commutative, and CertificationError when any reconstruction or
    consistency residual exceeds tolerance.
    """
    report = require_axioms(s)
    if not report.commutative:
        i, j, _ = np.argwhere(report.p != report.p.swapaxes(0, 1))[0]
        raise ValidationError(
            f"scheme is not commutative (A_{i} and A_{j} do not commute); "
            "only commutative schemes can be decomposed"
        )
    n, d = s.n, s.d
    mats = [a.astype(np.float64) for a in s.adjacency_matrices()]

    rng = np.random.default_rng(_GENERIC_SEED)
    generic = np.zeros((n, n), dtype=np.complex128)
    for a in mats:
        c, cp = rng.standard_normal(2)
        generic += c * (a + a.T) + cp * 1j * (a - a.T)
    eigvals, eigvecs = np.linalg.eigh(generic)

    subspaces = [eigvecs[:, idx] for idx in _cluster(eigvals)]

    # Hermitian/anti-Hermitian parts of each A_j; both Hermitian, both in
    # the (complexified) algebra, so their eigenspaces refine compatibly.
    parts = []
    for a in mats:
        parts.append((a + a.T) / 2.0)
        parts.append(-0.5j * (a - a.T))
    for part in parts:
        refined = []
        for basis in subspaces:
            if basis.shape[1] == 1:
                refined.append(basis)
                continue
            comp = basis.conj().T @ part @ basis
            vals, vecs = np.linalg.eigh(comp)
            clusters = _cluster(vals)
            if len(clusters) == 1:
                refined.append(basis)
            else:
                refined.extend(basis @ vecs[:, idx] for idx in clusters)
        subspaces = refined

    # eigenvalue vector of each subspace, then merge equal vectors
    def eig_vector(basis: np.ndarray) -> np.ndarray:
        return np.array(
            [np.trace(basis.conj().T @ a @ basis) / basis.shape[1] for a in mats]
        )

    merged: list[tuple[np.ndarray, list[np.ndarray]]] = []
    for basis in subspaces:
        vec = eig_vector(basis)
        for known, bases in merged:
            if np.max(np.abs(known - vec)) < 1e-7:
                bases.append(basis)
                break
        else:
            merged.append((vec, [basis]))

    if len(merged) != d + 1:
        raise CertificationError(
            f"eigenspace refinement found {len(merged)} common eigenspaces, "
            f"expected {d + 1}"
        )

    spaces = [(vec, np.hstack(bases)) for vec, bases in merged]

    # identify the all-ones eigenspace (eigenvalue vector = valencies)
    valencies = s.valencies().astype(np.float64)
    first = [t for t, (vec, basis) in enumerate(spaces)
             if basis.shape[1] == 1 and np.max(np.abs(vec - valencies)) < 1e-6]
    if len(first) != 1:
        raise CertificationError("could not identify the all-ones eigenspace E_0 = J/n")

    rest = [t for t in range(d + 1) if t != first[0]]
    rest.sort(key=lambda t: tuple(
        (-round(spaces[t][0][j].real, 9), -round(spaces[t][0][j].imag, 9))
        for j in range(1, d + 1)
    ))
    order = first + rest

    idempotents = []
    multiplicities = []
    eigmat_p = np.empty((d + 1, d + 1), dtype=np.complex128)
    for row, t in enumerate(order):
        vec, basis = spaces[t]
        e = basis @ basis.conj().T
        idempotents.append(e)
        eigmat_p[row] = vec
        tr = float(np.trace(e).real)
        if abs(tr - round(tr)) > _INTEGRALITY_TOL:
            raise CertificationError(
                f"trace of idempotent {row} is {tr}, not integral within {_INTEGRALITY_TOL}"
            )
        multiplicities.append(int(round(tr)))
    if sum(multiplicities) != n:
        raise CertificationError(
            f"multiplicities {multiplicities} do not sum to n={n}"
        )

    # certify the reconstruction A_j = sum_i P[i][j] E_i
    stack = np.stack(idempotents)
    for j in range(d + 1):
        approx = np.tensordot(eigmat_p[:, j], stack, axes=1)
        residual = float(np.max(np.abs(mats[j] - approx)))
        if residual > _RESIDUAL_TOL:
            raise CertificationError(
                f"eigenspace refinement failed: A_{j} reconstruction residual {residual:.3e}"
            )

    # Q by class-averaging idempotent entries: E_j is constant on each
    # relation class, so Q[i][j] = n * (that constant).
    eigmat_q = np.empty((d + 1, d + 1), dtype=np.complex128)
    rel = s.relation
    for i in range(d + 1):
        mask = rel == i
        for j in range(d + 1):
            eigmat_q[i, j] = n * idempotents[j][mask].mean()
    pq_residual = float(np.max(np.abs(eigmat_p @ eigmat_q - n * np.eye(d + 1))))
    if pq_residual > _RESIDUAL_TOL:
        raise CertificationError(f"PQ = nI fails with residual {pq_residual:.3e}")

    return BoseMesnerDecomposition(
        scheme=s,
        idempotents=tuple(idempotents),
        multiplicities=tuple(multiplicities),
        eigenmatrix_P=eigmat_p,
        eigenmatrix_Q=eigmat_q,
    )
