"""Structure constants of the adjacency algebra and its idempotent basis.

Intersection numbers p_{ij}^k count, for any pair (x, y) in relation k,
the vertices z with (x, z) in relation i and (z, y) in relation j; they
are the structure constants under ordinary matrix multiplication,

    A_i A_j = sum_k p_{ij}^k A_k  (exact integer identity).

Krein parameters q_{ij}^k are the structure constants of the idempotent
basis under the entrywise product, in the convention

    E_i o E_j = (1/n) sum_k q_{ij}^k E_k.

Since E_j takes the value Q[l][j] / n on relation l, and P Q = n I, they
have the closed form in the eigenmatrices

    q_{ij}^k = (1/n) sum_l Q[l][i] Q[l][j] P[k][l]
             = (m_i m_j / n) sum_l conj(P[i][l]) conj(P[j][l]) P[k][l] / k_l^2,

a (d+1)^4 sum that never touches an n x n matrix.  They are real and, for
genuine schemes, nonnegative (the Krein condition); nonnegativity is
certified here, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError
from .schemes import AssociationScheme, require_axioms
from .spectral import BoseMesnerDecomposition

KREIN_TOLERANCE = 1e-9
_TRACE_IDENTITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class IntersectionTensor:
    """p[i][j][k] = p_{ij}^k, exact non-negative integers."""

    d: int
    p: np.ndarray

    def __post_init__(self):
        self.p.setflags(write=False)


@dataclass(frozen=True, eq=False)
class KreinTensor:
    """q[i][j][k] = q_{ij}^k in the convention E_i o E_j = (1/n) sum_k q_{ij}^k E_k."""

    d: int
    q: np.ndarray
    tolerance_used: float = KREIN_TOLERANCE

    def __post_init__(self):
        self.q.setflags(write=False)


def intersection_numbers(s: AssociationScheme) -> IntersectionTensor:
    """Exact intersection numbers, certified on every pair.

    They come out of the axiom-4 pass of `verify_axioms`, which checks
    A_i A_j = sum_k p_{ij}^k A_k entrywise for every i and j; a scheme
    that was already verified returns its kept tensor.  Raises
    ValidationError when the input is not an association scheme.
    """
    return IntersectionTensor(d=s.d, p=require_axioms(s).p)


def krein_parameters(dec: BoseMesnerDecomposition) -> KreinTensor:
    """Krein parameters from the closed form in P and Q, with certification.

    Raises CertificationError if any entry falls below the nonnegativity
    tolerance, if an entry has a non-real residue, or if the trace
    identity sum_k m_k q_{ij}^k = m_i m_j fails.
    """
    eq = dec.eigenmatrix_Q
    m = np.array(dec.multiplicities, dtype=np.float64)
    products = eq[:, :, np.newaxis] * eq[:, np.newaxis, :]  # Q[l][i] Q[l][j]
    raw = np.tensordot(products, dec.eigenmatrix_P, axes=([0], [1])) / dec.n
    raw = (raw + raw.swapaxes(0, 1)) / 2  # exactly symmetric in i and j
    worst_imag = float(np.max(np.abs(raw.imag)))
    if not worst_imag <= KREIN_TOLERANCE:
        raise CertificationError(
            f"Krein parameter with imaginary residue {worst_imag:.3e}; decomposition suspect"
        )
    q = raw.real.copy()

    flat = q.reshape(-1)
    arg = int(np.argmin(flat))
    if flat[arg] < -KREIN_TOLERANCE:
        i, j, k = np.unravel_index(arg, q.shape)
        raise CertificationError(
            f"Krein condition violated: q[{i}][{j}][{k}] = {q[i, j, k]:.3e} "
            f"< -{KREIN_TOLERANCE}"
        )

    traced = np.tensordot(q, m, axes=([2], [0]))  # sum_k q_{ij}^k m_k
    expected = np.outer(m, m)
    residual = float(np.max(np.abs(traced - expected)))
    if residual > _TRACE_IDENTITY_TOL:
        raise CertificationError(
            f"trace identity sum_k m_k q_ij^k = m_i m_j fails with residual {residual:.3e}"
        )
    return KreinTensor(d=dec.d, q=q, tolerance_used=KREIN_TOLERANCE)

