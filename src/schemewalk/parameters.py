"""Structure constants of the adjacency algebra and its idempotent basis.

Intersection numbers p_{ij}^k count, for any pair (x, y) in relation k,
the vertices z with (x, z) in relation i and (z, y) in relation j; they
are the structure constants under ordinary matrix multiplication,

    A_i A_j = sum_k p_{ij}^k A_k  (exact integer identity).

Krein parameters q_{ij}^k are the structure constants of the idempotent
basis under the entrywise product, in the convention

    E_i o E_j = (1/n) sum_k q_{ij}^k E_k,

extracted by the trace pairing q_{ij}^k = (n/m_k) tr((E_i o E_j) E_k).
They are real and, for genuine schemes, nonnegative (the Krein
condition); nonnegativity is certified here, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError
from .schemes import AssociationScheme, require_axioms
from .spectral import BoseMesnerDecomposition

KREIN_TOLERANCE = 1e-9
_TRACE_IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class IntersectionTensor:
    """p[i][j][k] = p_{ij}^k, exact non-negative integers."""

    d: int
    p: np.ndarray

    def __post_init__(self):
        self.p.setflags(write=False)


@dataclass(frozen=True)
class KreinTensor:
    """q[i][j][k] = q_{ij}^k in the convention E_i o E_j = (1/n) sum_k q_{ij}^k E_k."""

    d: int
    q: np.ndarray
    tolerance_used: float = KREIN_TOLERANCE

    def __post_init__(self):
        self.q.setflags(write=False)


@dataclass(frozen=True)
class KreinReport:
    passed: bool
    violations: tuple[tuple[int, int, int, float], ...]
    tolerance: float


def intersection_numbers(s: AssociationScheme) -> IntersectionTensor:
    """Exact intersection numbers, certified on every pair.

    They come out of the axiom-4 pass of `verify_axioms`, which checks
    A_i A_j = sum_k p_{ij}^k A_k entrywise for every i and j; a scheme
    that was already verified returns its kept tensor.  Raises
    ValidationError when the input is not an association scheme.
    """
    return IntersectionTensor(d=s.d, p=require_axioms(s).p)


def krein_parameters(dec: BoseMesnerDecomposition) -> KreinTensor:
    """Krein parameters via the trace pairing, with certification.

    Raises CertificationError if any entry falls below the nonnegativity
    tolerance, if an entry has a non-real residue, or if the trace
    identity sum_k m_k q_{ij}^k = m_i m_j fails.
    """
    n, d = dec.n, dec.d
    ems = dec.idempotents
    m = np.array(dec.multiplicities, dtype=np.float64)
    q = np.empty((d + 1, d + 1, d + 1), dtype=np.float64)
    worst_imag = 0.0
    for i in range(d + 1):
        for j in range(i, d + 1):
            had = ems[i] * ems[j]
            for k in range(d + 1):
                # tr(X E_k) with E_k Hermitian: sum over entries of X * conj(E_k)
                val = complex(np.sum(had * ems[k].conj())) * (n / m[k])
                worst_imag = max(worst_imag, abs(val.imag))
                q[i, j, k] = val.real
                q[j, i, k] = val.real
    if worst_imag > KREIN_TOLERANCE:
        raise CertificationError(
            f"Krein parameter with imaginary residue {worst_imag:.3e}; decomposition suspect"
        )

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
    return KreinTensor(d=d, q=q, tolerance_used=KREIN_TOLERANCE)


def check_krein_condition(q: KreinTensor, tolerance: float = KREIN_TOLERANCE) -> KreinReport:
    """List every entry below -tolerance; empty for valid schemes."""
    violations = []
    for (i, j, k), val in np.ndenumerate(q.q):
        if val < -tolerance:
            violations.append((int(i), int(j), int(k), float(val)))
    return KreinReport(passed=not violations, violations=tuple(violations), tolerance=tolerance)
