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

a (d+1)^4 sum that never touches an n x n matrix.  q_{ij}^k = q_{ji}^k, so
it is evaluated as one GEMM over the (d+1)(d+2)/2 pairs i <= j and each
result is written to (i, j) and (j, i).  They are real and, for genuine
schemes, nonnegative (the Krein condition); nonnegativity is certified
here, not assumed.  q, like m, P and Q, is a function of p, so it is
kept on the algebra record of p (see `_store`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import errors
from .errors import ValidationError, check, numeric_array
from .schemes import AssociationScheme, require_axioms
from .spectral import BoseMesnerDecomposition


@dataclass(frozen=True, eq=False)
class IntersectionTensor:
    """p[i][j][k] = p_{ij}^k, exact non-negative integers; d is read from the shape.
    Input that is not a non-empty integer (d+1)^3 array is refused.  A
    writeable p is copied before it is frozen, so the caller's array is
    left as it was; a read-only int64 p, as `intersection_numbers`
    passes, is wrapped as it is.

    p is certified exactly, in O((d+1)^3): p >= 0, p_0j^k = delta_jk (A_0
    is the identity) and sum_j p_ij^k = k_i for every k, with k_i =
    sum_j p_ij^0 (each vertex has k_i i-neighbours).  A refusal names its
    indices."""

    d: int = field(init=False)
    p: np.ndarray

    def __post_init__(self):
        p = numeric_array(self.p, "intersection tensor", ndim=3)
        if p.flags.writeable or p.dtype != np.int64:
            p = p.astype(np.int64)
            p.setflags(write=False)
        if p.min() < 0:
            i, j, k = np.argwhere(p < 0)[0]
            raise ValidationError(f"intersection number p[{i}][{j}][{k}] = {p[i, j, k]} < 0")
        unit = np.eye(len(p), dtype=np.int64)
        if not np.array_equal(p[0], unit):
            j, k = np.argwhere(p[0] != unit)[0]
            raise ValidationError(
                f"intersection number p[0][{j}][{k}] = {p[0, j, k]} is not delta_jk")
        sums = p.sum(axis=1)                    # sums[i, k] = sum_j p_ij^k
        if not np.all(sums == sums[:, :1]):
            i, k = np.argwhere(sums != sums[:, :1])[0]
            raise ValidationError(
                f"sum_j p[{i}][j][{k}] = {sums[i, k]} differs from k_{i} = {sums[i, 0]}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", p.shape[0] - 1)


@dataclass(frozen=True, eq=False)
class KreinTensor:
    """q[i][j][k] = q_{ij}^k in the convention E_i o E_j = (1/n) sum_k q_{ij}^k E_k;
    d is read from the shape.  A hand-built q is outside input, so one that
    is not a finite real (d+1)^3 array is refused."""

    d: int = field(init=False)
    q: np.ndarray

    def __post_init__(self):
        q = numeric_array(self.q, "Krein tensor", kinds="iuf", ndim=3).astype(np.float64)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", q.shape[0] - 1)


def intersection_numbers(s: AssociationScheme) -> IntersectionTensor:
    """Exact intersection numbers, certified on every pair.

    They come out of the axiom-4 pass of `verify_axioms`, which checks
    A_i A_j = sum_k p_{ij}^k A_k entrywise for every i and j.  The tensor
    is certified once per algebra record, and every call returns the one
    object kept there (see `_store`).
    Raises ValidationError when the input is not an association scheme.
    """
    record = require_axioms(s)._algebra
    return record.derive("intersection", lambda: IntersectionTensor(record.p))


def krein_parameters(dec: BoseMesnerDecomposition) -> KreinTensor:
    """Krein parameters from the closed form in P and Q, with certification.

    One GEMM over the (d+1)(d+2)/2 pairs i <= j gives every distinct
    entry; each is written to (i, j) and (j, i), so q is exactly symmetric
    in i and j.  Raises CertificationError if any entry falls below the
    nonnegativity tolerance, if an entry has a non-real residue, or if the
    trace identity sum_k m_k q_{ij}^k = m_i m_j fails.  Every call
    returns the one tensor kept on the algebra record (see `_store`).
    """
    return dec._algebra.derive("krein", lambda: _krein(dec))


def _krein(dec: BoseMesnerDecomposition) -> KreinTensor:
    eq = dec.eigenmatrix_Q
    size = dec.d + 1
    m = np.array(dec.multiplicities, dtype=np.float64)
    order = np.arange(size)
    iu, ju = np.nonzero(order[:, np.newaxis] <= order)  # the pairs i <= j, in C order
    # raw[(i,j)][k] = (1/n) sum_l Q[l][i] Q[l][j] P[k][l]
    raw = (eq[:, iu] * eq[:, ju]).T @ dec.eigenmatrix_P.T / dec.n
    imag = np.abs(raw.imag)
    name = lambda pair, k: f"q[{iu[pair]}][{ju[pair]}][{k}]"  # noqa: E731
    check("zero imaginary residue of q", imag, errors.KREIN_TOLERANCE, name)
    upper = raw.real

    # the pairs run through i <= j in C order, so the first minimum here
    # is the first in q, where (i, j, k) precedes its twin (j, i, k)
    check("Krein condition q_ij^k >= 0", -upper, errors.KREIN_TOLERANCE,
          lambda pair, k: f"{name(pair, k)} = {upper[pair, k]:.3e}")

    residual = np.abs(upper @ m - m[iu] * m[ju])
    check("trace identity sum_k m_k q_ij^k = m_i m_j", residual, errors.TRACE_IDENTITY_TOL,
          lambda pair: f"(i, j) = ({iu[pair]}, {ju[pair]})")
    q = np.empty((size, size, size))
    q[iu, ju] = upper
    q[ju, iu] = upper
    return KreinTensor(q)
