"""The commutative hypergroup induced on normalized idempotents.

The normalized idempotents e_j = E_j / m_j of a commutative scheme close
under the entrywise product.  The weights come from the multiplicities
and the Krein tensor alone, so the E_j themselves are never formed here:

    e_i o e_j = sum_k (e_i * e_j)(k) e_k,
    (e_i * e_j)(k) = (m_k / (m_i m_j)) q_{ij}^k,

and each weight vector (e_i * e_j)(.) is a probability distribution over
the indices {0..d} -- nonnegativity is the Krein condition and the total
mass 1 follows from the trace identity sum_k m_k q_{ij}^k = m_i m_j.
(The raw weights are used as-is; dividing additionally by the vertex
count, as is sometimes seen, would give every slice total mass 1/n.)

Convolving with a fixed index (or a convex combination of indices) turns
the hypergroup into a classical Markov chain on {0..d}; its stationary
law is the Plancherel distribution k -> m_k / n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import (
    ValidationError,
    is_integer,
    numeric_array,
    refuse,
    require_distribution,
    require_index,
    require_integer,
)
from .parameters import KreinTensor
from .spectral import BoseMesnerDecomposition


@dataclass(frozen=True, eq=False)
class Hypergroup:
    """Convolution tensor on indices {0..d} (its shape gives `size`) plus the multiplicities.

    The constructor certifies its input, whoever built it.  It refuses
    (ValidationError) a convolution that is not a (d+1)^3 array of finite
    real numbers and multiplicities that are not d+1 positive finite real
    numbers, a boolean among them included, and
    (CertificationError) a weight below errors.CLAMP_FLOOR, a slice whose
    total mass strays from 1, or an index 0 that is not the identity, by
    more than errors.SLICE_SUM_TOL.  The stored
    convolution is a new read-only array: negatives above the floor
    clamped to 0 and the identity slices exact.
    """

    convolution: np.ndarray
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        conv = numeric_array(self.convolution, "convolution", kinds="iuf", ndim=3).astype(
            np.float64, copy=False)
        size = conv.shape[0]
        mults = numeric_array(self.multiplicities, "multiplicities", kinds="iuf", ndim=1,
                              size=size)
        if not np.all(mults > 0):
            raise ValidationError(
                f"multiplicities must be positive and finite, got {mults.tolist()}")

        if conv.min() < errors.CLAMP_FLOOR:
            refuse("convolution weight >= 0", -conv, -errors.CLAMP_FLOOR)
        conv = np.where(conv < 0.0, 0.0, conv)

        drift = np.abs(conv.sum(axis=2) - 1.0)
        if drift.max() > errors.SLICE_SUM_TOL:
            refuse("total mass 1 of a convolution slice", drift, errors.SLICE_SUM_TOL)

        # index 0 is the identity: verify, then store it exactly
        delta = np.eye(size)
        gap = np.abs(conv[0] - delta)
        if gap.max() > errors.SLICE_SUM_TOL:
            refuse("index 0 as the hypergroup identity", gap, errors.SLICE_SUM_TOL,
                   lambda j, k: f"weight (0, {j}, {k})")
        conv[0] = delta
        conv[:, 0, :] = delta
        conv.setflags(write=False)
        object.__setattr__(self, "convolution", conv)
        object.__setattr__(self, "multiplicities", tuple(mults.tolist()))

    @property
    def size(self) -> int:
        return self.convolution.shape[0]

    def plancherel(self) -> np.ndarray:
        m = np.array(self.multiplicities, dtype=np.float64)
        return m / m.sum()


def hypergroup_from(dec: BoseMesnerDecomposition, q: KreinTensor) -> Hypergroup:
    """The hypergroup of a decomposition and its Krein tensor, certified
    by the `Hypergroup` constructor.

    When q is the tensor kept on the decomposition's algebra record, as
    `krein_parameters` returns it, the hypergroup is kept there too and
    every call returns that one object (see `_store`); for any other q,
    a hand-built one equal in value included, it is computed and
    certified on each call.
    """
    if q.d != dec.d:
        raise ValidationError(
            f"Krein tensor has d={q.d} but decomposition has d={dec.d}"
        )
    if q is not dec._algebra.krein:
        return _hypergroup(dec, q)
    return dec._algebra.derive("hypergroup", lambda: _hypergroup(dec, q))


def _hypergroup(dec: BoseMesnerDecomposition, q: KreinTensor) -> Hypergroup:
    m = np.array(dec.multiplicities, dtype=np.float64)
    conv = q.q * m[np.newaxis, np.newaxis, :] / np.outer(m, m)[:, :, np.newaxis]
    return Hypergroup(conv, dec.multiplicities)


def _measure(h: Hypergroup, value, what: str) -> np.ndarray:
    """`value` as a measure on {0..d}: an index is a point mass, anything
    else must be a distribution of length d + 1."""
    if is_integer(value):
        measure = np.zeros(h.size)
        measure[require_index(value, h.size, f"{what} index")] = 1.0
        return measure
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{what} must be an index or a distribution, not {value!r}")
    return require_distribution(value, f"{what} distribution", size=h.size)


def convolve(h: Hypergroup, mu, nu) -> np.ndarray:
    """Bilinear extension (mu * nu)(k) = sum_ij mu(i) nu(j) conv[i][j][k];
    `mu` and `nu` are each an index or a distribution."""
    a = _measure(h, mu, "left measure")
    b = _measure(h, nu, "right measure")
    return np.einsum("i,j,ijk->k", a, b, h.convolution)


def classical_chain(h: Hypergroup, coin) -> np.ndarray:
    """Column-stochastic transition matrix of convolution with the coin.

    T[k][j] = probability of moving j -> k, so distributions evolve as
    column vectors under T @ v.
    """
    c = _measure(h, coin, "coin")
    # T[k][j] = sum_i c_i conv[i][j][k]
    return np.einsum("i,ijk->kj", c, h.convolution)


def walk(h: Hypergroup, coin, start, steps: int) -> list[np.ndarray]:
    """Iterate the coin chain from `start`, an index or a distribution;
    returns steps+1 distributions."""
    steps = require_integer(steps, "steps", minimum=0)
    t = classical_chain(h, coin)
    current = _measure(h, start, "start")
    history = [current]
    for _ in range(steps):
        current = t @ current
        history.append(current)
    return history
