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

from .errors import (
    CertificationError,
    ValidationError,
    is_integer,
    numeric_array,
    require_distribution,
    require_index,
    require_integer,
)
from .parameters import KreinTensor
from .spectral import BoseMesnerDecomposition

# Float-noise negatives are clamped to zero; anything below the hard
# floor is a genuine Krein violation and is rejected.
_CLAMP_FLOOR = -1e-8
_SLICE_SUM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Hypergroup:
    """Convolution tensor on indices {0..d} (its shape gives `size`) plus the multiplicities.

    The constructor certifies its input, whoever built it.  It refuses
    (ValidationError) a convolution that is not a (d+1)^3 array of finite
    real numbers and multiplicities that are not d+1 positive finite real
    numbers, a boolean among them included, and
    (CertificationError) a weight below the clamping floor -1e-8, a
    slice whose total mass strays from 1 by more than 1e-8, and an index
    0 that is not the identity within 1e-8.  The
    stored convolution is a new read-only array: negatives above the
    floor clamped to 0 and the identity slices exact.
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

        low = float(conv.min())
        if low < _CLAMP_FLOOR:
            i, j, k = np.unravel_index(int(np.argmin(conv)), conv.shape)
            raise CertificationError(
                f"convolution weight ({i},{j},{k}) = {low:.3e} below the floor {_CLAMP_FLOOR}"
            )
        conv = np.where(conv < 0.0, 0.0, conv)

        sums = conv.sum(axis=2)
        drift = float(np.max(np.abs(sums - 1.0)))
        if drift > _SLICE_SUM_TOL:
            i, j = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
            raise CertificationError(
                f"convolution slice ({i},{j}) has total mass {float(sums[i, j])!r}, "
                f"off by {drift:.3e}"
            )

        # index 0 is the identity: verify, then store it exactly
        delta = np.eye(size)
        gap = np.abs(conv[0] - delta)
        if gap.max() > _SLICE_SUM_TOL:
            j, k = np.unravel_index(int(np.argmax(gap)), gap.shape)
            raise CertificationError(
                f"index 0 does not act as the hypergroup identity: weight (0,{j},{k}) = "
                f"{conv[0, j, k]:.3e}"
            )
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
    every call returns that one object (see `schemes`); for any other q,
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
