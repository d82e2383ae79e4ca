"""Quantum Markov chain machinery.

Five pieces:

* Schur-multiplier channels M -> e o M.  Complete positivity is decided
  by one spectrum: the Choi matrix is the multiplier spread onto the
  pair indices (a, a) plus n^2 - n zeros, so CP holds iff the multiplier
  is positive semidefinite.  The multiplier's least eigenvalue is one
  `eigvalsh` per channel, kept on it for `certify_cp` and
  `iterate_channel`; the dense Choi matrix is the test oracle.
* Unitary dilation of a probability vector p: an orthogonal matrix whose
  first row is (sqrt(p_0), ..., sqrt(p_{d-1})).
* Entangled transition expectations E(M (x) N) = V' (M (x) N) V for the
  isometry V|e_i> = sum_j sqrt(P[i][j]) |e_i>|e_j> of a row-stochastic P;
  unital and completely positive by construction (Stinespring form).
  They are evaluated in the closed form M o (sqrtP N sqrtP^T) (Accardi &
  Fidaleo 2005) without forming V; see `TransitionExpectation`.
  The classical chain sits on the diagonal: E(I (x) diag(v)) = diag(P v).
* Chain iteration: one array operation, a trace and a division per
  step; positivity of every state is certified after the loop, by a
  bound carried over the stacked diagonals (see `iterate_channel`).
* The Szegedy walk U = S(2 A A' - I) of a stochastic matrix D, unitary by
  the isometry certificate A'A = I and filled in one pass from its closed
  form; A, Pi and S are never formed (see `WalkOperator`).

Stochasticity conventions: transition expectations take row-stochastic
matrices; `WalkOperator` accepts either convention via a flag and works
column-stochastic internally.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from . import errors
from .errors import (
    CertificationError,
    ValidationError,
    numeric_array,
    refuse,
    require_distribution,
    require_integer,
    require_within_cap,
)

_PAIR_SPACE_MAX_VERTICES = 64


def _column_stochastic(d_matrix, convention: str) -> np.ndarray:
    """The input, transposed if `convention` is "row", checked to be
    column-stochastic within errors.STOCHASTIC_TOL and clipped at 0."""
    mat = np.asarray(numeric_array(d_matrix, "stochastic matrix", "iuf", ndim=2), np.float64)
    if convention not in ("column", "row"):
        raise ValidationError(f"convention must be 'column' or 'row', got {convention!r}")
    if mat.min() < -errors.STOCHASTIC_TOL:
        refuse("stochastic matrix entry >= 0", -mat, errors.STOCHASTIC_TOL, error=ValidationError)
    mat = np.clip(mat, 0.0, None)
    col = mat if convention == "column" else mat.T
    drift = np.abs(col.sum(axis=0) - 1.0)
    if drift.max() > errors.STOCHASTIC_TOL:
        refuse(f"{convention}-stochastic mass 1", drift,
               errors.STOCHASTIC_TOL, lambda v: f"state {v}", ValidationError)
    return col


@dataclass(frozen=True, eq=False)
class SchurChannel:
    """The map M -> multiplier o M (entrywise product)."""

    multiplier: np.ndarray

    def __post_init__(self):
        e = numeric_array(self.multiplier, "multiplier", "iufc", ndim=2).astype(np.complex128)
        gap = np.abs(e - e.conj().T)
        if gap.max() > errors.PSD_TOL:
            refuse("Hermitian multiplier", gap, errors.PSD_TOL, error=ValidationError)
        e.setflags(write=False)
        object.__setattr__(self, "multiplier", e)

    @property
    def dim(self) -> int:
        return self.multiplier.shape[0]

    @cached_property
    def _multiplier_min(self) -> float:
        """Least eigenvalue of the multiplier, read by `certify_cp` and
        `iterate_channel`; one `eigvalsh` per channel."""
        return float(np.linalg.eigvalsh(self.multiplier).min())


@dataclass(frozen=True)
class CPReport:
    """The least eigenvalues of the Choi matrix and of the multiplier;
    the verdicts are read from them under `errors.PSD_TOL`."""

    choi_min_eigenvalue: float
    multiplier_min_eigenvalue: float

    @property
    def is_cp(self) -> bool:
        return self.choi_min_eigenvalue >= -errors.PSD_TOL

    @property
    def verdicts_agree(self) -> bool:
        return self.is_cp == (self.multiplier_min_eigenvalue >= -errors.PSD_TOL)


def schur_channel_apply(c: SchurChannel, m) -> np.ndarray:
    return c.multiplier * numeric_array(m, "matrix", "iufc", ndim=2, size=c.dim)


def certify_cp(c: SchurChannel) -> CPReport:
    """Certify complete positivity from the multiplier's spectrum.

    The Choi matrix of a Schur channel holds e[a][b] at (a*n+a, b*n+b) and
    zeros elsewhere (Choi, Linear Algebra Appl. 10, 1975), so both verdicts
    come from the multiplier's least eigenvalue kept on the channel, and
    agree by construction; for n > 1 `choi_min_eigenvalue` is it capped at
    the padded 0.0.  Down to -`errors.PSD_TOL` counts as semidefinite.  The
    dense Choi matrix (at most 64 dimensions) is the tests' oracle.
    """
    mult_min = c._multiplier_min
    return CPReport(min(mult_min, 0.0) if c.dim > 1 else mult_min, mult_min)


def dilation_unitary(p) -> np.ndarray:
    """Orthogonal matrix carrying the distribution p in its first row.

    U[0][j] = sqrt(p_j); U[i][0] = -sqrt(p_i); and for i, j >= 1
    U[i][j] = delta_ij - sqrt(p_i p_j) / (1 + sqrt(p_0)).  Orthogonality
    is exact algebra up to the mass error of p, which `require_distribution`
    bounds; the construction only takes square roots.
    """
    vec = require_distribution(p, "distribution")
    root = np.sqrt(vec)
    d = vec.size
    u = np.eye(d)
    u[0, :] = root
    u[1:, 0] = -root[1:]
    u[1:, 1:] -= np.outer(root[1:], root[1:]) / (1.0 + root[0])
    return u


def _certify_isometry(root: np.ndarray, name: str) -> None:
    """name'name = I within errors.ISOMETRY_TOL for the n^2 x n isometry whose
    column i is e_i (x) row i of `root`.  Its columns have disjoint supports,
    so name'name is diagonal, with the row sums of root**2 on the diagonal:
    an O(n^2) check."""
    residual = np.abs((root * root).sum(axis=1) - 1.0)
    if residual.max() > errors.ISOMETRY_TOL:
        refuse(f"{name}'{name} = I", residual, errors.ISOMETRY_TOL, lambda i: f"({i}, {i})")


@dataclass(frozen=True, eq=False)
class TransitionExpectation:
    """The entangled transition expectation of a row-stochastic P, its only
    argument.  `dim` and the entrywise root `sqrt_transition` are derived,
    and V'V = I is certified, when it is built."""

    transition: np.ndarray
    dim: int = field(init=False)
    sqrt_transition: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _column_stochastic(self.transition, "row").T
        root = np.sqrt(mat)
        _certify_isometry(root, "V")
        for array in (mat, root):
            array.setflags(write=False)
        object.__setattr__(self, "transition", mat)
        object.__setattr__(self, "dim", mat.shape[0])
        object.__setattr__(self, "sqrt_transition", root)


def make_transition_expectation(p) -> TransitionExpectation:
    """The transition expectation of the row-stochastic matrix p."""
    return TransitionExpectation(p)


def apply_transition_expectation(te: TransitionExpectation, m, n) -> np.ndarray:
    """E(M (x) N) = V' (M (x) N) V, evaluated as M o (sqrtP N sqrtP^T).

    V e_j = sum_l sqrtP[j][l] e_j (x) e_l, so entry (i, j) of the product
    is M[i][j] sum_{k,l} sqrtP[i][k] N[k][l] sqrtP[j][l]: O(d^3) time and
    O(d^2) memory, and V is never formed.
    """
    a = numeric_array(m, "site matrix M", "iufc", ndim=2, size=te.dim)
    b = numeric_array(n, "site matrix N", "iufc", ndim=2, size=te.dim)
    root = te.sqrt_transition
    return a * (root @ b @ root.T)


def _dual_parts(root: np.ndarray, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The real products (root^T Re diag) root and (root^T Im diag) root;
    the second is None, and not formed, when diag has no imaginary part."""
    real = (root.T * diag.real) @ root
    if not np.iscomplexobj(diag) or not diag.imag.any():
        return real, None
    return real, (root.T * diag.imag) @ root


def _widen(real: np.ndarray, imag: np.ndarray | None) -> np.ndarray:
    out = real.astype(np.complex128)
    if imag is not None:
        out.imag = imag
    return out


def transition_expectation_dual(te: TransitionExpectation, rho: np.ndarray) -> np.ndarray:
    """One site-to-site step of the chain in the state picture.

    rho -> Tr_1(V rho V') = sum_i rho_ii |r_i><r_i| with |r_i> the
    entrywise root of row i of P, evaluated as (sqrtP^T diag(rho)) sqrtP
    in real arithmetic: one product for the real part of diag(rho), and
    one for its imaginary part only if it has one.  Trace-preserving
    (each |r_i> is a unit vector) and embeds the classical chain on the
    diagonal.  A complex rho gives a complex128 image, a real rho a real
    one.
    """
    r = numeric_array(rho, "density matrix", "iufc", ndim=2, size=te.dim)
    real, imag = _dual_parts(te.sqrt_transition, np.diagonal(r))
    return _widen(real, imag) if np.iscomplexobj(r) else real


@dataclass(frozen=True, eq=False)
class ChannelTrajectory:
    states: tuple[np.ndarray, ...]
    trace_factors: tuple[float, ...]


def _check_density(rho: np.ndarray, dim: int) -> tuple[np.ndarray, float]:
    """The validated density matrix as complex128, and its least eigenvalue."""
    r = numeric_array(rho, "density matrix", "iufc", ndim=2, size=dim).astype(np.complex128)
    gap = np.abs(r - r.conj().T)
    if gap.max() > errors.PSD_TOL:
        refuse("Hermitian density matrix", gap, errors.PSD_TOL, error=ValidationError)
    trace = float(np.trace(r).real)
    if abs(trace - 1.0) > errors.MASS_TOL:
        refuse("trace 1 of the density matrix", abs(trace - 1.0), errors.MASS_TOL,
               f"trace {trace!r}", ValidationError)
    low = float(np.linalg.eigvalsh(r).min())
    if low < -errors.PSD_TOL:
        refuse("positivity of the density matrix", -low, errors.PSD_TOL, f"eigenvalue {low:.3e}",
               ValidationError)
    return r, low


def iterate_channel(channel, rho0, steps: int) -> ChannelTrajectory:
    """Run a quantum chain, renormalizing trace-decreasing channels.

    `channel` is a SchurChannel (state picture: rho -> e o rho, not
    generally trace-preserving, so each step's trace is divided out and
    reported) or a TransitionExpectation (its state-picture dual
    `transition_expectation_dual`, which is trace-preserving; factors
    come out 1).  Complete positivity is a precondition and is certified
    before iterating, from the multiplier eigenvalue the channel keeps.

    A step forms the next state, then normalizes it in place (a Schur
    product scaled by 1/trace, as NumPy's complex-by-real division gives
    it; the dual's real products, divided before they are widened) and
    copies its diagonal into one (steps + 1) x n array.  Only a Schur step
    can absorb the state: a trace below errors.ABSORPTION_FLOOR raises
    "channel absorbed the state".  The dual's trace stays within about
    1e-9 of 1 (see the step).

    Every state is certified to have least eigenvalue >= -errors.PSD_TOL (as
    `eigvalsh` reads it, from the lower triangle) without a per-step
    eigensolve.  The states never depend on this certificate, so it is
    evaluated after the loop, from the stacked diagonals; the bound, its
    fallback and the messages are those of a per-step check.  A bound
    eps >= -lambda_min(rho) is carried from step to step, starting from
    the eigenvalue `_check_density` computes:

    * Schur step.  With eps_M = max(0, -lambda_min(M)) from the entry
      check, write M = M+ - eps_M I and rho = rho+ - eps I with M+, rho+
      PSD.  M+ o rho+ is PSD (Schur product theorem, Horn & Johnson,
      Matrix Analysis, Thm 7.5.3), so lambda_min(M o rho) >=
      -(eps max_x M_xx + eps_M max_x rho_xx + eps eps_M), less
      max_x |Im M_xx Im rho_xx| for the imaginary diagonal parts that
      `eigvalsh` ignores.
    * Transition-expectation step.  The image is the Gram form
      sum_i rho_ii |r_i><r_i| with unit vectors |r_i>, so lambda_min >=
      sum_i min(Re rho_ii, 0) - sum_i |Im rho_ii|.

    The bound is divided by the step's trace and gains 2(n + 4) units of
    round-off.  That covers, in spectral norm, the rounding of the step
    and of the division, because eps <= PSD_TOL keeps the trace norm of
    every state below 2.  A step whose bound
    exceeds PSD_TOL runs `eigvalsh` as the fallback: a least eigenvalue
    below -PSD_TOL raises "positivity of the state fails at step k", and
    otherwise resets eps.  The final state always gets one `eigvalsh` as
    the guard on rounding.  A positivity loss at step j is raised before
    an absorption at a later step, as a loop that stopped at the first
    failure would raise it.  The state loop itself stops only at an
    absorption, so a chain that loses positivity costs as many steps as
    one that keeps it.  States after a loss are discarded; they are not
    bounded and may overflow, so overflow and invalid-value flags are
    ignored while they and their bound terms are formed.  Up to the first
    failure no such flag can arise: a state of trace 1 whose least
    eigenvalue is >= -PSD_TOL has entries of order 1.
    """
    steps = require_integer(steps, "steps", minimum=0)
    psd, floor = errors.PSD_TOL, errors.ABSORPTION_FLOOR
    if isinstance(channel, SchurChannel):
        if channel._multiplier_min < -psd:
            low = channel._multiplier_min
            refuse("complete positivity of the channel", -low, psd,
                   f"multiplier eigenvalue {low:.3e}")
    elif not isinstance(channel, TransitionExpectation):
        raise ValidationError(
            f"cannot iterate {type(channel).__name__}; "
            "expected SchurChannel or TransitionExpectation"
        )
    rho, low = _check_density(rho0, channel.dim)
    diags = np.empty((steps + 1, channel.dim), dtype=np.complex128)
    diags[0] = np.diagonal(rho)
    if isinstance(channel, SchurChannel):
        mult = channel.multiplier

        def advance(rho, diag):
            nxt = mult * rho
            tr = float(nxt.trace().real)
            if tr < floor:
                return None, tr
            nxt *= 1.0 / tr
            return nxt, tr
    else:
        root = channel.sqrt_transition

        def advance(rho, diag):
            real, imag = _dual_parts(root, diag)
            # no absorption: tr = sum_i Re d_i |r_i|^2, |r_i|^2 within ISOMETRY_TOL of 1 (certified)
            # and sum_i Re d_i within MASS_TOL of 1, |d|_1 ~ 1 not growing: tr is 1 within ~1e-9
            tr = float(real.trace())
            real /= tr
            if imag is not None:
                imag /= tr
            return _widen(real, imag), tr

    states = [rho]
    factors = []
    absorbed = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            rho, tr = advance(rho, diags[k - 1])
            if rho is None:
                absorbed = f"channel absorbed the state (trace {tr:.3e} after step {k})"
                break
            diags[k] = np.diagonal(rho)
            states.append(rho)
            factors.append(tr)

        # Step k's bound is eps * slope + lead[k] + eps * eps_m + tail[k], eps
        # that of state k - 1; the Gram bound has slope = eps_m = 0.
        inputs = diags[:len(factors)]
        if isinstance(channel, SchurChannel):
            eps_m = max(0.0, -channel._multiplier_min)
            m_diag = np.diagonal(channel.multiplier)
            slope = float(m_diag.real.max())
            lead = eps_m * inputs.real.max(axis=1)
            tail = np.abs(m_diag.imag * inputs.imag).max(axis=1)
        else:
            eps_m = slope = 0.0
            lead = np.maximum(-inputs.real, 0.0).sum(axis=1) + np.abs(inputs.imag).sum(axis=1)
            tail = np.zeros(len(factors))
    eps = max(0.0, -low)
    rounding = 2 * (channel.dim + 4) * np.finfo(np.float64).eps
    for k, (tr, a, b) in enumerate(zip(factors, lead.tolist(), tail.tolist()), start=1):
        eps = (eps * slope + a + eps * eps_m + b) / tr + rounding
        if eps > psd or k == steps:
            low = float(np.linalg.eigvalsh(states[k]).min())
            if low < -psd:
                refuse("positivity of the state", -low, psd, f"step {k} (eigenvalue {low:.3e})")
            eps = max(0.0, -low)
    if absorbed:
        raise CertificationError(absorbed)
    return ChannelTrajectory(states=tuple(states), trace_factors=tuple(factors))


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """The Szegedy walk of a stochastic matrix D, its only argument, read
    by `convention` ("column": D[w][v] is the probability v -> w, columns
    sum to 1; "row": rows sum to 1 and the transpose is used):
    A|v> = sum_w sqrt(D[w][v]) |v,w>, Pi = AA', S|v,w> = |w,v>, U = S(2 Pi - I),
    with pair index (v, w) -> v*n + w.

    A is the transition expectation's isometry V for the row-stochastic
    transpose of D, certified by the same helper from sqrt(D)^T, taken once.
    U, the only n^2 x n^2 array built, is filled in one pass from its closed form
    U[(v,w),(v',w')] = 2 [v' = w] sqrt(D[v][w]) sqrt(D[w'][w]) - [v' = w][w' = v].

    Certificate: A'A = I within errors.ISOMETRY_TOL (diagonal, so O(n^2)).  It implies the
    rest.  S is a permutation, so S'S = I, and Pi = AA' is symmetric,
    hence U'U - I = (2 Pi - I)^2 - I = 4(Pi^2 - Pi) = 4 A(A'A - I)A'.
    Each row of A has a single entry, the square root of a probability
    and so at most 1, hence every entry of U'U - I is 4 times one entry
    of A'A - I times two such factors: max|U'U - I| <= 4 max|A'A - I|
    <= 4 ISOMETRY_TOL, and likewise max|Pi^2 - Pi| <= max|A'A - I|.  The bounds
    hold for the operator S(2AA' - I) exactly; the stored entries of U
    are each one rounded product of A's entries.
    """

    column_stochastic: np.ndarray
    convention: InitVar[str] = "column"
    U: np.ndarray = field(init=False)

    def __post_init__(self, convention):
        col = _column_stochastic(self.column_stochastic, convention)
        n = col.shape[0]
        # U is a dense n^2 x n^2 float64 operator: 128 MB at 64 vertices.
        require_within_cap(n, _PAIR_SPACE_MAX_VERTICES, f"Szegedy walk has {n} vertices")
        root_t = np.sqrt(col).T                      # root_t[v, w] = sqrt(D[w][v])
        _certify_isometry(root_t, "A")
        u = np.zeros((n * n, n * n))
        u4 = u.reshape(n, n, n, n)                   # view [v, w, v', w']
        vertices = np.arange(n)
        # Row (v, w) meets block w of Pi: 2 root_t[w, v] root_t[w, w'] at v' = w.
        u4[:, vertices, vertices, :] = 2.0 * (root_t.T[:, :, None] * root_t[None, :, :])
        v, w = np.ogrid[:n, :n]
        u4[v, w, w, v] -= 1.0
        for name, array in (("column_stochastic", col), ("U", u)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def dim_v(self) -> int:
        return self.column_stochastic.shape[0]


def szegedy_walk(d_matrix, convention: str = "column") -> WalkOperator:
    """The Szegedy walk of `d_matrix` read by `convention` (see `WalkOperator`)."""
    return WalkOperator(d_matrix, convention)


def _closed_classes(column_stochastic: np.ndarray) -> list[tuple[int, ...]]:
    """The closed communicating classes of the support graph (v -> w when
    D[w][v] > 0), sorted.  Exact: reachability is the closure of the 0/1
    support by repeated squaring, and v is in a closed class, the set it
    reaches, iff every state it reaches reaches v back."""
    n = column_stochastic.shape[0]
    reach = (column_stochastic.T > 0) | np.eye(n, dtype=bool)   # reach[v, w]: v ->* w
    while True:
        grown = (reach.astype(np.float32) @ reach) > 0
        if np.array_equal(grown, reach):
            break
        reach = grown
    closed = np.flatnonzero(np.all(reach <= reach.T, axis=1))
    return sorted({tuple(np.flatnonzero(reach[v]).tolist()) for v in closed})


def stationary_distribution(column_stochastic) -> np.ndarray:
    """Stationary law of a column-stochastic matrix, certified by max|P pi -
    pi| <= errors.STATIONARY_TOL.  It must be unique, so the support graph
    must have exactly one closed communicating class C.  No state of C
    leaves it, so P[C, C] is column-stochastic; pi is its unit eigenvector
    on C and 0 on the transient states, which hold no mass in the limit."""
    mat = _column_stochastic(column_stochastic, "column")
    classes = _closed_classes(mat)
    if len(classes) > 1:
        first, second = ("{" + ", ".join(map(str, c)) + "}" for c in classes[:2])
        raise CertificationError(
            f"stationary law is not unique: closed classes {first} and {second}"
        )
    closed = list(classes[0])
    vals, vecs = np.linalg.eig(mat[np.ix_(closed, closed)])
    pick = int(np.argmin(np.abs(vals - 1.0)))
    v = vecs[:, pick]
    with np.errstate(divide="ignore", invalid="ignore"):   # a vector summing to 0 is refused
        law = np.real(np.real_if_close(v / v.sum(), tol=1e6))
        off = float(np.max([-law.min(), abs(law.sum() - 1.0)]))
        if not off <= errors.STATIONARY_TOL:
            refuse("unit eigenvector as a probability distribution", off, errors.STATIONARY_TOL,
                   f"least entry {law.min():.3e}, sum {law.sum():.12g}")
    pi = np.zeros(len(mat))
    pi[closed] = np.clip(law, 0.0, None)
    residual = np.abs(mat @ pi - pi)
    if residual.max() > errors.STATIONARY_TOL:
        refuse("P pi = pi", residual, errors.STATIONARY_TOL, lambda v: f"state {v}")
    return pi
