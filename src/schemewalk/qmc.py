"""Quantum Markov chain machinery.

Four independent pieces:

* Schur-multiplier channels M -> e o M, with complete positivity
  certified through the Choi matrix (CP holds iff the multiplier is
  positive semidefinite, and the Choi spectrum makes that visible: it is
  the multiplier's spectrum padded with zeros).  The Choi matrix is never
  formed densely for certification: its only nonzero entries are the
  multiplier's, on the pair indices (a, a), so its spectrum is the
  multiplier's, taken block by block over the connected components of
  the multiplier's support on n points, plus n^2 - n zeros.
* Unitary dilation of a probability vector p: an orthogonal matrix whose
  first row is (sqrt(p_0), ..., sqrt(p_{d-1})).
* Entangled transition expectations E(X) = V' X V for the isometry
  V|e_i> = sum_j sqrt(P[i][j]) |e_i>|e_j> built from a row-stochastic P;
  unital and completely positive by construction (Stinespring form), with
  the equivalent entrywise closed form M o (sqrtP N sqrtP^T) exposed for
  cross-checking.  The classical chain sits on the diagonal:
  E(I (x) diag(v)) = diag(P v).  The Stinespring route evaluates
  (M (x) N) V column by column as vec(M X_j N^T) and never forms M (x) N.
* The Szegedy walk unitary U = S(2 A A' - I) on the pair space of a
  stochastic matrix.  A is the same pair-space isometry as V, built by
  the same helper.  The swap S is applied as an index permutation, and
  unitarity follows from the n x n certificate A'A = I (see
  `szegedy_walk`).

Stochasticity conventions: transition expectations take row-stochastic
matrices; `szegedy_walk` accepts either convention via a flag and works
column-stochastic internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ValidationError

_PSD_TOL = 1e-10
_STOCHASTIC_TOL = 1e-12
# `eig` is backward stable: a unit eigenvector of a stochastic P has
# residual |P pi - pi| of order n*eps, far below 1e-9 at any size used here.
_STATIONARY_TOL = 1e-9
# Dense pair-space operators are n^2 x n^2; refuse sizes that would
# silently eat gigabytes (64 vertices: 128 MB per float64 operator).
_PAIR_SPACE_MAX_VERTICES = 64


def _require_square(m: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValidationError(f"{what} must be a non-empty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} has a non-finite entry")
    return a


def _column_stochastic(d_matrix, convention: str) -> np.ndarray:
    """The input, transposed if `convention` is "row", checked to be
    column-stochastic within _STOCHASTIC_TOL and clipped at 0."""
    mat = _require_square(np.asarray(d_matrix, dtype=np.float64), "stochastic matrix")
    if convention not in ("column", "row"):
        raise ValidationError(f"convention must be 'column' or 'row', got {convention!r}")
    if mat.min() < -_STOCHASTIC_TOL:
        raise ValidationError(f"stochastic matrix has a negative entry: {mat.min()!r}")
    mat = np.clip(mat, 0.0, None)
    col = mat if convention == "column" else mat.T
    sums = col.sum(axis=0)
    if np.max(np.abs(sums - 1.0)) > _STOCHASTIC_TOL:
        raise ValidationError(
            f"matrix is not {convention}-stochastic (mass per state: {sums})"
        )
    return col


@dataclass(frozen=True)
class SchurChannel:
    """The map M -> multiplier o M (entrywise product)."""

    multiplier: np.ndarray

    def __post_init__(self):
        e = _require_square(self.multiplier, "multiplier").astype(np.complex128)
        if np.max(np.abs(e - e.conj().T)) > _PSD_TOL:
            raise ValidationError("multiplier must be Hermitian")
        e.setflags(write=False)
        object.__setattr__(self, "multiplier", e)

    @property
    def dim(self) -> int:
        return self.multiplier.shape[0]


@dataclass(frozen=True)
class CPReport:
    is_cp: bool
    choi_min_eigenvalue: float
    multiplier_min_eigenvalue: float
    multiplier_psd: bool
    verdicts_agree: bool
    tolerance: float


def schur_channel_apply(c: SchurChannel, m: np.ndarray) -> np.ndarray:
    a = np.asarray(m)
    if a.shape != c.multiplier.shape:
        raise ValidationError(
            f"matrix shape {a.shape} does not match channel dimension {c.multiplier.shape}"
        )
    return c.multiplier * a


def choi_matrix(c: SchurChannel) -> np.ndarray:
    """Dense Choi matrix sum_ab E_ab (x) T(E_ab) of the Schur channel.

    T(E_ab) = e[a][b] E_ab, so the Choi matrix is the multiplier spread
    onto the (a*n+a, b*n+b) positions of the pair space.  This is a
    16 n^4-byte array, so it is refused above `_PAIR_SPACE_MAX_VERTICES`
    vertices; `certify_cp` never builds it.
    """
    n = c.dim
    if n > _PAIR_SPACE_MAX_VERTICES:
        raise ValidationError(
            f"dense Choi matrix of a {n}-dimensional channel is {n * n}x{n * n}; "
            f"capped at {_PAIR_SPACE_MAX_VERTICES} dimensions"
        )
    choi = np.zeros((n * n, n * n), dtype=np.complex128)
    diagonal_pairs = np.arange(n) * (n + 1)
    choi[np.ix_(diagonal_pairs, diagonal_pairs)] = c.multiplier
    return choi


def _support_components(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Label each of `size` indices by the connected component of the
    support graph with edges (rows[k], cols[k]).

    Min-label propagation with pointer jumping.  Labels only decrease and
    only travel along edges, so each label is an index of its own
    component; at the fixed point the two ends of every edge agree and
    every label is a root, so a label names exactly one component.
    """
    labels = np.arange(size)
    while True:
        low = np.minimum(labels[rows], labels[cols])
        nxt = labels.copy()
        np.minimum.at(nxt, rows, low)
        np.minimum.at(nxt, cols, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def _block_spectrum(size: int, rows: np.ndarray, cols: np.ndarray,
                    values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Ascending spectrum of the Hermitian size x size matrix with the given
    coordinate entries, diagonalised block by block.

    `labels` assigns each index to a block.  Every entry must lie inside
    one block (both ends carry the same label), or CertificationError
    names the first that does not; then the matrix is block diagonal up
    to a permutation and its spectrum is the union of the block spectra.
    Indices no entry touches form zero rows and columns and contribute one
    zero each.  Repeated coordinates are summed.  As with `eigvalsh`, only
    the lower triangle of each block is read.
    """
    outside = np.flatnonzero(labels[rows] != labels[cols])
    if outside.size:
        k = int(outside[0])
        raise CertificationError(
            f"entry ({int(rows[k])}, {int(cols[k])}) lies outside its block "
            f"(labels {int(labels[rows[k]])} and {int(labels[cols[k]])})"
        )
    touched = np.zeros(size, dtype=bool)
    touched[rows] = True
    touched[cols] = True
    nodes = np.flatnonzero(touched)
    # Group entries and indices by block; the stable sort keeps each
    # block's indices ascending, so its lower triangle is the matrix's.
    order = np.argsort(labels[rows], kind="stable")
    rows, cols, values = rows[order], cols[order], values[order]
    nodes = nodes[np.argsort(labels[nodes], kind="stable")]
    _, entry_starts = np.unique(labels[rows], return_index=True)
    _, node_starts = np.unique(labels[nodes], return_index=True)
    entry_bounds = np.append(entry_starts, rows.size)
    node_bounds = np.append(node_starts, nodes.size)
    local = np.empty(size, dtype=np.intp)
    spectra = [np.zeros(size - nodes.size)]
    for b in range(node_starts.size):
        members = nodes[node_bounds[b]:node_bounds[b + 1]]
        local[members] = np.arange(members.size)
        entries = slice(entry_bounds[b], entry_bounds[b + 1])
        block = np.zeros((members.size, members.size), dtype=values.dtype)
        np.add.at(block, (local[rows[entries]], local[cols[entries]]), values[entries])
        spectra.append(np.linalg.eigvalsh(block))
    return np.sort(np.concatenate(spectra))


def certify_cp(c: SchurChannel, tolerance: float = _PSD_TOL) -> CPReport:
    """Certify complete positivity two ways and report both verdicts.

    The direct route diagonalises the Choi matrix; the criterion route
    checks the multiplier's own spectrum with a separate `eigvalsh`.  For
    Schur channels they must agree; the report says whether they do
    rather than assuming it.

    The Choi matrix is never formed as a dense n^2 x n^2 array.  Its only
    nonzero entries are e[a][b] at (a*n+a, b*n+b) (Choi, Linear Algebra
    Appl. 10, 1975), so its spectrum is the spectrum of the multiplier's
    nonzero entries on n points plus n^2 - n zeros for the pair indices
    (a, b) with a != b.  Those entries are split into the connected
    components of their support, each component is filled and
    diagonalised as a dense block, and a check confirms that every entry
    lies inside its block.  A Hermitian matrix that is block diagonal up
    to a permutation has the union of its block spectra as spectrum, and
    each point the support never touches adds one more zero.  Hence, for
    n > 1, a multiplier whose block spectra come out nonnegative reports
    `choi_min_eigenvalue` exactly 0.0, where a dense eigensolver returns
    round-off of order -1e-16.
    """
    n = c.dim
    values = c.multiplier.ravel()
    nonzero = np.flatnonzero(values)
    rows, cols = np.divmod(nonzero, n)
    labels = _support_components(n, rows, cols)
    choi_min = float(_block_spectrum(n, rows, cols, values[nonzero], labels)[0])
    if n > 1:
        choi_min = min(choi_min, 0.0)
    mult_min = float(np.linalg.eigvalsh(c.multiplier).min())
    is_cp = choi_min >= -tolerance
    mult_psd = mult_min >= -tolerance
    return CPReport(
        is_cp=is_cp,
        choi_min_eigenvalue=choi_min,
        multiplier_min_eigenvalue=mult_min,
        multiplier_psd=mult_psd,
        verdicts_agree=is_cp == mult_psd,
        tolerance=tolerance,
    )


def dilation_unitary(p) -> np.ndarray:
    """Orthogonal matrix carrying the distribution p in its first row.

    U[0][j] = sqrt(p_j); U[i][0] = -sqrt(p_i); and for i, j >= 1
    U[i][j] = delta_ij - sqrt(p_i p_j) / (1 + sqrt(p_0)).  Orthogonality
    is exact algebra; the construction only takes square roots.
    """
    vec = np.asarray(p, dtype=np.float64)
    if vec.ndim != 1 or vec.size < 1:
        raise ValidationError("distribution must be a non-empty vector")
    if not np.all(np.isfinite(vec)):
        raise ValidationError("distribution has a non-finite entry")
    if vec.min() < 0.0:
        raise ValidationError(f"distribution has a negative entry: {vec.min()!r}")
    if abs(vec.sum() - 1.0) > _STOCHASTIC_TOL:
        raise ValidationError(f"distribution sums to {vec.sum()!r}, not 1")
    root = np.sqrt(vec)
    d = vec.size
    u = np.eye(d)
    u[0, :] = root
    u[1:, 0] = -root[1:]
    u[1:, 1:] -= np.outer(root[1:], root[1:]) / (1.0 + root[0])
    return u


@dataclass(frozen=True)
class TransitionExpectation:
    """Stinespring data for the entangled transition expectation of P."""

    dim: int
    transition: np.ndarray
    isometry_V: np.ndarray

    def __post_init__(self):
        self.transition.setflags(write=False)
        self.isometry_V.setflags(write=False)


def _pair_isometry(row_stochastic: np.ndarray, name: str) -> np.ndarray:
    """The n^2 x n isometry with column i = e_i (x) sqrt(row i), pair index
    (i, j) -> i*n + j, certified by name'name = diag(row sums) = I at 1e-12."""
    n = row_stochastic.shape[0]
    iso = np.zeros((n * n, n))
    iso[np.arange(n * n), np.repeat(np.arange(n), n)] = np.sqrt(row_stochastic).ravel()
    residual = float(np.max(np.abs(iso.T @ iso - np.eye(n))))
    if residual > 1e-12:
        raise CertificationError(f"{name}'{name} = I fails with residual {residual:.3e}")
    return iso


def make_transition_expectation(p) -> TransitionExpectation:
    """Build V with column i = sum_j sqrt(P[i][j]) e_i (x) e_j.

    V is (d^2) x d; V'V = diag(row sums of P) = I, certified at 1e-12.
    """
    mat = _column_stochastic(p, "row").T
    return TransitionExpectation(dim=mat.shape[0], transition=mat,
                                 isometry_V=_pair_isometry(mat, "V"))


def _check_sites(te: TransitionExpectation, m: np.ndarray, n: np.ndarray):
    if m.shape != (te.dim, te.dim) or n.shape != (te.dim, te.dim):
        raise ValidationError(
            f"site matrices must be {te.dim}x{te.dim}, got {m.shape} and {n.shape}"
        )


def apply_transition_expectation(te: TransitionExpectation, m, n) -> np.ndarray:
    """E(M (x) N) = V' (M (x) N) V (the Stinespring evaluation path).

    Column j of V, reshaped row-major to the d x d matrix X_j, satisfies
    (M (x) N) vec(X_j) = vec(M X_j N^T), so the product is evaluated in
    O(d^4) time and O(d^3) memory without forming the d^2 x d^2 Kronecker
    product.  Only the generic isometry is used, not its sparsity.
    """
    a = np.asarray(m)
    b = np.asarray(n)
    _check_sites(te, a, b)
    v = te.isometry_V
    d = te.dim
    columns = v.T.reshape(d, d, d)                 # columns[j] = X_j
    images = (a @ columns @ b.T).reshape(d, d * d)  # images[j] = vec(M X_j N^T)
    return v.conj().T @ images.T


def transition_expectation_closed_form(te: TransitionExpectation, m, n) -> np.ndarray:
    """Entrywise form M o (sqrtP N sqrtP^T), with sqrtP = entrywise root."""
    a = np.asarray(m)
    b = np.asarray(n)
    _check_sites(te, a, b)
    root = np.sqrt(te.transition)
    return a * (root @ b @ root.T)


def transition_expectation_dual(te: TransitionExpectation, rho: np.ndarray) -> np.ndarray:
    """One site-to-site step of the chain in the state picture.

    rho -> Tr_1(V rho V') = sum_i rho_ii |r_i><r_i| with |r_i> the
    entrywise root of row i of P, evaluated as the one product
    (sqrtP^T diag(rho)) sqrtP.  Trace-preserving (each |r_i> is a unit
    vector) and embeds the classical chain on the diagonal.
    """
    r = np.asarray(rho)
    if r.shape != (te.dim, te.dim):
        raise ValidationError(f"density matrix must be {te.dim}x{te.dim}, got shape {r.shape}")
    root = np.sqrt(te.transition)
    return (root.T * np.diagonal(r)) @ root


@dataclass(frozen=True)
class ChannelTrajectory:
    states: tuple[np.ndarray, ...]
    trace_factors: tuple[float, ...]


def _check_density(rho: np.ndarray, dim: int) -> tuple[np.ndarray, float]:
    """The validated density matrix as complex128, and its least eigenvalue."""
    r = _require_square(rho, "density matrix").astype(np.complex128)
    if r.shape[0] != dim:
        raise ValidationError(f"density matrix must be {dim}x{dim}, got {r.shape}")
    if np.max(np.abs(r - r.conj().T)) > _PSD_TOL:
        raise ValidationError("density matrix must be Hermitian")
    if abs(complex(np.trace(r)).real - 1.0) > 1e-10:
        raise ValidationError(f"density matrix has trace {complex(np.trace(r)).real!r}, not 1")
    low = float(np.linalg.eigvalsh(r).min())
    if low < -_PSD_TOL:
        raise ValidationError(f"density matrix has eigenvalue {low:.3e} < 0")
    return r, low


def iterate_channel(channel, rho0, steps: int) -> ChannelTrajectory:
    """Run a quantum chain, renormalizing trace-decreasing channels.

    `channel` is a SchurChannel (state picture: rho -> e o rho, not
    generally trace-preserving, so each step's trace is divided out and
    reported) or a TransitionExpectation (its state-picture dual
    `transition_expectation_dual`, which is trace-preserving; factors
    come out 1).  Complete positivity is a precondition and is certified
    before iterating.

    Every state is certified to have least eigenvalue >= -_PSD_TOL (as
    `eigvalsh` reads it, from the lower triangle) without a per-step
    eigensolve.  A bound eps >= -lambda_min(rho) is carried from step to
    step, starting from the eigenvalue `_check_density` computes:

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
    and of the division, because eps <= _PSD_TOL keeps the trace norm of
    every state below 2.  A step whose bound
    exceeds _PSD_TOL runs `eigvalsh` as the fallback: a least eigenvalue
    below -_PSD_TOL raises "state lost positivity at step k", and
    otherwise resets eps.  The final state always gets one `eigvalsh` as
    the guard on rounding.
    """
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    if isinstance(channel, SchurChannel):
        mult_low = float(np.linalg.eigvalsh(channel.multiplier).min())
        if mult_low < -_PSD_TOL:
            raise CertificationError(
                "channel is not completely positive (multiplier has a negative eigenvalue)"
            )
        dim = channel.dim
        eps_m = max(0.0, -mult_low)
        m_diag = np.diagonal(channel.multiplier)
        m_top = float(m_diag.real.max())

        def step(rho, eps):
            diag = np.diagonal(rho)
            bound = (eps * m_top + eps_m * float(diag.real.max()) + eps * eps_m
                     + float(np.abs(m_diag.imag * diag.imag).max()))
            return schur_channel_apply(channel, rho), bound
    elif isinstance(channel, TransitionExpectation):
        dim = channel.dim

        def step(rho, eps):
            diag = np.diagonal(rho)
            bound = float(np.maximum(-diag.real, 0.0).sum() + np.abs(diag.imag).sum())
            return transition_expectation_dual(channel, rho), bound
    else:
        raise ValidationError(
            f"cannot iterate {type(channel).__name__}; "
            "expected SchurChannel or TransitionExpectation"
        )

    rho, low = _check_density(np.asarray(rho0), dim)
    eps = max(0.0, -low)
    rounding = 2 * (dim + 4) * np.finfo(np.float64).eps
    states = [rho]
    factors = []
    for k in range(1, steps + 1):
        nxt, bound = step(rho, eps)
        tr = complex(np.trace(nxt)).real
        if tr < 1e-14:
            raise CertificationError(
                f"channel absorbed the state (trace {tr:.3e} after step {k})"
            )
        rho = nxt / tr
        eps = bound / tr + rounding
        if eps > _PSD_TOL or k == steps:
            low = float(np.linalg.eigvalsh(rho).min())
            if low < -_PSD_TOL:
                raise CertificationError(
                    f"state lost positivity at step {k} (eigenvalue {low:.3e})"
                )
            eps = max(0.0, -low)
        states.append(rho)
        factors.append(tr)
    return ChannelTrajectory(states=tuple(states), trace_factors=tuple(factors))


@dataclass(frozen=True)
class WalkOperator:
    """Szegedy walk data on the pair space of a column-stochastic matrix."""

    dim_v: int
    column_stochastic: np.ndarray
    A_op: np.ndarray
    projector: np.ndarray
    swap: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        for field in (self.column_stochastic, self.A_op, self.projector, self.swap, self.U):
            field.setflags(write=False)


def szegedy_walk(d_matrix, convention: str = "column") -> WalkOperator:
    """Quantize a stochastic matrix: A|v> = sum_w sqrt(D[w][v]) |v,w>,
    Pi = AA', S|v,w> = |w,v>, U = S(2 Pi - I).

    `convention` says how to read the input ("column": D[w][v] is the
    probability v -> w, columns sum to 1; "row": rows sum to 1 and the
    transpose is used).  Pair index (v, w) -> v*n + w.

    A is the transition expectation's isometry V for the row-stochastic
    transpose of D, built and certified by the same helper.  Pi is block
    diagonal, one rank-one n x n block per vertex, and is built block by
    block.  S is the index permutation `perm` with
    perm[v*n + w] = w*n + v, so U is 2 Pi - I with its rows permuted; no
    n^2 x n^2 product is formed.  All of `A_op`, `projector`, the dense
    `swap` and `U` are returned as arrays.

    Certificates: A'A = I within 1e-12 (an n x n check) and
    perm[perm] = id exactly (S is an involution).  They imply the rest.
    S is a permutation, so S'S = I, and Pi = AA' is symmetric, hence
    U'U - I = (2 Pi - I)^2 - I = 4(Pi^2 - Pi) = 4 A(A'A - I)A'.  Each row
    of A has a single entry, the square root of a probability and so at
    most 1, hence every entry of U'U - I is 4 times one entry of A'A - I
    times two such factors: max|U'U - I| <= 4 max|A'A - I| <= 4e-12, and
    likewise max|Pi^2 - Pi| <= max|A'A - I|.  The bounds hold for the
    operator S(2AA' - I) exactly; the stored entries of Pi and U are each
    one rounded product of A's entries.
    """
    col = _column_stochastic(d_matrix, convention)
    n = col.shape[0]
    if n > _PAIR_SPACE_MAX_VERTICES:
        raise ValidationError(
            f"walk on {n} vertices needs a {n * n}x{n * n} dense pair space; "
            f"capped at {_PAIR_SPACE_MAX_VERTICES} vertices"
        )

    a_op = _pair_isometry(col.T, "A")
    nn = n * n
    pairs = np.arange(nn)
    vertices = np.arange(n)
    root_t = np.sqrt(col).T                      # root_t[v, w] = sqrt(D[w][v])
    projector = np.zeros((nn, nn))
    # View [v, w, v', w']; block v is the outer product of A's column v.
    projector.reshape(n, n, n, n)[vertices, :, vertices, :] = (
        root_t[:, :, None] * root_t[:, None, :]
    )
    perm = pairs.reshape(n, n).T.ravel()
    swap = np.zeros((nn, nn))
    swap[pairs, perm] = 1.0
    u = projector[perm]
    u *= 2.0
    u[pairs, perm] -= 1.0

    if not np.array_equal(perm[perm], pairs):
        raise CertificationError("S^2 = I fails: the pair swap is not an involution")

    return WalkOperator(
        dim_v=n, column_stochastic=col, A_op=a_op, projector=projector, swap=swap, U=u
    )


def stationary_distribution(column_stochastic) -> np.ndarray:
    """Stationary law of a column-stochastic matrix via its unit eigenvector,
    certified by max|P pi - pi| <= _STATIONARY_TOL."""
    mat = _column_stochastic(column_stochastic, "column")
    vals, vecs = np.linalg.eig(mat)
    pick = int(np.argmin(np.abs(vals - 1.0)))
    v = vecs[:, pick]
    v = np.real_if_close(v / v.sum(), tol=1e6)
    pi = np.real(v)
    if np.min(pi) < -_STATIONARY_TOL or abs(pi.sum() - 1.0) > _STATIONARY_TOL:
        raise CertificationError("unit eigenvector is not a probability distribution")
    pi = np.clip(pi, 0.0, None)
    residual = float(np.max(np.abs(mat @ pi - pi)))
    if residual > _STATIONARY_TOL:
        raise CertificationError(f"P pi = pi fails with residual {residual:.3e}")
    return pi
