"""Anyon fusion systems: rules, dimensions, braiding, consistency checks.

A fusion system is a finite set of labels (index 0 = vacuum) with
non-negative integer multiplicities N_{ab}^c, optionally decorated with
F-matrices (recoupling), R-phases (exchange), and twists.  The systems
in scope are commutative and multiplicity-free; the two built-ins are

* ising:    sigma x sigma = 1 + psi,  sigma x psi = sigma,  psi x psi = 1
* fibonacci: f x f = 1 + f

F-matrices are stored sparsely: only blocks of dimension >= 2 and
1-dimensional blocks with a non-trivial sign need entries; every other
admissible block defaults to 1 (the gauge fixed here).  The stored data
is never trusted blindly -- `verify_pentagon` (and, for rank-2 systems,
`verify_hexagon`) recertify it.  Each expands the blocks once into a
dense array F[a,b,c,e,x,y] (rank^6 entries, at most 729 under the rank
caps), lists the admissible fusion trees by joining the nonzeros of N
one vertex at a time, and gathers both sides of its identity on those
trees only (136 for Ising, 50 for Fibonacci).  `BraidGenerators`, the one
constructor of the exchange generators, certifies those it derives from R and F.

`scheme_fusion_bridge` compares a scheme's Krein tensor against fusion
multiplicities up to label bijection and per-index positive rescaling,
which is the precise sense in which Krein parameters of small group
schemes "are" fusion rules.  The scalars are not fitted.  If positive s
(s_0 = 1) give q_ij^k s_i s_j / s_k = N[pi]_ij^k exactly, then t = s m
satisfies sum_k N[pi]_ij^k t_k = s_i s_j sum_k q_ij^k m_k = t_i t_j by
the trace identity sum_k q_ij^k m_k = m_i m_j, so t is a positive
character of the fusion ring.  A fusion ring has exactly one, its
Frobenius-Perron dimension (Etingof, Gelaki, Nikshych & Ostrik, "Tensor
Categories", 2015, Prop. 3.3.6), so s_i = d_pi(i) / m_i is the only
candidate and is read from the certified dimensions and multiplicities.
A search over vacuum-fixing label maps, one label at a time (the pruned
search of McKay & Piperno, "Practical graph isomorphism, II", 2014),
cuts a partial map as soon as the support pattern
q_ij^k > 1e-8 <=> N_ij^k >= 1 breaks on its labels, and only complete
maps that keep it are scored.  The search is exhaustive, so when it
ends with no complete map the pair is decided as unmatched with an
empty bijection; matched and unmatched pairs alike are answered up to
rank 32.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    ValidationError,
    is_integer,
    numeric_array,
    require_index,
    require_integer,
    require_within_cap,
)
from .groups import DEFAULT_VERTEX_CAP
from .parameters import KreinTensor
from .spectral import BoseMesnerDecomposition

_UNITARITY_TOL = 1e-12
_DIM_CONSISTENCY_TOL = 1e-10
PENTAGON_THRESHOLD = 1e-10
HEXAGON_THRESHOLD = 1e-10
BRIDGE_THRESHOLD = 1e-6
_BRIDGE_SUPPORT_TOL = 1e-8
# The associativity pass of `FusionSystem` holds rank^4 int64 words and a
# rank^4 boolean mask: 9 rank^4 bytes, kept within the 200 MB budget of
# DEFAULT_VERTEX_CAP (rank 68; tracemalloc peaks at 198 MB there).
_FUSION_MAX_RANK = math.isqrt(math.isqrt(DEFAULT_VERTEX_CAP ** 2 * 8 // 9))
_BRIDGE_MAX_RANK = 32
# Above 109,601 = sum_m 8!/(8-m)!, the whole rank-9 search tree, so every
# search at rank <= 9 finishes however little its pattern prunes; above
# rank 9 it is the pruning that keeps a search under the cap.
_BRIDGE_NODE_CAP = 1 << 17
# Extensions whose support is compared in one gather: at rank 32 a chunk
# holds 3 * 1024 * 32^2 booleans.
_BRIDGE_CHUNK = 1024

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


@dataclass(frozen=True, eq=False)
class FusionSystem:
    """Labels, fusion tensor, and optional F/R/twist data, certified on
    construction; `dual` and `dims` are derived from N.

    F maps (a, b, c, e) -> the unitary block [F^{abc}_e]_{xy}; rows x and
    columns y run over the admissible intermediate labels in ascending
    index order.  R maps (a, b, c) -> the exchange phase R^{ab}_c.

    Checks: at most 68 labels (`_FUSION_MAX_RANK`, before any rank^4
    array), integer multiplicities, vacuum unit law, commutativity,
    associativity, existence of duals, quantum-dimension consistency, F
    keys (a,b,c,e) and R keys (a,b,c) of label indices, finite entries,
    unitarity of every F block, unit modulus of every R phase and twist.
    """

    labels: tuple[str, ...]
    N: np.ndarray
    dual: tuple[int, ...] = field(init=False)
    dims: np.ndarray = field(init=False)
    F: Mapping | None = None
    R: Mapping | None = None
    twist: tuple[complex, ...] | None = None

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if not labels or len(set(labels)) != len(labels):
            raise ValidationError("labels must be non-empty and distinct")
        rank = len(labels)
        require_within_cap(rank, _FUSION_MAX_RANK, f"fusion system has rank {rank}")
        n = numeric_array(self.N, "fusion tensor", ndim=3, size=rank).astype(np.int64)
        if n.min() < 0:
            raise ValidationError("fusion multiplicities must be non-negative")

        eye = np.eye(rank, dtype=np.int64)
        if not np.array_equal(n[0], eye) or not np.array_equal(n[:, 0, :], eye):
            raise ValidationError("label 0 must be the fusion unit (N_0b^c = delta_bc)")
        if not np.array_equal(n, n.transpose(1, 0, 2)):
            raise ValidationError("fusion must be commutative (N_ab^c = N_ba^c)")
        # left[a,b,c,x] is the multiplicity of x in (ab)c; by commutativity
        # a(bc) = (bc)a, so its multiplicity of x is left[b,c,a,x].
        left = np.tensordot(n, n, axes=([2], [0]))
        right = left.transpose(2, 0, 1, 3)
        if not np.array_equal(left, right):
            a, b, c, x = np.argwhere(left != right)[0]
            raise ValidationError(
                f"fusion is not associative at ({labels[a]} {labels[b]} {labels[c]} "
                f"-> {labels[x]})"
            )
        # N_ab^0 >= 0, so row a sums to 1 exactly when a has one dual
        lonely = np.flatnonzero(n[:, :, 0].sum(axis=1) != 1)
        if lonely.size:
            raise ValidationError(f"label {labels[lonely[0]]!r} has no unique dual")
        dual = tuple(n[:, :, 0].argmax(axis=1).tolist())
        dims = _dims_from_tensor(n)

        f_table = {}
        for key, mat in (self.F or {}).items():
            a, b, c, e = key = _label_key(key, 4, "F", rank)
            rows = _tree_rows(n, a, b, c, e)
            cols = _tree_cols(n, a, b, c, e)
            block = numeric_array(mat, f"F block {key}", kinds="iufc").astype(np.complex128)
            # rows x cols, square only when the data is consistent: checked here
            if block.shape != (len(rows), len(cols)):
                raise ValidationError(
                    f"F block {key} must have shape {(len(rows), len(cols))}, got {block.shape}"
                )
            if len(rows) != len(cols):
                raise ValidationError(f"F block {key} is not square; fusion data inconsistent")
            if np.max(np.abs(block.conj().T @ block - np.eye(len(rows)))) > _UNITARITY_TOL:
                raise ValidationError(f"F block {key} is not unitary")
            block.setflags(write=False)
            f_table[key] = block

        r_table = {}
        for key, phase in (self.R or {}).items():
            key = _label_key(key, 3, "R", rank)
            if not n[key]:
                raise ValidationError(f"R phase given for forbidden channel {key}")
            val = numeric_array(phase, f"R phase {key}", kinds="iufc")
            if val.ndim != 0:
                raise ValidationError(f"R phase {key} must be a single number")
            val = complex(val)
            if abs(abs(val) - 1.0) > _UNITARITY_TOL:
                raise ValidationError(f"R phase {key} has modulus {abs(val)!r}, not 1")
            r_table[key] = val

        twist = self.twist
        if twist is not None:
            twist = tuple(complex(t) for t in
                          numeric_array(twist, "twist", kinds="iufc", ndim=1, size=rank))
            for a, t in enumerate(twist):
                if abs(abs(t) - 1.0) > _UNITARITY_TOL:
                    raise ValidationError(f"twist {a} has modulus {abs(t)!r}, not 1")

        n.setflags(write=False)
        dims.setflags(write=False)
        for name, value in (("labels", labels), ("N", n), ("dual", dual),
                            ("dims", dims), ("F", MappingProxyType(f_table)),
                            ("R", MappingProxyType(r_table)), ("twist", twist)):
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return len(self.labels)

    def label_index(self, label) -> int:
        if is_integer(label):
            return require_index(label, self.rank, "label index")
        if label in self.labels:
            return self.labels.index(label)
        raise ValidationError(f"unknown label {label!r}; labels are {self.labels}")


def _dims_from_tensor(n_tensor: np.ndarray) -> np.ndarray:
    """Quantum dimensions: d_a = spectral radius of (N_a)_{bc} = N_{ab}^c."""
    n_float = n_tensor.astype(np.float64)
    dims = np.max(np.abs(np.linalg.eigvals(n_float)), axis=1)
    products = np.einsum("abc,c->ab", n_float, dims)
    residual = float(np.max(np.abs(np.outer(dims, dims) - products)))
    if residual > _DIM_CONSISTENCY_TOL:
        raise ValidationError(
            f"no consistent quantum dimensions: d_a d_b = sum_c N_ab^c d_c "
            f"fails with residual {residual:.3e}"
        )
    return dims


def _tree_rows(n, a, b, c, e):
    return tuple(x for x in range(n.shape[0]) if n[a, b, x] and n[x, c, e])


def _tree_cols(n, a, b, c, e):
    return tuple(y for y in range(n.shape[0]) if n[b, c, y] and n[a, y, e])


def _label_key(key, length: int, what: str, rank: int) -> tuple[int, ...]:
    """`key` as a tuple of `length` label indices, each in 0..rank-1."""
    parts = tuple(key) if isinstance(key, (tuple, list)) else ()
    if len(parts) != length or not all(is_integer(v) and 0 <= v < rank for v in parts):
        raise ValidationError(
            f"{what} key {key!r} must be {length} label indices in 0..{rank - 1}"
        )
    return tuple(int(v) for v in parts)


def builtin_fusion_system(name: str) -> FusionSystem:
    """The two stock systems, with certified F/R data.

    Ising F data: the sigma-sigma-sigma block is (1/sqrt2)[[1,1],[1,-1]]
    (plus sign gauge) and the psi-sandwich blocks carry the forced -1;
    everything else is 1.  R data is Kitaev's nu = 1 theory:
    R_{sigma sigma} = e^{-i pi/8} diag(1, i) over the (1, psi) channels,
    R^{sigma psi}_sigma = R^{psi sigma}_sigma = -i, R_{psi psi} = -1;
    twists (1, e^{i pi/8}, -1), so (R^{aa}_c)^2 = theta_c / theta_a^2.
    Fibonacci F/R constants are standard gauge choices certified by the
    pentagon/hexagon checks (see tests); twists are not stored.
    """
    if name == "ising":
        labels = ("1", "sigma", "psi")
        n = np.zeros((3, 3, 3), dtype=np.int64)
        n[0] = np.eye(3, dtype=np.int64)
        n[:, 0, :] = np.eye(3, dtype=np.int64)
        n[1, 1, 0] = n[1, 1, 2] = 1      # sigma x sigma = 1 + psi
        n[1, 2, 1] = n[2, 1, 1] = 1      # sigma x psi = sigma
        n[2, 2, 0] = 1                   # psi x psi = 1
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        f_data = {
            (1, 1, 1, 1): h,
            (2, 1, 2, 1): np.array([[-1.0]]),
            (1, 2, 1, 2): np.array([[-1.0]]),
        }
        r_data = {
            (1, 1, 0): np.exp(-1j * np.pi / 8.0),
            (1, 1, 2): np.exp(3j * np.pi / 8.0),
            (1, 2, 1): -1j,
            (2, 1, 1): -1j,
            (2, 2, 0): -1.0 + 0.0j,
        }
        return FusionSystem(labels, n, f_data, r_data,
                            twist=(1.0, np.exp(1j * np.pi / 8.0), -1.0))
    if name == "fibonacci":
        labels = ("1", "f")
        n = np.zeros((2, 2, 2), dtype=np.int64)
        n[0] = np.eye(2, dtype=np.int64)
        n[:, 0, :] = np.eye(2, dtype=np.int64)
        n[1, 1, 0] = n[1, 1, 1] = 1      # f x f = 1 + f
        inv = 1.0 / GOLDEN_RATIO
        f_data = {
            (1, 1, 1, 1): np.array([[inv, np.sqrt(inv)], [np.sqrt(inv), -inv]]),
        }
        r_data = {
            (1, 1, 0): np.exp(4j * np.pi / 5.0),
            (1, 1, 1): np.exp(-3j * np.pi / 5.0),
        }
        return FusionSystem(labels, n, f_data, r_data)
    raise ValidationError(f"unknown fusion system {name!r}; built-ins: ising, fibonacci")


def cyclic_fusion_system(order: int) -> FusionSystem:
    """Group-like fusion ring of Z_n: a x b = a+b (mod n), all dims 1."""
    if require_integer(order, "order") < 1:
        raise ValidationError("order must be >= 1")
    require_within_cap(order, _FUSION_MAX_RANK, f"fusion system has rank {order}")
    labels = tuple("1" if a == 0 else f"g{a}" for a in range(order))
    n = np.zeros((order, order, order), dtype=np.int64)
    a, b = np.indices((order, order))
    n[a, b, (a + b) % order] = 1
    return FusionSystem(labels, n)


def fuse(fs: FusionSystem, a, b) -> np.ndarray:
    """Multiplicity vector c -> N_{ab}^c."""
    return fs.N[fs.label_index(a), fs.label_index(b)].copy()


def _f_block(fs: FusionSystem, a, b, c, e):
    """(rows, cols, matrix) of [F^{abc}_e]; default identity when absent."""
    rows = _tree_rows(fs.N, a, b, c, e)
    cols = _tree_cols(fs.N, a, b, c, e)
    stored = fs.F.get((a, b, c, e))
    if stored is not None:
        return rows, cols, stored
    if len(rows) != len(cols):
        raise ValidationError(
            f"F block ({a},{b},{c};{e}) is {len(rows)}x{len(cols)}; fusion data inconsistent"
        )
    if len(rows) > 1:
        raise ValidationError(
            f"missing F data: block ({a},{b},{c};{e}) has dimension {len(rows)}"
        )
    return rows, cols, np.eye(len(rows), dtype=np.complex128)


def _f_tensor(fs: FusionSystem) -> np.ndarray:
    """Every block in one array F[a,b,c,e,x,y] = [F^{abc}_e]_{xy}, zero where
    either fusion tree is inadmissible; rank^6 entries, so callers cap the rank.

    The 1x1 blocks that default to 1 come from the admissible rows
    (N_ab^x N_xc^e) and columns (N_bc^y N_ay^e) of every block, and the
    stored blocks are written over them.  The first block, in
    `itertools.product` order, that is neither stored nor a 1x1 or empty
    default is refused by `_f_block` with its message."""
    n = fs.N.astype(bool)
    rows = np.einsum("abx,xce->abcex", n, n)
    cols = np.einsum("bcy,aye->abcey", n, n)
    stored = np.zeros((fs.rank,) * 4, dtype=bool)
    for key in fs.F:
        stored[key] = True
    height, width = rows.sum(axis=4), cols.sum(axis=4)
    bad = ~stored & ((height != width) | (height > 1))
    if bad.any():
        _f_block(fs, *np.argwhere(bad)[0].tolist())
    # what is left unstored is 1x1 or empty: one admissible row and column
    f = ~stored[..., np.newaxis, np.newaxis] & rows[..., np.newaxis] & cols[..., np.newaxis, :]
    f = f.astype(np.complex128)
    for key, mat in fs.F.items():
        f[key][np.ix_(_tree_rows(fs.N, *key), _tree_cols(fs.N, *key))] = mat
    return f


def _join(tuples: list[np.ndarray], key: np.ndarray, table: np.ndarray) -> list[np.ndarray]:
    """`tuples` (parallel label arrays) extended by the trailing labels of
    every nonzero of `table` whose first index is `key`, one output tuple
    per match: a join of admissible trees on the nonzeros of N."""
    first, *rest = np.nonzero(table)          # C order, so `first` ascends
    counts = np.bincount(first, minlength=table.shape[0])[key]
    which = np.repeat(np.arange(len(key)), counts)
    offset = np.arange(len(which)) - np.repeat(np.cumsum(counts) - counts, counts)
    at = np.searchsorted(first, key)[which] + offset
    return [t[which] for t in tuples] + [r[at] for r in rest]


def _r_phase(fs: FusionSystem, a, b, c) -> complex:
    if not fs.N[a, b, c]:
        raise ValidationError(f"channel {(a, b, c)} is forbidden; no exchange phase exists")
    stored = fs.R.get((a, b, c))
    if stored is not None:
        return stored
    if a == 0 or b == 0:
        return 1.0 + 0.0j   # exchanging with the vacuum is trivial
    raise ValidationError(f"missing R data for channel {(a, b, c)}")


@dataclass(frozen=True, eq=False)
class BraidGenerators:
    """Exchange generators on the three-anyon fusion space of `system` at
    `label`, resolved to its name (None: the first label whose space is 2-dimensional).

    sigma1 = diag(R^{aa}_x) over the intermediate channels x, sigma2 =
    F sigma1 F^{-1} with F the recoupling block of (a,a,a)->a, and the
    non-adjacent exchange B = F R^2 F^{-1} is exposed alongside.  The
    braid relation sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2 is
    evaluated up to a global phase and the residual reported.
    """

    system: InitVar[FusionSystem]
    label: str | int | None = None
    sigma1: np.ndarray = field(init=False)
    sigma2: np.ndarray = field(init=False)
    b_matrix: np.ndarray = field(init=False)
    braid_residual: float = field(init=False)

    def __post_init__(self, fs):
        if self.label is None:
            candidates = [a for a in range(1, fs.rank) if len(_tree_rows(fs.N, a, a, a, a)) == 2]
            if not candidates:
                raise ValidationError("no label has a 2-dimensional three-anyon fusion space")
            a = candidates[0]
        else:
            a = fs.label_index(self.label)
        channels = _tree_rows(fs.N, a, a, a, a)
        if not channels:
            raise ValidationError(f"label {fs.labels[a]!r} has an empty three-anyon space")

        sigma1 = np.diag([_r_phase(fs, a, a, x) for x in channels])
        _, _, f_mat = _f_block(fs, a, a, a, a)
        f_inv = np.linalg.inv(f_mat)
        sigma2 = f_mat @ sigma1 @ f_inv
        b_matrix = f_mat @ sigma1 @ sigma1 @ f_inv

        for name, mat in (("sigma1", sigma1), ("sigma2", sigma2), ("B", b_matrix)):
            drift = float(np.max(np.abs(mat.conj().T @ mat - np.eye(len(channels)))))
            if drift > _UNITARITY_TOL:
                raise ValidationError(f"{name} is not unitary (residual {drift:.3e})")
            mat.setflags(write=False)

        lhs = sigma1 @ sigma2 @ sigma1
        rhs = sigma2 @ sigma1 @ sigma2
        overlap = complex(np.sum(rhs.conj() * lhs))
        aligned = lhs * (overlap.conjugate() / abs(overlap)) if abs(overlap) > 0 else lhs
        residual = float(np.max(np.abs(aligned - rhs)))
        for name, value in (("label", fs.labels[a]), ("sigma1", sigma1), ("sigma2", sigma2),
                            ("b_matrix", b_matrix), ("braid_residual", residual)):
            object.__setattr__(self, name, value)


def braid_generators(fs: FusionSystem, label=None) -> BraidGenerators:
    """The braid generators of `fs` at `label` (see `BraidGenerators`)."""
    return BraidGenerators(fs, label)


@dataclass(frozen=True)
class PentagonReport:
    max_residual: float
    identities_checked: int

    @property
    def passed(self) -> bool:
        return self.max_residual < PENTAGON_THRESHOLD


def _require_small_multiplicity_free(fs: FusionSystem, what: str, max_rank: int):
    require_within_cap(fs.rank, max_rank, f"{what} check on rank {fs.rank}")
    if fs.N.max() > 1:
        raise ValidationError(f"{what} check supports multiplicity-free systems only")


def verify_pentagon(fs: FusionSystem) -> PentagonReport:
    """Evaluate the four-anyon recoupling consistency on all label sets.

    The identity checked, for external labels (a,b,c,d -> e) and
    left/right tree labels (x,y) / (w,v):

      F[xcd;e]_{yw} F[abw;e]_{xv} = sum_z F[abc;y]_{xz} F[azd;e]_{yv} F[bcd;v]_{zw}

    on every admissible pair of outer trees; the others read 0 = 0.
    """
    _require_small_multiplicity_free(fs, "pentagon", max_rank=3)
    n = fs.N.astype(bool)
    pairs = n.reshape(fs.rank ** 2, fs.rank)          # pairs[a*rank + b, c] = N_ab^c
    a, b, x = np.nonzero(n)
    a, b, x, c, y = _join([a, b, x], x, n)
    a, b, x, c, y, d, e = _join([a, b, x, c, y], y, n)
    a, b, x, c, y, d, e, w = _join([a, b, x, c, y, d, e], c * fs.rank + d, pairs)
    trees = _join([a, b, x, c, y, d, e, w], b * fs.rank + w, pairs)
    # the last vertex, N_av^e, closes the right-hand tree
    a, b, x, c, y, d, e, w, v = (t[n[trees[0], trees[8], trees[6]]] for t in trees)
    f = _f_tensor(fs)
    lhs = f[x, c, d, e, y, w] * f[a, b, w, e, x, v]
    rhs = np.sum(f[a, b, c, y, x] * f[a, :, d, e, y, v] * f[b, c, d, v, :, w], axis=1)
    worst = float(np.max(np.abs(lhs - rhs), initial=0.0))
    return PentagonReport(max_residual=worst, identities_checked=len(a))


@dataclass(frozen=True)
class HexagonReport:
    max_residual: float
    max_residual_inverse: float
    identities_checked: int

    @property
    def passed(self) -> bool:
        return max(self.max_residual, self.max_residual_inverse) < HEXAGON_THRESHOLD


def verify_hexagon(fs: FusionSystem) -> HexagonReport:
    """Braiding/recoupling compatibility, rank-2 multiplicity-free only.

    Checks, for both exchange orientations,

      R[ca;e] F[acb;d]_{eg} R[cb;g] = sum_f F[cab;d]_{ef} R[cf;d] F[abc;d]_{fg}

    (second orientation with every R conjugated).  Larger systems are
    refused rather than risking a convention-dependent wrong answer.
    """
    _require_small_multiplicity_free(fs, "hexagon", max_rank=2)
    n = fs.N.astype(bool)
    r = np.zeros(n.shape, dtype=np.complex128)
    for a, b, c in np.argwhere(n).tolist():
        r[a, b, c] = _r_phase(fs, a, b, c)
    f = _f_tensor(fs)
    c, a, e = np.nonzero(n)
    c, a, e, b, d = _join([c, a, e], e, n)
    trees = _join([c, a, e, b, d], c * fs.rank + b, n.reshape(fs.rank ** 2, fs.rank))
    # N_ag^d closes the right-hand tree
    c, a, e, b, d, g = (t[n[trees[1], trees[5], trees[4]]] for t in trees)
    residuals = []
    for phase in (r, r.conj()):
        lhs = phase[c, a, e] * f[a, c, b, d, e, g] * phase[c, b, g]
        rhs = np.sum(f[c, a, b, d, e] * phase[c, :, d] * f[a, b, c, d, :, g], axis=1)
        residuals.append(float(np.max(np.abs(lhs - rhs), initial=0.0)))
    return HexagonReport(
        max_residual=residuals[0],
        max_residual_inverse=residuals[1],
        identities_checked=2 * len(c),
    )


@dataclass(frozen=True)
class BridgeReport:
    bijection: tuple[int, ...]
    scalars: tuple[float, ...]
    deviation: float

    @property
    def matched(self) -> bool:
        return self.deviation < BRIDGE_THRESHOLD


def _support_maps(q_support: np.ndarray, n_support: np.ndarray) -> np.ndarray:
    """Every vacuum-fixing label map under which q_support equals
    n_support[perm][:, perm][:, :, perm], one per row, in the order
    `itertools.permutations` lists them.

    Labels 1, 2, ... are assigned in turn, one tree level at a time: each
    partial map is extended by every label it has not used, in ascending
    order, and an extension is kept only if the pattern agrees on the
    triples that involve the newest label (the others were checked on
    earlier levels).  Every node, the root included, counts against
    _BRIDGE_NODE_CAP before its level is built.
    """
    rank = q_support.shape[0]
    maps = np.zeros((1, 1), dtype=np.intp)
    nodes = 1
    for m in range(1, rank):
        used = np.zeros((len(maps), rank), dtype=bool)
        np.put_along_axis(used, maps, True, axis=1)
        parent, label = np.nonzero(~used)
        nodes += len(label)
        if nodes > _BRIDGE_NODE_CAP:
            raise ValidationError(
                f"bridge search at rank {rank} passed {_BRIDGE_NODE_CAP} label-map nodes"
            )
        ext = np.concatenate([maps[parent], label[:, None]], axis=1)
        keep = np.empty(len(ext), dtype=bool)
        for start in range(0, len(ext), _BRIDGE_CHUNK):
            block = ext[start:start + _BRIDGE_CHUNK]
            new, rows, cols = block[:, m, None, None], block[:, :, None], block[:, None, :]
            keep[start:start + _BRIDGE_CHUNK] = (
                (n_support[new, rows, cols] == q_support[m, :m + 1, :m + 1]).all(axis=(1, 2))
                & (n_support[rows, new, cols] == q_support[:m + 1, m, :m + 1]).all(axis=(1, 2))
                & (n_support[rows, cols, new] == q_support[:m + 1, :m + 1, m]).all(axis=(1, 2)))
        maps = ext[keep]
    return maps


def scheme_fusion_bridge(dec: BoseMesnerDecomposition, q: KreinTensor,
                         fs: FusionSystem) -> BridgeReport:
    """Match a Krein tensor against fusion multiplicities.

    A label bijection pi fixes the vacuum and maps idempotent i to label
    pi(i).  Only maps that keep the support pattern, q_ij^k > 1e-8
    exactly where N[pi]_ij^k >= 1, are scored: the search assigns labels
    1, 2, ... in turn and cuts a partial map as soon as the pattern
    breaks on the labels it has assigned.  Each such map is scored with
    the scalars s_i = d_pi(i) / m_i, quantum dimensions over the
    multiplicities of `dec` (the only scalars an exact match can have;
    see the module docstring), by the deviation
    max |q_ij^k s_i s_j / s_k - N[pi]_ij^k| in units of N.  The best map
    (the first with the least deviation), its scalars and that deviation
    are reported, and `matched` requires deviation below 1e-6.  If no map
    keeps the pattern, the exhaustive search is the witness: the pair is
    unmatched with an empty bijection, no scalars and deviation inf.

    A search that passes 2^17 partial maps is refused; every search at
    rank <= 9 stays below that.  Ranks above 32 are refused outright.
    """
    if q.d != dec.d:
        raise ValidationError("Krein tensor and decomposition disagree on d")
    rank = dec.d + 1
    if fs.rank != rank:
        raise ValidationError(
            f"rank mismatch: scheme has {rank} idempotents, fusion system has {fs.rank} labels"
        )
    require_within_cap(rank, _BRIDGE_MAX_RANK, f"bridge search at rank {rank}")

    q_arr = q.q
    maps = _support_maps(q_arr > _BRIDGE_SUPPORT_TOL, fs.N >= 1)
    if not len(maps):
        return BridgeReport(bijection=(), scalars=(), deviation=np.inf)
    scalars = fs.dims[maps] / np.array(dec.multiplicities, dtype=np.float64)
    deviations = [
        float(np.max(np.abs(q_arr * s[:, None, None] * s[None, :, None] / s[None, None, :]
                            - fs.N[np.ix_(perm, perm, perm)])))
        for perm, s in zip(maps, scalars)]
    best = int(np.argmin(deviations))
    return BridgeReport(bijection=tuple(maps[best].tolist()),
                        scalars=tuple(scalars[best].tolist()), deviation=deviations[best])
