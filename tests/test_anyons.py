import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemewalk import (
    FusionSystem,
    ValidationError,
    braid_generators,
    builtin_fusion_system,
    cyclic_fusion_system,
    decompose,
    build_group_scheme,
    fuse,
    groups,
    krein_parameters,
    scheme_fusion_bridge,
    verify_hexagon,
    verify_pentagon,
)
from schemewalk import anyons, errors
from schemewalk.anyons import (
    GOLDEN_RATIO,
    HexagonReport,
    PentagonReport,
    _f_block,
    _r_phase,
    _require_small_multiplicity_free,
    _tree_cols,
    _tree_rows,
)
from schemewalk.parameters import KreinTensor

ISING = builtin_fusion_system("ising")
FIB = builtin_fusion_system("fibonacci")


# ------------------------------------------------------------ fusion data

def test_ising_fusion_table():
    one, sigma, psi = "1", "sigma", "psi"
    assert fuse(ISING, sigma, sigma).tolist() == [1, 0, 1]   # 1 + psi
    assert fuse(ISING, sigma, psi).tolist() == [0, 1, 0]     # sigma
    assert fuse(ISING, psi, psi).tolist() == [1, 0, 0]       # 1
    assert fuse(ISING, one, sigma).tolist() == [0, 1, 0]
    assert fuse(ISING, psi, sigma).tolist() == [0, 1, 0]


def test_fibonacci_fusion_table():
    assert fuse(FIB, "f", "f").tolist() == [1, 1]            # 1 + f
    assert fuse(FIB, "1", "f").tolist() == [0, 1]


def test_quantum_dimensions():
    dims = ISING.dims
    assert abs(dims[0] - 1) < 1e-12
    assert abs(dims[1] - np.sqrt(2)) < 1e-12
    assert abs(dims[2] - 1) < 1e-12

    dims = FIB.dims
    assert abs(dims[1] - GOLDEN_RATIO) < 1e-12
    assert abs(dims[1] - (1 + np.sqrt(5)) / 2) < 1e-12


@pytest.mark.parametrize("fs", [ISING, FIB, cyclic_fusion_system(4)])
def test_dimension_product_rule(fs):
    dims = fs.dims
    rank = fs.rank
    for a in range(rank):
        for b in range(rank):
            total = sum(fs.N[a, b, c] * dims[c] for c in range(rank))
            assert abs(dims[a] * dims[b] - total) < 1e-10


def test_label_index_accepts_names_and_ints():
    assert ISING.label_index("sigma") == 1
    assert ISING.label_index(2) == 2
    with pytest.raises(ValidationError):
        ISING.label_index("tau")
    with pytest.raises(ValidationError):
        ISING.label_index(7)


def test_the_fusion_rank_cap_keeps_the_associativity_pass_within_200_mb():
    # the pass holds rank^4 int64 words and a rank^4 mask: 9 * 68^4 bytes
    # is 192 MB, 9 * 69^4 bytes 204 MB
    assert anyons._FUSION_MAX_RANK == 68 > anyons._BRIDGE_MAX_RANK
    with pytest.raises(ValidationError, match="rank 1000000, above the cap of 68"):
        cyclic_fusion_system(10**6)


def test_a_fusion_system_above_the_rank_cap_is_refused_before_its_tensor_is_read():
    labels = [str(a) for a in range(69)]
    with pytest.raises(ValidationError, match="rank 69, above the cap of 68"):
        FusionSystem(labels, np.zeros((1, 1, 1), dtype=np.int64))


def test_f_matrix_values():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert np.max(np.abs(ISING.F[(1, 1, 1, 1)] - h)) < 1e-15
    assert np.array_equal(ISING.F[(2, 1, 2, 1)], [[-1.0]])
    assert np.array_equal(ISING.F[(1, 2, 1, 2)], [[-1.0]])

    phi = GOLDEN_RATIO
    f = np.array([[1 / phi, 1 / np.sqrt(phi)], [1 / np.sqrt(phi), -1 / phi]])
    assert np.max(np.abs(FIB.F[(1, 1, 1, 1)] - f)) < 1e-15


def test_f_matrices_unitary():
    for fs in (ISING, FIB):
        for block in fs.F.values():
            b = np.asarray(block)
            assert np.max(np.abs(b @ b.conj().T - np.eye(b.shape[0]))) < 1e-12


def test_r_phases():
    assert abs(ISING.R[(1, 1, 0)] - np.exp(-1j * np.pi / 8)) < 1e-15
    assert abs(ISING.R[(1, 1, 2)] - np.exp(3j * np.pi / 8)) < 1e-15
    assert ISING.R[(1, 2, 1)] == ISING.R[(2, 1, 1)] == -1j
    assert abs(ISING.R[(2, 2, 0)] + 1) < 1e-15
    assert abs(FIB.R[(1, 1, 0)] - np.exp(4j * np.pi / 5)) < 1e-15
    assert abs(FIB.R[(1, 1, 1)] - np.exp(-3j * np.pi / 5)) < 1e-15
    for fs in (ISING, FIB):
        for phase in fs.R.values():
            assert abs(abs(phase) - 1) < 1e-12


def test_ising_twists():
    assert ISING.twist is not None
    assert abs(ISING.twist[0] - 1) < 1e-15
    assert abs(ISING.twist[1] - np.exp(1j * np.pi / 8)) < 1e-15
    assert abs(ISING.twist[2] + 1) < 1e-15
    assert FIB.twist is None


# ----------------------------------------------------------------- braids

def test_ising_braid_generator_is_the_stated_phase_matrix():
    bg = braid_generators(ISING)
    assert bg.label == "sigma"
    expect = np.exp(-1j * np.pi / 8) * np.diag([1.0, 1j])
    assert np.max(np.abs(bg.sigma1 - expect)) < 1e-12


def test_fibonacci_braid_generator_diagonal():
    bg = braid_generators(FIB)
    expect = np.diag([np.exp(4j * np.pi / 5), np.exp(-3j * np.pi / 5)])
    assert np.max(np.abs(bg.sigma1 - expect)) < 1e-12


@pytest.mark.parametrize("fs", [ISING, FIB])
def test_braid_generators_unitary_and_consistent(fs):
    bg = braid_generators(fs)
    for mat in (bg.sigma1, bg.sigma2, bg.b_matrix):
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12
    # braid relation up to a global phase
    lhs = bg.sigma1 @ bg.sigma2 @ bg.sigma1
    rhs = bg.sigma2 @ bg.sigma1 @ bg.sigma2
    overlap = np.sum(np.conj(rhs) * lhs)
    phase = overlap / abs(overlap)
    assert np.max(np.abs(lhs - phase * rhs)) < 1e-10
    assert bg.braid_residual < 1e-10


def test_braid_requires_a_two_channel_label():
    with pytest.raises(ValidationError):
        braid_generators(cyclic_fusion_system(3))


@pytest.mark.parametrize("fs, label", [(ISING, None), (ISING, 1), (ISING, "psi"),
                                       (FIB, None), (FIB, "f")])
def test_the_braid_record_derives_everything_from_the_system(fs, label):
    bg, served = anyons.BraidGenerators(fs, label), braid_generators(fs, label)
    assert bg.label == served.label and bg.label in fs.labels
    for name in ("sigma1", "sigma2", "b_matrix"):
        assert getattr(bg, name).tobytes() == getattr(served, name).tobytes()
        assert not getattr(bg, name).flags.writeable
    assert bg.braid_residual == served.braid_residual


@pytest.mark.parametrize("fs, label, message", [
    (cyclic_fusion_system(3), None, "no label has a 2-dimensional three-anyon fusion space"),
    (cyclic_fusion_system(3), "g1", "label 'g1' has an empty three-anyon space"),
    (cyclic_fusion_system(2), "g1", r"missing R data for channel \(1, 1, 0\)"),
    (FusionSystem(FIB.labels, FIB.N, R=FIB.R), None,
     r"missing F data: block \(1,1,1;1\) has dimension 2"),
], ids=["no-two-channel-label", "empty-space", "missing-R", "missing-F"])
def test_the_braid_record_refuses_with_its_witness(fs, label, message):
    for build in (anyons.BraidGenerators, braid_generators):
        with pytest.raises(ValidationError, match=message):
            build(fs, label)


# ------------------------------------------------------------ consistency

def test_pentagon_builtins():
    rep = verify_pentagon(ISING)
    assert rep.passed and rep.max_residual < 1e-10
    assert rep.identities_checked == 136

    rep = verify_pentagon(FIB)
    assert rep.passed and rep.max_residual < 1e-10
    assert rep.identities_checked == 50


def test_pentagon_trivial_system():
    rep = verify_pentagon(cyclic_fusion_system(1))
    assert rep.passed and rep.max_residual == 0.0


def test_pentagon_detects_sign_corruption():
    # flip the sign of the (psi, sigma, psi) recoupling entry; the block
    # stays unitary so only the pentagon can catch the inconsistency
    f_bad = dict(ISING.F)
    f_bad[(2, 1, 2, 1)] = np.array([[1.0]])
    corrupted = FusionSystem(ISING.labels, ISING.N, F=f_bad, R=dict(ISING.R))
    rep = verify_pentagon(corrupted)
    assert not rep.passed
    assert rep.max_residual > 0.1


def test_hexagon_fibonacci():
    rep = verify_hexagon(FIB)
    assert rep.passed
    assert rep.max_residual < 1e-10
    assert rep.max_residual_inverse < 1e-10
    assert rep.identities_checked > 0


# The entry-by-entry loops that verify_pentagon and verify_hexagon replaced,
# kept as the oracle for the masked einsum identities.

def _oracle_f_entry(fs, a, b, c, e, x, y):
    n = fs.N
    if not (n[a, b, x] and n[x, c, e] and n[b, c, y] and n[a, y, e]):
        return 0.0
    rows, cols, mat = _f_block(fs, a, b, c, e)
    return complex(mat[rows.index(x), cols.index(y)])


def oracle_pentagon(fs):
    _require_small_multiplicity_free(fs, "pentagon", max_rank=3)
    rank = fs.rank
    missing = []
    for a, b, c, e in itertools.product(range(rank), repeat=4):
        rows = _tree_rows(fs.N, a, b, c, e)
        cols = _tree_cols(fs.N, a, b, c, e)
        if len(rows) != len(cols):
            raise ValidationError(
                f"block ({a},{b},{c};{e}) is {len(rows)}x{len(cols)}; data inconsistent"
            )
        if len(rows) > 1 and (a, b, c, e) not in fs.F:
            missing.append((a, b, c, e))
    if missing:
        raise ValidationError(f"incomplete F data; missing blocks: {missing}")

    n = fs.N
    f = _oracle_f_entry
    worst = 0.0
    checked = 0
    for a, b, c, d, e in itertools.product(range(rank), repeat=5):
        for x in range(rank):
            for y, w, v in itertools.product(range(rank), repeat=3):
                if not (n[a, b, x] and n[x, c, y] and n[y, d, e]):
                    continue
                if not (n[c, d, w] and n[b, w, v] and n[a, v, e]):
                    continue
                lhs = f(fs, x, c, d, e, y, w) * f(fs, a, b, w, e, x, v)
                rhs = sum(
                    f(fs, a, b, c, y, x, z) * f(fs, a, z, d, e, y, v) * f(fs, b, c, d, v, z, w)
                    for z in range(rank)
                )
                worst = max(worst, abs(lhs - rhs))
                checked += 1
    return PentagonReport(max_residual=worst, identities_checked=checked)


def oracle_hexagon(fs, max_rank=2):
    _require_small_multiplicity_free(fs, "hexagon", max_rank=max_rank)
    n = fs.N
    f = _oracle_f_entry
    rank = fs.rank
    residuals = [0.0, 0.0]
    checked = 0
    for conjugate in (False, True):
        def phase(i, j, k):
            val = _r_phase(fs, i, j, k)
            return val.conjugate() if conjugate else val

        worst = 0.0
        for a, b, c, d in itertools.product(range(rank), repeat=4):
            for e, g in itertools.product(range(rank), repeat=2):
                if not (n[c, a, e] and n[e, b, d] and n[c, b, g] and n[a, g, d]):
                    continue
                lhs = phase(c, a, e) * f(fs, a, c, b, d, e, g) * phase(c, b, g)
                rhs = sum(
                    f(fs, c, a, b, d, e, m) * phase(c, m, d) * f(fs, a, b, c, d, m, g)
                    for m in range(rank)
                    if n[a, b, m] and n[c, m, d]
                )
                worst = max(worst, abs(lhs - rhs))
                checked += 1
        residuals[int(conjugate)] = worst
    return HexagonReport(
        max_residual=residuals[0],
        max_residual_inverse=residuals[1],
        identities_checked=checked,
    )


def _rebuilt(fs, f_data=None, r_data=None):
    return FusionSystem(fs.labels, fs.N,
                              dict(fs.F) if f_data is None else f_data,
                              dict(fs.R) if r_data is None else r_data)


def _outcome(check, fs):
    try:
        return check(fs)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def _assert_same(new, old):
    if isinstance(old, str):
        assert new == old
        return
    assert type(new) is type(old)
    assert new.identities_checked == old.identities_checked
    assert abs(new.max_residual - old.max_residual) <= 1e-14
    if isinstance(old, HexagonReport):
        assert abs(new.max_residual_inverse - old.max_residual_inverse) <= 1e-14
    assert new.passed == old.passed


_ROTATION = np.array([[0.6, 0.8], [-0.8, 0.6]])
ORACLE_SYSTEMS = {
    "ising": ISING,
    "fibonacci": FIB,
    "z1": cyclic_fusion_system(1),
    "z2": cyclic_fusion_system(2),
    "z3": cyclic_fusion_system(3),
    "ising_psi_sigma_psi_flipped": _rebuilt(ISING, {**ISING.F, (2, 1, 2, 1): np.array([[1.0]])}),
    "ising_rotated_block": _rebuilt(ISING, {**ISING.F, (1, 1, 1, 1): _ROTATION}),
    "fibonacci_wrong_r": _rebuilt(FIB, r_data={(1, 1, 0): 1j, (1, 1, 1): -1.0}),
    "fibonacci_without_f": _rebuilt(FIB, f_data={}),
    "fibonacci_missing_r": _rebuilt(FIB, r_data={(1, 1, 1): FIB.R[(1, 1, 1)]}),
    "fibonacci_without_f_or_r": _rebuilt(FIB, f_data={}, r_data={}),
}


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_pentagon_matches_the_loop_oracle(name):
    fs = ORACLE_SYSTEMS[name]
    new, old = _outcome(verify_pentagon, fs), _outcome(oracle_pentagon, fs)
    if name.startswith("fibonacci_without_f"):
        # the one intended change: the missing block is named by _f_block
        assert old == "ValidationError: incomplete F data; missing blocks: [(1, 1, 1, 1)]"
        assert new == "ValidationError: missing F data: block (1,1,1;1) has dimension 2"
        return
    _assert_same(new, old)


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_hexagon_matches_the_loop_oracle(name):
    fs = ORACLE_SYSTEMS[name]
    _assert_same(_outcome(verify_hexagon, fs), _outcome(oracle_hexagon, fs))


def test_oracle_systems_cover_pass_fail_and_refusal():
    pentagon = {name: _outcome(verify_pentagon, fs) for name, fs in ORACLE_SYSTEMS.items()}
    assert pentagon["z3"].passed and pentagon["z3"].max_residual == 0.0
    assert not pentagon["ising_psi_sigma_psi_flipped"].passed
    assert not pentagon["ising_rotated_block"].passed
    hexagon = {name: _outcome(verify_hexagon, fs) for name, fs in ORACLE_SYSTEMS.items()}
    assert hexagon["fibonacci"].identities_checked == 30
    assert not hexagon["fibonacci_wrong_r"].passed
    assert hexagon["fibonacci_missing_r"] == (
        "ValidationError: missing R data for channel (1, 1, 0)")
    assert "rank 3, above the cap of 2" in hexagon["z3"]


def _unit(angle):
    return complex(np.cos(angle), np.sin(angle))


_ANGLE = st.floats(min_value=0.0, max_value=2 * np.pi)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["ising", "fibonacci"]), data=st.data())
def test_random_gauge_data_matches_the_loop_oracle(name, data):
    # a phase on every 1x1 block and every admissible channel, stored or
    # defaulted, so that no symmetry of the built-in data hides an index
    fs = builtin_fusion_system(name)
    f_data = {key: np.array([[_unit(data.draw(_ANGLE))]])
              for key in itertools.product(range(fs.rank), repeat=4)
              if len(_tree_rows(fs.N, *key)) == 1}
    theta, alpha, beta, gamma = (data.draw(_ANGLE) for _ in range(4))
    f_data[(1, 1, 1, 1)] = _unit(alpha) * np.array([
        [_unit(beta) * np.cos(theta), _unit(gamma) * np.sin(theta)],
        [-_unit(-gamma) * np.sin(theta), _unit(-beta) * np.cos(theta)],
    ])
    r_data = {tuple(key): _unit(data.draw(_ANGLE)) for key in np.argwhere(fs.N).tolist()}
    varied = FusionSystem(fs.labels, fs.N, f_data, r_data)
    _assert_same(verify_pentagon(varied), oracle_pentagon(varied))
    _assert_same(_outcome(verify_hexagon, varied), _outcome(oracle_hexagon, varied))


def _loop_f_tensor(fs):
    """F[a,b,c,e,x,y] as `_f_tensor` first built it: one `_f_block` per
    (a, b, c, e) in itertools.product order; the oracle for the masks."""
    f = np.zeros((fs.rank,) * 6, dtype=np.complex128)
    for a, b, c, e in itertools.product(range(fs.rank), repeat=4):
        rows, cols, mat = _f_block(fs, a, b, c, e)
        f[a, b, c, e][np.ix_(rows, cols)] = mat
    return f


# Rep(S3): t x t = 1 + s + t, whose (t,t,t;t) block is 3x3; and Fibonacci
# squared (rank 4), which has several blocks above 1x1.
REP_S3_N = np.array([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                     [[0, 0, 1], [0, 0, 1], [1, 1, 1]]])
FIB_SQUARED_N = np.einsum("ikm,jln->ijklmn", FIB.N, FIB.N).reshape(4, 4, 4)
F_TENSOR_SYSTEMS = {
    **ORACLE_SYSTEMS,
    "rep_s3": FusionSystem(("1", "s", "t"), REP_S3_N),
    "fibonacci_squared": FusionSystem(("1", "a", "b", "ab"), FIB_SQUARED_N),
    "fibonacci_squared_one_block": FusionSystem(
        ("1", "a", "b", "ab"), FIB_SQUARED_N,
        F={(1, 1, 1, 1): np.array([[0.6, 0.8], [-0.8, 0.6]])}),
    "z4": cyclic_fusion_system(4),
}


@pytest.mark.parametrize("name", F_TENSOR_SYSTEMS)
def test_f_tensor_matches_the_block_loop(name):
    fs = F_TENSOR_SYSTEMS[name]
    new, old = _outcome(anyons._f_tensor, fs), _outcome(_loop_f_tensor, fs)
    if isinstance(old, str):
        assert new == old
    else:
        assert np.array_equal(new, old)


def test_f_tensor_names_the_first_missing_block_in_product_order():
    missing = [key for key in itertools.product(range(4), repeat=4)
               if len(_tree_rows(FIB_SQUARED_N, *key)) > 1]
    assert len(missing) > 2 and missing[0] == (1, 1, 1, 1)
    fs = F_TENSOR_SYSTEMS["fibonacci_squared_one_block"]
    a, b, c, e = missing[1]
    with pytest.raises(ValidationError, match=re.escape(
            f"missing F data: block ({a},{b},{c};{e}) has dimension")):
        anyons._f_tensor(fs)


def test_join_lists_every_match_once():
    rng = np.random.default_rng(7)
    for _ in range(20):
        table = rng.random((4, 3, 2)) < 0.4
        key = rng.integers(0, 4, size=9)
        tag, b, c = anyons._join([np.arange(9)], key, table)
        expected = sorted((t, int(u), int(v)) for t in range(9)
                          for u, v in zip(*np.nonzero(table[key[t]])))
        assert sorted(zip(tag.tolist(), b.tolist(), c.tolist())) == expected


def _per_label_dims(n):
    return np.array([float(np.max(np.abs(np.linalg.eigvals(n[a].astype(np.float64)))))
                     for a in range(n.shape[0])])


@pytest.mark.parametrize("fs", [ISING, FIB] + [cyclic_fusion_system(k) for k in range(1, 33)],
                         ids=["ising", "fibonacci"] + [f"z{k}" for k in range(1, 33)])
def test_dims_from_one_stacked_eigvals_match_one_call_per_label(fs):
    assert np.array_equal(anyons._dims_from_tensor(fs.N), _per_label_dims(fs.N))


def test_hexagon_rank_guard():
    with pytest.raises(ValidationError, match="rank"):
        verify_hexagon(ISING)


# R^{sigma sigma}_1 = e^{i pi/8}, R^{sigma sigma}_psi = e^{5i pi/8}: their ratio i
# satisfies the braid relation, but they fail the hexagon and the ribbon identity.
BAD_ISING_R = {**ISING.R, (1, 1, 0): np.exp(1j * np.pi / 8), (1, 1, 2): np.exp(5j * np.pi / 8)}


def _ribbon_residual(fs):
    """Largest |(R^{aa}_c)^2 - theta_c / theta_a^2| over the stored R^{aa}_c."""
    return max(abs(phase ** 2 - fs.twist[c] / fs.twist[a] ** 2)
               for (a, b, c), phase in fs.R.items() if a == b)


def test_ising_r_data_passes_the_hexagon_and_the_ribbon_identity():
    rep = oracle_hexagon(ISING, max_rank=3)
    assert rep.identities_checked == 72
    assert rep.max_residual < 1e-14 and rep.max_residual_inverse < 1e-14
    assert _ribbon_residual(ISING) < 1e-15

    bad = FusionSystem(ISING.labels, ISING.N, dict(ISING.F), BAD_ISING_R, ISING.twist)
    rep = oracle_hexagon(bad, max_rank=3)
    assert rep.max_residual > 0.5 and rep.max_residual_inverse > 0.5
    assert _ribbon_residual(bad) > 0.5


# ------------------------------------------------------------- validation

def _unit_ring(rank):
    """A rank^3 tensor that obeys the unit law and nothing else yet."""
    n = np.zeros((rank,) * 3, dtype=np.int64)
    n[0] = n[:, 0] = np.eye(rank, dtype=np.int64)
    return n


def test_make_fusion_system_rejects_nonassociative():
    # {1, a, b}: a x a = 1 + a, a x b = b, b x b = 1 is commutative with
    # unique duals, but (a a) b = b + b while a (a b) = 1 + a
    n = _unit_ring(3)
    n[1, 1, 0] = n[1, 1, 1] = 1
    n[1, 2, 2] = n[2, 1, 2] = 1
    n[2, 2, 0] = 1
    with pytest.raises(ValidationError, match=r"fusion is not associative at \(a a b -> b\)"):
        FusionSystem(("1", "a", "b"), n)


def _two_product_associativity(labels, n):
    """The associativity check the one-product form replaced: (ab)c and
    a(bc) as two einsums, with the same first witness."""
    left = np.einsum("abe,ecx->abcx", n, n)
    right = np.einsum("bcf,afx->abcx", n, n)
    if np.array_equal(left, right):
        return None
    a, b, c, x = np.argwhere(left != right)[0]
    return f"fusion is not associative at ({labels[a]} {labels[b]} {labels[c]} -> {labels[x]})"


def _associativity_outcome(labels, n):
    try:
        FusionSystem(labels, n)
    except ValidationError as exc:
        if str(exc).startswith("fusion is not associative"):
            return str(exc)
    return None


def _random_commutative_ring(rng, rank):
    n = _unit_ring(rank)
    upper = rng.integers(0, 3, size=(rank - 1,) * 3) * (rng.random((rank - 1,) * 3) < 0.4)
    n[1:, 1:, 1:] = upper + upper.transpose(1, 0, 2)
    return n


def test_one_product_associativity_matches_two_einsums():
    rng = np.random.default_rng(25)
    systems = (ISING, FIB, _one_s_t_ring([1, 1, 1]), _one_s_t_ring([1, 1, 2]),
               _product_ring(2, 3), *map(cyclic_fusion_system, (1, 2, 5, 9)))
    cases = [(fs.labels, fs.N) for fs in systems]
    for _ in range(300):
        rank = int(rng.integers(2, 6))
        cases.append((tuple(map(str, range(rank))), _random_commutative_ring(rng, rank)))
    witnesses = [_two_product_associativity(labels, n) for labels, n in cases]
    assert sum(w is not None for w in witnesses) >= 100
    assert sum(w is None for w in witnesses) >= 9
    for (labels, n), witness in zip(cases, witnesses):
        assert _associativity_outcome(labels, n) == witness


def test_fusion_system_derives_dual_and_dims():
    z2 = cyclic_fusion_system(2)
    with pytest.raises(TypeError, match="dims"):
        FusionSystem(z2.labels, z2.N, dims=np.array([1.0, 7.0]))
    with pytest.raises(TypeError, match="dual"):
        FusionSystem(z2.labels, z2.N, dual=(0, 1))
    assert ISING.dual == (0, 1, 2)
    assert np.max(np.abs(ISING.dims - [1.0, math.sqrt(2.0), 1.0])) <= 1e-15


def test_fusion_system_refuses_labels_that_disagree_with_n():
    with pytest.raises(ValidationError, match=r"fusion tensor must be a non-empty array of "
                                              r"shape \(3, 3, 3\), got shape \(2, 2, 2\)"):
        FusionSystem(("1", "g", "h"), cyclic_fusion_system(2).N)


def test_make_fusion_system_rejects_bad_vacuum():
    n = np.zeros((2, 2, 2), dtype=np.int64)
    n[0, 0, 1] = 1
    n[0, 1, 1] = n[1, 0, 1] = 1
    n[1, 1, 0] = 1
    with pytest.raises(ValidationError, match="fusion unit"):
        FusionSystem(("1", "g"), n)


def test_make_fusion_system_rejects_non_unitary_f():
    f = {(1, 1, 1, 1): np.array([[2.0]])}
    n = cyclic_fusion_system(2).N
    with pytest.raises(ValidationError, match="unitar"):
        FusionSystem(("1", "g"), n, F=f)


def test_make_fusion_system_rejects_non_unit_r():
    r = {(1, 1, 0): 0.5}
    n = cyclic_fusion_system(2).N
    with pytest.raises(ValidationError, match="modulus"):
        FusionSystem(("1", "g"), n, R=r)


def test_make_fusion_system_rejects_non_unit_twist():
    z2 = cyclic_fusion_system(2)
    with pytest.raises(ValidationError, match=re.escape(
            "unit modulus of twist 1 fails at |theta| = 5.0: residual 4.000e+00 exceeds bound 1e-12")):
        FusionSystem(z2.labels, z2.N, twist=(1.0, 5.0))


def test_an_unknown_builtin_fusion_system_is_refused():
    with pytest.raises(ValidationError, match="unknown fusion system 'nope'; built-ins: ising"):
        builtin_fusion_system("nope")


def _unit_law(rank):
    n = np.zeros((rank,) * 3, dtype=np.int64)
    n[0] = n[:, 0, :] = np.eye(rank, dtype=np.int64)
    return n


NEGATIVE_N = cyclic_fusion_system(2).N.copy()
NEGATIVE_N[1, 1, 1] = -1
NON_COMMUTATIVE_N = _unit_law(3)
NON_COMMUTATIVE_N[1, 2, 2] = NON_COMMUTATIVE_N[2, 1, 1] = 1


@pytest.mark.parametrize("labels, n, match", [
    ((), _unit_law(1), "labels must be non-empty and distinct"),
    (("1", "1"), _unit_law(2), "labels must be non-empty and distinct"),
    (("1", "g"), NEGATIVE_N, "fusion multiplicities must be non-negative"),
    (("1", "a", "b"), NON_COMMUTATIVE_N, re.escape("fusion must be commutative (N_ab^c = N_ba^c)")),
], ids=["no labels", "repeated label", "negative N", "non-commutative N"])
def test_a_fusion_tensor_is_refused_by_its_rule(labels, n, match):
    with pytest.raises(ValidationError, match=match):
        FusionSystem(labels, n)


@pytest.mark.parametrize("f_data, r_data, match", [
    ({(1, 1, 1, 1): [[1.0]]}, None, "F block (1, 1, 1, 1) must have shape (2, 2), got (1, 1)"),
    (None, {(1, 1, 1): 1.0}, "R phase given for forbidden channel (1, 1, 1)"),
    (None, {(1, 1, 0): [1.0, 1.0]}, "R phase (1, 1, 0) must be a single number"),
], ids=["F shape", "R forbidden channel", "R not a scalar"])
def test_ising_data_of_the_wrong_form_is_refused(f_data, r_data, match):
    with pytest.raises(ValidationError, match=re.escape(match)):
        FusionSystem(ISING.labels, ISING.N, f_data, r_data)


@pytest.mark.parametrize("f_data, r_data", [
    (None, {(1, 1, 0): 1.0}),
    ({(1, 1, 1, 1): [[1.0]]}, None),
], ids=["one R phase", "one F block"])
def test_f_or_r_data_needs_a_multiplicity_free_system(f_data, r_data):
    # the near-group ring, t x t = 1 + s + 2t, keeps its multiplicities without F and R
    ring = _one_s_t_ring([1, 1, 2])
    with pytest.raises(ValidationError, match=re.escape(
            "F and R data need a multiplicity-free system; N at (t t -> t) is 2")):
        FusionSystem(ring.labels, ring.N, f_data, r_data)


@pytest.mark.parametrize("check, what", [(verify_pentagon, "pentagon"),
                                         (verify_hexagon, "hexagon")])
def test_the_consistency_checks_refuse_a_ring_with_multiplicities(check, what):
    # pentagon on the near-group ring (rank 3); hexagon, capped at rank 2, on f x f = 1 + 2f
    n = _unit_law(2)
    n[1, 1] = [1, 2]
    ring = _one_s_t_ring([1, 1, 2]) if what == "pentagon" else FusionSystem(("1", "f"), n)
    with pytest.raises(ValidationError,
                       match=f"^{what} check supports multiplicity-free systems only$"):
        check(ring)


def test_a_phase_inside_the_unit_bound_can_leave_sigma1_outside_it():
    # |R| - 1 = 0.9e-12 passes UNITARITY_TOL, but sigma1'sigma1 - I = |R|^2 - 1 is twice it
    r_data = {**ISING.R, (1, 1, 0): ISING.R[(1, 1, 0)] * (1 + 0.9e-12)}
    fs = FusionSystem(ISING.labels, ISING.N, dict(ISING.F), r_data, ISING.twist)
    with pytest.raises(ValidationError, match=re.escape(
            "unitarity of sigma1 fails at (0, 0): residual 1.800e-12 exceeds bound 1e-12")):
        braid_generators(fs, "sigma")


@pytest.mark.parametrize("m", [1, 10, 1000, 10 ** 6])
def test_dimensions_satisfy_the_fusion_rule_without_a_check(m):
    # f x f = 1 + m f; d_f = (m + sqrt(m^2 + 4)) / 2 (see `_dims_from_tensor`)
    n = _unit_law(2)
    n[1, 1] = [1, m]
    dims = FusionSystem(("1", "f"), n).dims
    assert dims[1] == pytest.approx((m + math.sqrt(m * m + 4)) / 2, rel=1e-14)
    for fs in (ISING, FIB, cyclic_fusion_system(7), FusionSystem(("1", "f"), n)):
        rule = np.einsum("abc,c->ab", fs.N, fs.dims)
        assert np.max(np.abs(np.outer(fs.dims, fs.dims) - rule)) <= 1e-14 * np.max(rule)


Z2_N = cyclic_fusion_system(2).N


@pytest.mark.parametrize("n_tensor", [
    Z2_N * 1.7,                                   # would truncate to Z_2
    [[[1, 0], [0, 1]], [[0, 1]]],                 # ragged
    [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
], ids=["float", "ragged", "strings"])
def test_make_fusion_system_reads_n_as_integers(n_tensor):
    with pytest.raises(ValidationError, match="fusion tensor"):
        FusionSystem(("1", "g"), n_tensor)


@pytest.mark.parametrize("f_data,r_data", [
    ({(1, 1, 0, 7): [[1.0]]}, None),              # index beyond the labels
    ({(1, 1, 1, -1): [[1.0]]}, None),             # would wrap to the last label
    ({(1, 1, 1): [[1.0]]}, None),                 # three indices for F
    ({(1, 1, 1, 1.0): [[1.0]]}, None),
    (None, {(1, 1, 0, 0): 1.0}),                  # four indices for R
    (None, {(1, 1, 5): 1.0}),
    (None, {(1, -1, 0): 1.0}),
], ids=["f-range", "f-negative", "f-length", "f-float", "r-length", "r-range", "r-negative"])
def test_make_fusion_system_checks_keys(f_data, r_data):
    with pytest.raises(ValidationError, match="key"):
        FusionSystem(("1", "g"), Z2_N, F=f_data, R=r_data)


def test_cyclic_system_is_group_like():
    fs = cyclic_fusion_system(5)
    assert fs.rank == 5
    assert np.max(np.abs(fs.dims - 1)) < 1e-12
    assert fuse(fs, "g2", "g3").tolist() == [1, 0, 0, 0, 0]


# ----------------------------------------------------------------- bridge

def _enumerated_bridge(dec, q, fs, maps=None):
    """Reference: fit every vacuum-fixing bijection (or every map in `maps`)
    by least squares in log space, one row per triple."""
    rank = dec.d + 1
    q_arr = q.q
    n_arr = fs.N.astype(np.float64)
    if maps is None:
        maps = ((0,) + rest for rest in itertools.permutations(range(1, rank)))
    best = None
    for perm in map(tuple, maps):
        target = n_arr[np.ix_(perm, perm, perm)]

        rows = []
        rhs = []
        for (i, j, k), t_val in np.ndenumerate(target):
            q_val = q_arr[i, j, k]
            if t_val >= 0.5 and q_val > 1e-8:
                row = np.zeros(rank - 1)
                for idx, sign in ((i, 1.0), (j, 1.0), (k, -1.0)):
                    if idx > 0:
                        row[idx - 1] += sign
                rows.append(row)
                rhs.append(np.log(t_val) - np.log(q_val))
        if rows:
            x, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        else:
            x = np.zeros(rank - 1)
        log_s = np.concatenate(([0.0], x))
        scale = np.exp(log_s[:, None, None] + log_s[None, :, None] - log_s[None, None, :])
        deviation = float(np.max(np.abs(q_arr * scale - target)))
        if best is None or deviation < best[0]:
            best = (deviation, perm, tuple(np.exp(log_s)))
    return best


def _pattern_keeping_maps(q, fs):
    """Reference: every vacuum-fixing bijection under which q > 1e-8 exactly
    where N >= 1, checked triple by triple."""
    rank = fs.rank
    return [perm for perm in ((0,) + rest for rest in itertools.permutations(range(1, rank)))
            if all((q.q[i, j, k] > 1e-8) == (fs.N[perm[i], perm[j], perm[k]] >= 1)
                   for i, j, k in itertools.product(range(rank), repeat=3))]


def test_a_bridge_report_derives_matched_from_its_deviation():
    with pytest.raises(TypeError, match="matched"):
        anyons.BridgeReport(matched=True, bijection=(0, 1), scalars=(1.0, 1.0), deviation=5.0)
    near = errors.BRIDGE_THRESHOLD
    assert anyons.BridgeReport((0, 1), (1.0, 1.0), near / 2).matched
    assert not anyons.BridgeReport((0, 1), (1.0, 1.0), near).matched
    assert not anyons.BridgeReport((), (), math.inf).matched


def _assert_no_map_keeps_the_pattern(rep):
    assert not rep.matched
    assert rep.bijection == () and rep.scalars == ()
    assert rep.deviation == math.inf


def _cyclic_krein(order):
    dec = decompose(build_group_scheme(groups.cyclic(order)))
    return dec, krein_parameters(dec)


def _relabelled(q, perm):
    """The Krein tensor with idempotent perm[i] renamed i."""
    perm = list(perm)
    return KreinTensor(q.q[np.ix_(perm, perm, perm)])


def _relabelled_ring(fs, perm):
    perm = list(perm)
    return FusionSystem([fs.labels[p] for p in perm], fs.N[np.ix_(perm, perm, perm)])


def _product_ring(*orders):
    """Fusion ring of Z_o1 x Z_o2 x ..., elements in mixed-radix order."""
    elems = list(itertools.product(*(range(o) for o in orders)))
    n = np.zeros((len(elems),) * 3, dtype=np.int64)
    for a, ea in enumerate(elems):
        for b, eb in enumerate(elems):
            n[a, b, elems.index(tuple((x + y) % o for x, y, o in zip(ea, eb, orders)))] = 1
    return FusionSystem(["".join(map(str, e)) for e in elems], n)


def _assert_dims_over_multiplicities(dec, q, fs, rep):
    """The reported scalars are d_pi(i) / m_i bit for bit, and the deviation
    is their max |q_ij^k s_i s_j / s_k - N[pi]_ij^k|, triple by triple."""
    perm = rep.bijection
    s = fs.dims[list(perm)] / np.array(dec.multiplicities, dtype=np.float64)
    assert rep.scalars == tuple(s)
    assert all(type(v) is float for v in rep.scalars)
    assert "np.float64" not in repr(rep)
    assert rep.deviation == max(
        abs(q.q[i, j, k] * s[i] * s[j] / s[k] - fs.N[perm[i], perm[j], perm[k]])
        for i, j, k in itertools.product(range(fs.rank), repeat=3))


def _assert_same_as_enumeration(dec, q, fs, maps=None):
    """The bridge against the least-squares oracle: the same bijection and
    verdict, and on a matched pair the same scalars and deviation within
    1e-12 (the oracle fits in log space, the bridge reads d / m)."""
    rep = scheme_fusion_bridge(dec, q, fs)
    deviation, perm, scalars = _enumerated_bridge(dec, q, fs, maps)
    assert rep.bijection == perm
    assert rep.matched == (deviation < errors.BRIDGE_THRESHOLD)
    if rep.matched:
        assert np.max(np.abs(np.subtract(rep.scalars, scalars))) <= 1e-12
        assert abs(rep.deviation - deviation) <= 1e-12
    _assert_dims_over_multiplicities(dec, q, fs, rep)
    return rep


def test_bridge_matches_cyclic_groups():
    for order in (2, 3):
        dec, kt = _cyclic_krein(order)
        rep = scheme_fusion_bridge(dec, kt, cyclic_fusion_system(order))
        assert rep.matched
        assert rep.deviation < 1e-10
        assert rep.bijection == tuple(range(order))
        assert np.max(np.abs(np.array(rep.scalars) - 1)) < 1e-9


@pytest.mark.parametrize("order", range(1, 8))
def test_bridge_equals_enumeration_on_cyclic_rings(order):
    dec, kt = _cyclic_krein(order)
    assert _assert_same_as_enumeration(dec, kt, cyclic_fusion_system(order)).matched


@pytest.mark.parametrize("order", [4, 5, 6, 7])
def test_bridge_equals_enumeration_on_relabelled_krein_tensors(order):
    dec, kt = _cyclic_krein(order)
    fs = cyclic_fusion_system(order)
    rng = np.random.default_rng(order)
    for _ in range(3):
        perm = (0,) + tuple(int(v) + 1 for v in rng.permutation(order - 1))
        assert _assert_same_as_enumeration(dec, _relabelled(kt, perm), fs).matched


def test_bridge_equals_enumeration_on_unmatched_pairs(j42_dec, j42_krein):
    z2_dec, z2_krein = _cyclic_krein(2)
    z3_dec, z3_krein = _cyclic_krein(3)
    z4_dec, z4_krein = _cyclic_krein(4)
    z8_dec, z8_krein = _cyclic_krein(8)
    for dec, kt, fs in ((j42_dec, j42_krein, ISING), (z3_dec, z3_krein, ISING),
                        (z2_dec, z2_krein, FIB), (z4_dec, z4_krein, _product_ring(2, 2)),
                        (z8_dec, z8_krein, _product_ring(2, 4))):
        assert _pattern_keeping_maps(kt, fs) == []
        _assert_no_map_keeps_the_pattern(scheme_fusion_bridge(dec, kt, fs))


def _one_s_t_ring(t_times_t):
    """{1, s, t} with s x s = 1, s x t = t and t x t = the given (1, s, t)
    multiplicities: (1, 1, 1) is Rep(S3), (1, 1, 2) the near-group ring."""
    n = _unit_ring(3)
    n[1, 1, 0] = n[1, 2, 2] = n[2, 1, 2] = 1
    n[2, 2] = t_times_t
    return FusionSystem(("1", "s", "t"), n)


def test_bridge_scores_the_maps_that_keep_the_pattern_of_an_unmatched_pair(
        decompositions, krein_tensors):
    dec, kt = decompositions["conjugacy_s3"], krein_tensors["conjugacy_s3"]
    fs = _one_s_t_ring([1, 1, 2])
    assert _pattern_keeping_maps(kt, fs) == [(0, 2, 1)]
    rep = _assert_same_as_enumeration(dec, kt, fs)
    assert not rep.matched
    assert rep.bijection == (0, 2, 1)
    # the distance under s = d / m, the only scalars a match could use
    assert abs(rep.deviation - math.sqrt(3) / 2) <= 1e-15


@settings(max_examples=10, deadline=None)
@given(st.permutations(range(1, 3)))
def test_bridge_matches_s3_conjugacy_to_rep_s3(decompositions, krein_tensors, n_rest):
    # relabel the ring, not q: the scalars read dec.multiplicities = (1, 4, 1)
    dec, kt = decompositions["conjugacy_s3"], krein_tensors["conjugacy_s3"]
    assert dec.multiplicities == (1, 4, 1)
    fs = _relabelled_ring(_one_s_t_ring([1, 1, 1]), (0,) + tuple(n_rest))
    rep = _assert_same_as_enumeration(dec, kt, fs)
    assert rep.matched
    assert [fs.labels[p] for p in rep.bijection] == ["1", "t", "s"]
    assert np.max(np.abs(np.subtract(rep.scalars, [1.0, 0.5, 1.0]))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6).flatmap(lambda order: st.tuples(
    st.just(order),
    st.permutations(range(1, order)),
    st.permutations(range(1, order)),
)))
def test_bridge_equals_enumeration_under_relabelling(case):
    order, q_rest, n_rest = case
    dec, kt = _cyclic_krein(order)
    fs = _relabelled_ring(cyclic_fusion_system(order), (0,) + tuple(n_rest))
    _assert_same_as_enumeration(dec, _relabelled(kt, (0,) + tuple(q_rest)), fs)


@pytest.mark.parametrize("order", [9, 16, 32])
def test_bridge_matches_cyclic_groups_above_the_enumeration_rank(order):
    # the oracle fits only the maps the search keeps: all 8! maps at rank 9
    # already take minutes
    dec, kt = _cyclic_krein(order)
    fs = cyclic_fusion_system(order)
    maps = anyons._support_maps(kt.q > 1e-8, fs.N >= 1)
    rep = _assert_same_as_enumeration(dec, kt, fs, maps)
    assert rep.matched
    assert rep.bijection[0] == 0
    assert sorted(rep.bijection) == list(range(order))
    assert rep.deviation < 1e-10


def test_bridge_answers_unmatched_pairs_under_a_200_node_cap(monkeypatch):
    # a support-consistent map Z_k -> Z_a x Z_b would be a group isomorphism;
    # the pruned search rules each one out in under 200 nodes, where listing
    # every bijection would take 13,700 nodes at rank 8
    monkeypatch.setattr(anyons, "_BRIDGE_NODE_CAP", 200)
    for order, factors in ((8, (2, 4)), (9, (3, 3)), (12, (2, 6))):
        dec, kt = _cyclic_krein(order)
        _assert_no_map_keeps_the_pattern(scheme_fusion_bridge(dec, kt, _product_ring(*factors)))


def test_bridge_answers_an_unmatched_pair_at_rank_32():
    dec, kt = _cyclic_krein(32)
    _assert_no_map_keeps_the_pattern(scheme_fusion_bridge(dec, kt, _product_ring(2, 16)))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(8, (2, 4)), (9, (3, 3))]).flatmap(lambda case: st.tuples(
    st.just(case),
    st.permutations(range(1, case[0])),
    st.permutations(range(1, case[0])),
)))
def test_bridge_decides_unmatched_pairs_under_relabelling(case):
    (order, factors), q_rest, n_rest = case
    dec, kt = _cyclic_krein(order)
    fs = _relabelled_ring(_product_ring(*factors), (0,) + tuple(n_rest))
    _assert_no_map_keeps_the_pattern(
        scheme_fusion_bridge(dec, _relabelled(kt, (0,) + tuple(q_rest)), fs))


def test_bridge_refuses_rank_above_32():
    dec, kt = _cyclic_krein(33)
    with pytest.raises(ValidationError, match="rank 33"):
        scheme_fusion_bridge(dec, kt, cyclic_fusion_system(33))


def test_bridge_node_cap_covers_the_rank_9_tree():
    assert anyons._BRIDGE_NODE_CAP >= sum(math.perm(8, m) for m in range(9)) == 109_601


def test_bridge_node_cap_refuses(monkeypatch):
    dec, kt = _cyclic_krein(9)
    monkeypatch.setattr(anyons, "_BRIDGE_NODE_CAP", 20)
    with pytest.raises(ValidationError, match="passed 20 label-map nodes"):
        scheme_fusion_bridge(dec, kt, cyclic_fusion_system(9))


def test_bridge_rejects_johnson_vs_ising(j42_dec, j42_krein):
    rep = scheme_fusion_bridge(j42_dec, j42_krein, ISING)
    assert not rep.matched
    assert rep.deviation > 0.1


def test_bridge_rank_mismatch(j42_dec, j42_krein):
    with pytest.raises(ValidationError, match="rank"):
        scheme_fusion_bridge(j42_dec, j42_krein, FIB)


def test_bridge_refuses_the_krein_tensor_of_another_d(j42_dec):
    _, z4_krein = _cyclic_krein(4)
    with pytest.raises(ValidationError, match="Krein tensor and decomposition disagree on d"):
        scheme_fusion_bridge(j42_dec, z4_krein, ISING)
