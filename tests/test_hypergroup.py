import tracemalloc

import numpy as np
import pytest

from schemewalk import (
    CertificationError,
    Hypergroup,
    KreinTensor,
    ValidationError,
    classical_chain,
    convolve,
    hypergroup_from,
    walk,
)
from tests.conftest import COMMUTATIVE_NAMES

J42_CHAIN_COIN_1 = np.array([
    [0.0, 1 / 3, 0.0],
    [1.0, 0.0, 1.0],
    [0.0, 2 / 3, 0.0],
])


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_convolution_slices_are_distributions(name, hypergroups):
    h = hypergroups[name]
    conv = h.convolution
    assert conv.min() >= 0
    sums = conv.sum(axis=2)
    assert np.max(np.abs(sums - 1)) < 1e-10


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_identity_slices_are_exact(name, hypergroups):
    h = hypergroups[name]
    delta = np.eye(h.size)
    assert np.array_equal(h.convolution[0], delta)
    assert np.array_equal(h.convolution[:, 0, :], delta)


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_convolution_commutes(name, hypergroups):
    conv = hypergroups[name].convolution
    assert np.max(np.abs(conv - np.swapaxes(conv, 0, 1))) < 1e-12


def test_z2_hypergroup_is_the_group(hypergroups):
    conv = hypergroups["group_z2"].convolution
    for i in range(2):
        for j in range(2):
            expect = np.zeros(2)
            expect[(i + j) % 2] = 1
            assert np.max(np.abs(conv[i, j] - expect)) < 1e-10


def test_z3_hypergroup_is_the_group(hypergroups):
    conv = hypergroups["group_z3"].convolution
    for i in range(3):
        for j in range(3):
            expect = np.zeros(3)
            expect[(i + j) % 3] = 1
            assert np.max(np.abs(conv[i, j] - expect)) < 1e-10


def test_convolve_identity_law(j42_hypergroup):
    nu = np.array([0.2, 0.5, 0.3])
    out = convolve(j42_hypergroup, np.array([1.0, 0.0, 0.0]), nu)
    assert np.max(np.abs(out - nu)) < 1e-12


def test_convolve_z2_flip(hypergroups):
    h = hypergroups["group_z2"]
    out = convolve(h, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert np.max(np.abs(out - [1.0, 0.0])) < 1e-10


def test_convolve_uniform_is_idempotent_z3(hypergroups):
    h = hypergroups["group_z3"]
    u = np.full(3, 1 / 3)
    out = convolve(h, u, u)
    assert np.max(np.abs(out - u)) < 1e-12


def test_convolve_rejects_bad_measures(j42_hypergroup):
    with pytest.raises(ValidationError):
        convolve(j42_hypergroup, np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        convolve(j42_hypergroup, np.array([-0.2, 0.6, 0.6]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        convolve(j42_hypergroup, np.array([0.4, 0.4, 0.4]), np.array([1.0, 0.0, 0.0]))


def test_convolve_reads_an_index_as_its_point_mass(j42_hypergroup):
    h = j42_hypergroup
    for i, j in np.ndindex(h.size, h.size):
        point_i, point_j = np.eye(h.size)[i], np.eye(h.size)[j]
        assert np.array_equal(convolve(h, i, j), convolve(h, point_i, point_j))
        assert np.array_equal(convolve(h, np.int64(i), point_j), convolve(h, point_i, point_j))


@pytest.mark.parametrize("mu,nu", [(True, 0), (0, False), (np.bool_(True), 0), (3, 0), (0, -1)],
                         ids=["bool-left", "bool-right", "numpy-bool", "range", "negative"])
def test_convolve_refuses_bools_and_out_of_range_indices(j42_hypergroup, mu, nu):
    with pytest.raises(ValidationError):
        convolve(j42_hypergroup, mu, nu)


def test_classical_chain_identity_coin(j42_hypergroup):
    assert np.array_equal(classical_chain(j42_hypergroup, 0), np.eye(3))


def test_classical_chain_z2_flip(hypergroups):
    t = classical_chain(hypergroups["group_z2"], 1)
    assert np.max(np.abs(t - [[0, 1], [1, 0]])) < 1e-10


def test_classical_chain_j42(j42_hypergroup):
    t = classical_chain(j42_hypergroup, 1)
    assert np.max(np.abs(t - J42_CHAIN_COIN_1)) < 1e-10
    assert np.max(np.abs(t.sum(axis=0) - 1)) < 1e-10


def test_classical_chain_convex_coin(j42_hypergroup):
    coin = np.array([0.5, 0.25, 0.25])
    t = classical_chain(j42_hypergroup, coin)
    expect = (
        0.5 * classical_chain(j42_hypergroup, 0)
        + 0.25 * classical_chain(j42_hypergroup, 1)
        + 0.25 * classical_chain(j42_hypergroup, 2)
    )
    assert np.max(np.abs(t - expect)) < 1e-12


def test_chain_composition_matches_convolution(j42_hypergroup):
    h = j42_hypergroup
    ta = classical_chain(h, 1)
    tb = classical_chain(h, 2)
    lhs = ta @ tb @ np.array([1.0, 0.0, 0.0])
    rhs = convolve(h, np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_plancherel_is_stationary_for_every_coin(name, hypergroups):
    h = hypergroups[name]
    pi = h.plancherel()
    assert abs(pi.sum() - 1) < 1e-12
    for coin in range(h.size):
        t = classical_chain(h, coin)
        assert np.max(np.abs(t @ pi - pi)) < 1e-9


def test_plancherel_values(j42_hypergroup):
    assert np.max(np.abs(j42_hypergroup.plancherel() - [1 / 6, 1 / 2, 1 / 3])) < 1e-12


def test_walk_zero_steps(j42_hypergroup):
    start = np.array([0.0, 1.0, 0.0])
    hist = walk(j42_hypergroup, 1, start, 0)
    assert len(hist) == 1
    assert np.array_equal(hist[0], start)


def test_walk_start_index_is_a_point_mass(j42_hypergroup):
    by_index = walk(j42_hypergroup, 1, np.int64(2), 4)
    by_vector = walk(j42_hypergroup, 1, np.array([0.0, 0.0, 1.0]), 4)
    assert all(np.array_equal(a, b) for a, b in zip(by_index, by_vector))


@pytest.mark.parametrize("coin, start, message", [
    (1, 3, r"start index 3 out of range 0\.\.2"),
    (1, -1, r"start index -1 out of range 0\.\.2"),
    (1, True, "start must be an index or a distribution, not True"),
    (np.True_, 0, "coin must be an index or a distribution, not "),
])
def test_walk_refuses_a_bool_or_an_index_out_of_range(coin, start, message, j42_hypergroup):
    with pytest.raises(ValidationError, match=message):
        walk(j42_hypergroup, coin, start, 1)


def test_walk_z2_alternates(hypergroups):
    h = hypergroups["group_z2"]
    hist = walk(h, 1, np.array([1.0, 0.0]), 3)
    expect = [[1, 0], [0, 1], [1, 0], [0, 1]]
    assert len(hist) == 4
    for got, want in zip(hist, expect):
        assert np.max(np.abs(got - want)) < 1e-10


def test_walk_j42_time_average_reaches_plancherel(j42_hypergroup):
    """The coin-1 chain on J(4,2) is 2-periodic (its spectrum is {1,0,-1}),
    so the iterates alternate between two measures whose average is the
    stationary distribution; the two-step time average converges."""
    h = j42_hypergroup
    target = np.array([1 / 6, 1 / 2, 1 / 3])
    hist = walk(h, 1, np.array([1.0, 0.0, 0.0]), 200)
    averaged = [0.5 * (hist[t] + hist[t + 1]) for t in range(len(hist) - 1)]
    hits = [t for t, avg in enumerate(averaged) if np.max(np.abs(avg - target)) <= 1e-6]
    assert hits and hits[0] <= 200
    # every iterate stays a genuine distribution
    for dist in hist:
        assert dist.min() >= -1e-9
        assert abs(dist.sum() - 1) < 1e-9


def test_walk_aperiodic_coin_converges_pointwise(j42_hypergroup):
    """A lazy coin removes the period; plain iterates then converge."""
    h = j42_hypergroup
    target = h.plancherel()
    coin = np.array([0.5, 0.5, 0.0])
    hist = walk(h, coin, np.array([1.0, 0.0, 0.0]), 120)
    assert np.max(np.abs(hist[-1] - target)) < 1e-6


@pytest.mark.parametrize("shape", [(3, 3, 2), (3, 3), (3, 3, 3, 1), (0, 0, 0)])
def test_hypergroup_refuses_a_convolution_that_is_not_a_cube(shape, j42_hypergroup):
    assert j42_hypergroup.size == 3
    with pytest.raises(ValidationError, match=r"convolution must be a non-empty array of shape "
                                              r"\(n, n, n\)"):
        Hypergroup(np.zeros(shape), j42_hypergroup.multiplicities)


def test_walk_rejects_negative_steps(j42_hypergroup):
    with pytest.raises(ValidationError):
        walk(j42_hypergroup, 1, np.array([1.0, 0.0, 0.0]), -1)


@pytest.mark.parametrize("steps", [2.5, 2.0, True, np.True_, "2", None, np.int64(-1)])
def test_walk_takes_steps_as_an_integer_alone(steps, j42_hypergroup):
    """A bool, a float or a string is refused; a NumPy integer counts as an int."""
    with pytest.raises(ValidationError, match="steps must be an integer >= 0, got "):
        walk(j42_hypergroup, 1, 0, steps)
    by_numpy = walk(j42_hypergroup, 1, 0, np.uint8(2))
    assert len(by_numpy) == 3
    assert all(np.array_equal(a, b) for a, b in zip(by_numpy, walk(j42_hypergroup, 1, 0, 2)))


@pytest.mark.parametrize("steps", [10 ** 9, 10 ** 20])
def test_walk_refuses_a_history_above_the_byte_cap_before_allocating(steps, j42_hypergroup):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"a walk of {steps} steps on 3 indices takes "
                           f"{(steps + 1) * 24} bytes, above the cap of 200000000"):
            walk(j42_hypergroup, 1, 0, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# A KreinTensor can be built by hand, so hypergroup_from checks what it reads.
# J(4,2) has d = 2 and multiplicities (1, 3, 2); weight (i,j,k) is
# q_ij^k m_k / (m_i m_j).  The d-mismatch case reads the Krein tensor of
# Z_4 (d = 3): a tensor's d is its shape, so a wrong d cannot be declared.
@pytest.mark.parametrize("source, edits, error, witness", [
    ("group_z4", {}, ValidationError, "d=3 but decomposition has d=2"),
    ("johnson_4_2", {(1, 2, 1): -1.0}, CertificationError, r"convolution weight >= 0 fails at \(1, 2, 1\): residual 5\.000e-01 exceeds bound 1e-08"),
    ("johnson_4_2", {(2, 2, 1): 0.4}, CertificationError, r"total mass 1 of a convolution slice fails at \(2, 2\): residual 3\.000e-01 exceeds "
     r"bound 1e-08"),
    # moving half of slice (0,1)'s mass keeps every slice a distribution
    ("johnson_4_2", {(0, 1, 1): 0.5, (0, 1, 2): 0.75}, CertificationError,
     r"index 0 as the hypergroup identity fails at weight \(0, 1, 1\): residual 5\.000e-01 "
     r"exceeds bound 1e-08"),
], ids=["d-mismatch", "negative-weight", "slice-mass", "identity"])
def test_hypergroup_from_refuses_an_edited_krein_tensor(source, edits, error, witness,
                                                        j42_dec, krein_tensors):
    q = krein_tensors[source].q.copy()
    for index, value in edits.items():
        q[index] = value
    with pytest.raises(error, match=witness):
        hypergroup_from(j42_dec, KreinTensor(q))


# The constructor certifies hand-built input too.  Each probe was accepted
# before the checks moved into `Hypergroup`: all weights -1 walked to
# [3, 3, 3], and multiplicities of length 1 convolved to [1, 1, 1].
def test_hypergroup_refuses_negative_weights():
    with pytest.raises(CertificationError, match=r"weight >= 0 fails at \(0, 0, 0\): "
                                                 r"residual 1\.000e\+00 exceeds bound 1e-08"):
        Hypergroup(np.full((3, 3, 3), -1.0), (1, 2, 3))


@pytest.mark.parametrize("mults", [(1,), (1, 3), (1, 3, 2, 1)])
def test_hypergroup_refuses_multiplicities_of_the_wrong_length(mults, j42_hypergroup):
    with pytest.raises(ValidationError, match=rf"multiplicities must be a non-empty array of "
                                              rf"shape \(3,\), got shape \({len(mults)},\)"):
        Hypergroup(np.array(j42_hypergroup.convolution), mults)
    with pytest.raises(ValidationError, match=r"multiplicities must be .* shape \(3,\)"):
        Hypergroup(np.ones((3, 3, 3)), mults)


def test_hypergroup_refuses_non_positive_multiplicities(j42_hypergroup):
    with pytest.raises(ValidationError, match="positive"):
        Hypergroup(np.array(j42_hypergroup.convolution), (1, 3, 0))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_hypergroup_refuses_non_finite_weights(value, j42_hypergroup):
    conv = np.array(j42_hypergroup.convolution)
    conv[1, 2, 1] = value
    with pytest.raises(ValidationError, match=r"convolution has a non-finite entry at \(1,2,1\)"):
        Hypergroup(conv, j42_hypergroup.multiplicities)


def test_hypergroup_leaves_the_callers_array_alone(j42_hypergroup):
    conv = np.array(j42_hypergroup.convolution)
    conv[1, 1, 1] -= 1e-12
    conv[0, 1, 1] += 1e-12
    before = conv.copy()
    h = Hypergroup(conv, list(j42_hypergroup.multiplicities))
    assert np.array_equal(conv, before) and conv.flags.writeable
    assert h.convolution is not conv and not h.convolution.flags.writeable
    # weight (1,1,1) is 0 on J(4,2): the clamp stores 0, the identity exactly 1
    assert h.convolution[1, 1, 1] == 0.0 and h.convolution[0, 1, 1] == 1.0
    assert h.multiplicities == j42_hypergroup.multiplicities


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_a_hand_built_hypergroup_equals_the_built_one(name, hypergroups):
    h = hypergroups[name]
    again = Hypergroup(np.array(h.convolution), h.multiplicities)
    assert np.array_equal(again.convolution, h.convolution)
    assert np.array_equal(walk(again, 1, 0, 4), walk(h, 1, 0, 4))
