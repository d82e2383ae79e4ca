import dataclasses
import functools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemewalk import (
    CertificationError,
    SchurChannel,
    TransitionExpectation,
    ValidationError,
    WalkOperator,
    apply_transition_expectation,
    certify_cp,
    classical_chain,
    dilation_unitary,
    iterate_channel,
    make_transition_expectation,
    schur_channel_apply,
    stationary_distribution,
    szegedy_walk,
    transition_expectation_dual,
)
from schemewalk.qmc import _PAIR_SPACE_MAX_VERTICES, _check_density
from schemewalk.schemes import _support_components

RNG = np.random.default_rng(20240817)


def choi_matrix(c: SchurChannel) -> np.ndarray:
    """Dense Choi matrix sum_ab E_ab (x) T(E_ab) of the Schur channel, the
    oracle of `certify_cp`.

    T(E_ab) = e[a][b] E_ab, so the Choi matrix is the multiplier spread
    onto the (a*n+a, b*n+b) positions of the pair space.  This is a
    16 n^4-byte array, so it is refused above `_PAIR_SPACE_MAX_VERTICES`
    vertices.
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


def random_row_stochastic(n, rng=RNG):
    return rng.dirichlet(np.ones(n), size=n)


def stinespring_isometry(p) -> np.ndarray:
    """V, d^2 x d, column i = sum_j sqrt(P[i][j]) e_i (x) e_j, gathered here
    from np.sqrt(P) block by block: the library never forms it."""
    root = np.sqrt(np.asarray(p, dtype=np.float64))
    d = root.shape[0]
    v = np.zeros((d * d, d))
    for i in range(d):
        v[i * d:(i + 1) * d, i] = root[i]
    return v


# ---------------------------------------------------------------- Schur

def test_schur_channel_requires_hermitian():
    with pytest.raises(ValidationError):
        SchurChannel(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_schur_apply_is_entrywise():
    mult = np.array([[1.0, 0.5], [0.5, 1.0]])
    ch = SchurChannel(mult)
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(schur_channel_apply(ch, m), mult * m)
    with pytest.raises(ValidationError):
        schur_channel_apply(ch, np.eye(3))


def test_all_ones_multiplier_scales():
    n = 4
    ch = SchurChannel(np.ones((n, n)) / n)
    m = RNG.normal(size=(n, n))
    m = m + m.T
    assert np.max(np.abs(schur_channel_apply(ch, m) - m / n)) < 1e-15


def test_choi_matrix_embeds_multiplier():
    mult = np.array([[1.0, 0.3], [0.3, 0.5]])
    choi = choi_matrix(SchurChannel(mult))
    assert choi.shape == (4, 4)
    idx = [0, 3]
    assert np.array_equal(choi[np.ix_(idx, idx)], mult)
    other = np.delete(np.delete(choi, idx, axis=0), idx, axis=1)
    assert not other.any()


def test_certify_cp_agrees_with_multiplier_psd():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        herm = (g + g.conj().T) / 2
        if rng.random() < 0.5:
            herm = g @ g.conj().T  # PSD branch
        rep = certify_cp(SchurChannel(herm))
        min_eig = float(np.linalg.eigvalsh(herm).min())
        assert rep.is_cp == (min_eig >= -1e-10)
        assert rep.verdicts_agree
        assert abs(rep.choi_min_eigenvalue - min(min_eig, 0.0)) < 1e-10


def test_certify_cp_swap_multiplier():
    rep = certify_cp(SchurChannel(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert not rep.is_cp
    assert rep.choi_min_eigenvalue < -0.9


def test_schur_channel_matches_hypergroup_chain(j42_dec, j42_hypergroup):
    """On the span of the idempotents the channel acts as the classical chain."""
    dec = j42_dec
    n = dec.n
    ms = dec.multiplicities
    ems = [dec.idempotent(k) for k in range(dec.d + 1)]
    norm = [e / m for e, m in zip(ems, ms)]
    for coin in range(dec.d + 1):
        ch = SchurChannel(norm[coin])
        t = classical_chain(j42_hypergroup, coin)
        for j in range(dec.d + 1):
            out = schur_channel_apply(ch, norm[j]) * n
            coeff = np.array([np.trace(out @ e).real for e in ems])
            assert np.max(np.abs(coeff - t[:, j])) < 1e-9


# ------------------------------------------------------------- dilation

def test_dilation_point_mass_is_identity():
    u = dilation_unitary(np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(u, np.eye(3))


def test_dilation_half_half():
    u = dilation_unitary(np.array([0.5, 0.5]))
    r = np.sqrt(0.5)
    assert np.max(np.abs(u - [[r, r], [-r, r]])) < 1e-15


def test_dilation_zero_one():
    u = dilation_unitary(np.array([0.0, 1.0]))
    assert np.max(np.abs(u - [[0.0, 1.0], [-1.0, 0.0]])) < 1e-15


def test_dilation_orthogonal_on_random_distributions():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 17))
        p = rng.dirichlet(np.ones(n))
        u = dilation_unitary(p)
        assert np.max(np.abs(u.T @ u - np.eye(n))) < 1e-12
        assert np.max(np.abs(u[0] - np.sqrt(p))) < 1e-15


def test_dilation_rejects_bad_input():
    with pytest.raises(ValidationError):
        dilation_unitary(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        dilation_unitary(np.array([-0.1, 1.1]))


# ------------------------------------------- transition expectations

def test_isometry_shape_and_identity():
    p = random_row_stochastic(3)
    te = make_transition_expectation(p)
    v = stinespring_isometry(p)
    assert v.shape == (9, 3)
    assert np.max(np.abs(v.T @ v - np.eye(3))) < 1e-12
    assert np.array_equal(te.sqrt_transition, np.sqrt(p))
    assert not te.sqrt_transition.flags.writeable


def test_sqrt_transition_is_derived_not_passed():
    te = make_transition_expectation(random_row_stochastic(4))
    rebuilt = TransitionExpectation(te.transition)
    assert np.array_equal(rebuilt.sqrt_transition, te.sqrt_transition)
    v = np.zeros((16, 4))
    with pytest.raises(TypeError):
        TransitionExpectation(te.transition, v)
    with pytest.raises(TypeError):
        TransitionExpectation(te.transition, isometry_V=v)
    with pytest.raises(TypeError):
        TransitionExpectation(te.transition, sqrt_transition=te.sqrt_transition)


def stinespring_oracle(p, m, n):
    """E(M (x) N) = V' (M (x) N) V for the row-stochastic p, evaluated from
    the isometry V that `stinespring_isometry` gathers.

    Column j of V, reshaped row-major to the d x d matrix X_j, satisfies
    (M (x) N) vec(X_j) = vec(M X_j N^T), so the product is evaluated in
    O(d^4) time and O(d^3) memory without forming the d^2 x d^2 Kronecker
    product.  Only the generic isometry is used, not its sparsity.
    """
    a = np.asarray(m)
    b = np.asarray(n)
    v = stinespring_isometry(p)
    d = v.shape[1]
    columns = v.T.reshape(d, d, d)                 # columns[j] = X_j
    images = (a @ columns @ b.T).reshape(d, d * d)  # images[j] = vec(M X_j N^T)
    return v.conj().T @ images.T


def test_stinespring_matches_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(n), size=n)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        nn = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = stinespring_oracle(p, m, nn)
        rhs = apply_transition_expectation(make_transition_expectation(p), m, nn)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def _sparse_row_stochastic(n, rng):
    """Rows with about half their entries exactly zero (the diagonal kept)."""
    wts = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
    np.fill_diagonal(wts, 1.0)
    return wts / wts.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("kind", ["dense", "sparse", "periodic"])
def test_closed_form_matches_the_stinespring_oracle_up_to_48_states(kind):
    rng = np.random.default_rng({"dense": 481, "sparse": 482, "periodic": 483}[kind])
    for n in range(1, 49):
        if kind == "dense":
            p = rng.dirichlet(np.ones(n), size=n)
        elif kind == "sparse":
            p = _sparse_row_stochastic(n, rng)
        else:
            p = np.eye(n)[rng.permutation(n)]
        te = make_transition_expectation(p)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        nn = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        gap = np.max(np.abs(apply_transition_expectation(te, m, nn) - stinespring_oracle(p, m, nn)))
        assert gap < 1e-12, (kind, n, gap)


def test_hand_built_transition_expectation_is_certified():
    # V is derived from the transition, and the transition must be row-stochastic.
    with pytest.raises(TypeError):
        TransitionExpectation(2, [[2.0, 0.0], [0.0, 0.0]], np.zeros((4, 2)))
    with pytest.raises(ValidationError, match="not row-stochastic"):
        TransitionExpectation([[2.0, 0.0], [0.0, 0.0]])


def test_transition_expectation_stores_no_isometry_and_serves_65_states():
    te = make_transition_expectation(np.full((65, 65), 1 / 65))
    fields = [f.name for f in dataclasses.fields(TransitionExpectation)]
    assert fields == ["transition", "dim", "sqrt_transition"]
    assert set(vars(te)) == set(fields)
    assert np.max(np.abs(apply_transition_expectation(te, np.eye(65), np.eye(65))
                         - np.eye(65))) < 1e-12
    rng = np.random.default_rng(65)
    p = rng.dirichlet(np.ones(65), size=65)
    m, nn = rng.normal(size=(2, 65, 65))
    gap = (apply_transition_expectation(make_transition_expectation(p), m, nn)
           - stinespring_oracle(p, m, nn))
    assert np.max(np.abs(gap)) < 1e-12


def test_transition_expectation_never_allocates_the_pair_space():
    n = 800
    p = np.full((n, n), 1.0 / n)
    m = np.eye(n)
    tracemalloc.start()
    try:
        te = make_transition_expectation(p)
        out = apply_transition_expectation(te, m, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(out - m)) < 1e-12
    assert peak < 8 * 8 * n * n, peak


def test_unitality():
    te = make_transition_expectation(random_row_stochastic(4))
    out = apply_transition_expectation(te, np.eye(4), np.eye(4))
    assert np.max(np.abs(out - np.eye(4))) < 1e-12


def test_classical_embedding():
    rng = np.random.default_rng(13)
    p = rng.dirichlet(np.ones(3), size=3)
    te = make_transition_expectation(p)
    n_diag = rng.uniform(size=3)
    out = apply_transition_expectation(te, np.eye(3), np.diag(n_diag))
    assert np.max(np.abs(out - np.diag(p @ n_diag))) < 1e-12


def test_identity_transition_multiplies_entrywise():
    te = make_transition_expectation(np.eye(3))
    m = RNG.normal(size=(3, 3))
    nn = RNG.normal(size=(3, 3))
    out = apply_transition_expectation(te, m, nn)
    assert np.max(np.abs(out - m * nn)) < 1e-12


def test_swap_transition_classical():
    te = make_transition_expectation(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = apply_transition_expectation(te, np.eye(2), np.diag([1.0, 0.0]))
    assert np.max(np.abs(out - np.diag([0.0, 1.0]))) < 1e-12


def test_uniform_transition_averages():
    te = make_transition_expectation(np.full((2, 2), 0.5))
    out = apply_transition_expectation(te, np.eye(2), np.diag([3.0, 5.0]))
    assert np.max(np.abs(out - 4.0 * np.eye(2))) < 1e-12


def test_dual_channel_preserves_trace_and_classical_marginal():
    rng = np.random.default_rng(23)
    p = rng.dirichlet(np.ones(4), size=4)
    te = make_transition_expectation(p)
    g = rng.normal(size=(4, 4))
    rho = g @ g.T
    rho /= np.trace(rho)
    sigma = transition_expectation_dual(te, rho)
    assert abs(np.trace(sigma) - 1) < 1e-12
    assert np.linalg.eigvalsh(sigma).min() > -1e-12
    assert np.max(np.abs(np.diag(sigma) - np.diag(rho) @ p)) < 1e-12


def test_dual_channel_matches_einsum_and_keeps_the_input_kind():
    rng = np.random.default_rng(67)
    te = make_transition_expectation(random_row_stochastic(6, rng))
    rho = random_density(rng, 6)
    rho_imag = rho + 1j * np.diag(rng.uniform(-1e-3, 1e-3, 6))
    for r in (rho.real, rho, rho_imag):
        got = transition_expectation_dual(te, r)
        assert got.dtype == (np.complex128 if np.iscomplexobj(r) else np.float64)
        assert np.max(np.abs(got - _dual_einsum_oracle(te, r))) < 1e-15
    assert np.diagonal(transition_expectation_dual(te, rho_imag)).imag.any()


@pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 4)])
def test_dual_channel_refuses_a_state_of_the_wrong_shape(shape):
    te = make_transition_expectation(np.full((4, 4), 0.25))
    with pytest.raises(ValidationError, match=r"shape \(4, 4\), got shape"):
        transition_expectation_dual(te, np.full(shape, 0.1))


def test_make_transition_rejects_nonstochastic():
    with pytest.raises(ValidationError):
        make_transition_expectation(np.array([[0.7, 0.7], [0.5, 0.5]]))
    with pytest.raises(ValidationError):
        make_transition_expectation(np.array([[-0.5, 1.5], [0.5, 0.5]]))


# ------------------------------------------------------------- iterate

def test_iterate_schur_uniform_multiplier():
    n = 3
    ch = SchurChannel(np.ones((n, n)) / n)
    rho = np.eye(n) / n
    traj = iterate_channel(ch, rho, 4)
    assert len(traj.states) == 5
    for state in traj.states[1:]:
        assert np.max(np.abs(state - rho)) < 1e-12
    assert np.max(np.abs(np.array(traj.trace_factors) - 1 / n)) < 1e-12


def test_iterate_dual_transition_reaches_uniform_diag():
    te = make_transition_expectation(np.full((2, 2), 0.5))
    traj = iterate_channel(te, np.diag([1.0, 0.0]), 1)
    assert np.max(np.abs(np.diag(traj.states[-1]) - [0.5, 0.5])) < 1e-12


def test_iterate_rejects_non_cp_channel():
    ch = SchurChannel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(CertificationError):
        iterate_channel(ch, np.eye(2) / 2, 1)


def test_iterate_rejects_bad_density():
    ch = SchurChannel(np.eye(2))
    with pytest.raises(ValidationError):
        iterate_channel(ch, np.array([[1.0, 0.0], [0.0, 1.0]]), 1)  # trace 2
    with pytest.raises(ValidationError):
        iterate_channel(ch, np.array([[1.5, 0.0], [0.0, -0.5]]), 1)  # not PSD


@pytest.mark.parametrize("steps", [2.5, 2.0, True, np.True_, "2", None, np.int64(-1)])
def test_iterate_takes_steps_as_an_integer_alone(steps):
    """A bool, a float or a string is refused; a NumPy integer counts as an int."""
    ch = SchurChannel(np.ones((2, 2)) / 2)
    with pytest.raises(ValidationError, match="steps must be an integer >= 0, got "):
        iterate_channel(ch, np.eye(2) / 2, steps)
    by_numpy = iterate_channel(ch, np.eye(2) / 2, np.uint8(2))
    assert len(by_numpy.states) == 3
    assert all(np.array_equal(a, b)
               for a, b in zip(by_numpy.states, iterate_channel(ch, np.eye(2) / 2, 2).states))


def test_iterate_absorbed_state():
    # PSD multiplier with a zero diagonal entry kills a state supported there
    mult = np.diag([0.0, 1.0])
    ch = SchurChannel(mult)
    rho = np.diag([1.0, 0.0])
    with pytest.raises(CertificationError, match="absorb"):
        iterate_channel(ch, rho, 1)


def test_z2_idempotent_channel_alternates_sign():
    e1 = np.array([[0.5, -0.5], [-0.5, 0.5]])
    ch = SchurChannel(e1)
    rho = np.array([[0.5, 0.3], [0.3, 0.5]])
    traj = iterate_channel(ch, rho, 2)
    # diagonal stays uniform, off-diagonal sign flips each step
    for state in traj.states:
        assert np.max(np.abs(np.diag(state) - 0.5)) < 1e-12
    assert traj.states[1][0, 1] < 0 < traj.states[2][0, 1]


# ------------------------------------------- iterate: stepping oracle

def _dual_einsum_oracle(te, rho):
    root = np.sqrt(te.transition)
    return np.einsum("i,ij,ik->jk", np.diagonal(rho), root, root)


def iterate_oracle(channel, rho0, steps, check_positivity=True):
    """The stepping loop with an `eigvalsh` of the state after every step
    (none with `check_positivity` off)."""
    if isinstance(channel, SchurChannel):
        if float(np.linalg.eigvalsh(channel.multiplier).min()) < -1e-10:
            raise CertificationError(
                "channel is not completely positive (multiplier has a negative eigenvalue)"
            )
        step = lambda rho: schur_channel_apply(channel, rho)  # noqa: E731
    else:
        step = lambda rho: _dual_einsum_oracle(channel, rho)  # noqa: E731
    rho = _check_density(np.asarray(rho0), channel.dim)[0]
    states = [rho]
    factors = []
    for _ in range(steps):
        nxt = step(rho)
        tr = complex(np.trace(nxt)).real
        if tr < 1e-14:
            raise CertificationError(
                f"channel absorbed the state (trace {tr:.3e} after step {len(factors) + 1})"
            )
        rho = nxt / tr
        low = float(np.linalg.eigvalsh(rho).min()) if check_positivity else 0.0
        if low < -1e-10:
            raise CertificationError(
                f"state lost positivity at step {len(factors) + 1} (eigenvalue {low:.3e})"
            )
        states.append(rho)
        factors.append(tr)
    return states, factors


def random_density(rng, n, rank=None):
    g = rng.normal(size=(n, rank or n)) + 1j * rng.normal(size=(n, rank or n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def assert_same_trajectory(channel, rho0, steps, tol=0.0):
    states, factors = iterate_oracle(channel, rho0, steps)
    traj = iterate_channel(channel, rho0, steps)
    assert len(traj.states) == len(states) == steps + 1
    for got, want in zip(traj.states, states):
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= tol
    assert np.max(np.abs(np.subtract(traj.trace_factors, factors)), initial=0.0) <= tol


def test_iterate_matches_oracle_on_idempotent_multipliers(decompositions):
    rng = np.random.default_rng(41)
    for name in ("johnson_6_3", "group_z5"):
        dec = decompositions[name]
        for j, m in enumerate(dec.multiplicities):
            e = dec.idempotent(j)
            for rank in (None, 1):
                assert_same_trajectory(SchurChannel(e / m), random_density(rng, dec.n, rank), 12)
    z2 = SchurChannel(np.array([[0.5, -0.5], [-0.5, 0.5]]))
    assert_same_trajectory(z2, np.array([[0.5, 0.3], [0.3, 0.5]]), 7)


def test_iterate_matches_oracle_on_random_transition_expectations():
    rng = np.random.default_rng(43)
    for n in range(2, 49):
        p = rng.dirichlet(np.ones(n), size=n)
        if n % 2:
            p[rng.random((n, n)) < 0.5] = 0.0
            p[np.arange(n), rng.integers(0, n, size=n)] += 1e-3
            p /= p.sum(axis=1, keepdims=True)
        te = make_transition_expectation(p)
        assert_same_trajectory(te, random_density(rng, n, rank=1 + n % 3), 10, tol=1e-14)


def test_iterate_falls_back_to_eigvalsh_when_the_bound_is_loose():
    # lambda_min(M) = -0.9e-10 passes the entry check; the trace 1e-6 of
    # M o rho0 magnifies it to -4.5e-05 after one step.
    a = 1e-6
    mult = np.array([[a, a + 0.9e-10], [a + 0.9e-10, a]])
    message = r"state lost positivity at step 1 \(eigenvalue -4\.500e-05\)"
    for run in (iterate_oracle, iterate_channel):
        with pytest.raises(CertificationError, match=message):
            run(SchurChannel(mult), np.full((2, 2), 0.5), 3)


def test_iterate_runs_no_per_step_eigensolve(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    rho0 = random_density(np.random.default_rng(47), 6)
    channel = SchurChannel(np.full((6, 6), 0.5) + 0.5 * np.eye(6))
    iterate_channel(channel, rho0, 50)
    assert len(calls) == 3  # multiplier, initial state, final state
    calls.clear()
    # the channel keeps its multiplier eigenvalue, also from certify_cp
    iterate_channel(channel, rho0, 50)
    assert len(calls) == 2  # initial state, final state
    certified = SchurChannel(channel.multiplier)
    calls.clear()
    certify_cp(certified)
    assert len(calls) == 1  # multiplier
    calls.clear()
    certify_cp(certified)
    certify_cp(channel)
    assert not calls
    iterate_channel(certified, rho0, 50)
    assert len(calls) == 2  # initial state, final state
    calls.clear()
    iterate_channel(make_transition_expectation(random_row_stochastic(6)), rho0, 50)
    assert len(calls) == 2  # initial state, final state


def _outcome(run, channel, rho0, steps):
    try:
        return run(channel, rho0, steps)
    except CertificationError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), rank=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       shift=st.floats(0.0, 2e-10), steps=st.integers(0, 6))
def test_iterate_matches_oracle_on_unit_diagonal_multipliers(n, rank, seed, shift, steps):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, min(rank, n))) + 1j * rng.normal(size=(n, min(rank, n)))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    # A unit-diagonal Gram matrix moved towards indefiniteness by `shift`.
    mult = (g @ g.conj().T - shift * np.eye(n)) / (1.0 - shift)
    channel = SchurChannel(mult)
    rho0 = random_density(rng, n, rank=int(rng.integers(1, n + 1)))
    want = _outcome(iterate_oracle, channel, rho0, steps)
    got = _outcome(iterate_channel, channel, rho0, steps)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert all(np.array_equal(a, b) for a, b in zip(got.states, want[0]))
        assert list(got.trace_factors) == want[1]


def test_iterate_transition_with_imaginary_diagonal_matches_oracle():
    # Hermitian within the 1e-10 tolerance; eigvalsh ignores the imaginary
    # diagonal, the transition step carries it through its second product
    rng = np.random.default_rng(53)
    for n in (2, 7, 24, 48):
        te = make_transition_expectation(rng.dirichlet(np.ones(n), size=n))
        rho0 = random_density(rng, n) + 1j * np.diag(rng.uniform(-4e-11, 4e-11, n))
        assert_same_trajectory(te, rho0, 10, tol=1e-14)
        traj = iterate_channel(te, rho0, 3)
        assert np.diagonal(traj.states[3]).imag.any()


def _diagonal_te(targets):
    """Transition expectation moving point i to point targets[i]."""
    return make_transition_expectation(np.eye(len(targets))[list(targets)])


# (channel, rho0, message of the first failure, step of that failure)
FAILING_CHAINS = [
    # absorbed at step 1: the multiplier vanishes on the state's support
    (SchurChannel(np.diag([0.0, 1.0])), np.diag([1.0, 0.0]),
     r"channel absorbed the state \(trace 0\.000e\+00 after step 1\)", 1),
    # lost at step 2: the off-diagonal ratio 1 + 1.5e-10 compounds
    (SchurChannel(np.array([[0.6, 0.6 + 0.9e-10], [0.6 + 0.9e-10, 0.6]])), np.full((2, 2), 0.5),
     r"state lost positivity at step 2 \(eigenvalue -1\.500e-10\)", 2),
    # lost at step 1, and the states go on to a negative trace at step 3:
    # the positivity loss is the failure reported
    (SchurChannel(np.diag([-0.9e-10, 0.5e-10])), np.diag([0.25, 0.75]),
     r"state lost positivity at step 1 \(eigenvalue -1\.500e\+00\)", 1),
    # lost at step 1; the off-diagonal of the later states grows 1000-fold a
    # step and overflows near step 100
    (SchurChannel(1e-10 * np.array([[1e-3, 1.0], [1.0, 1e-3]])), np.full((2, 2), 0.5),
     r"state lost positivity at step 1 \(eigenvalue -4\.995e\+02\)", 1),
    # transition: two negative diagonal entries meet at step 1
    (_diagonal_te([0, 1, 1]), np.diag([1.0 + 1.8e-10, -0.9e-10, -0.9e-10]),
     r"state lost positivity at step 1 \(eigenvalue -1\.800e-10\)", 1),
    # transition: four negative entries merge over three steps
    (_diagonal_te([0, 1, 1, 2, 3]), np.diag([1.0 + 1.2e-10] + [-0.3e-10] * 4),
     r"state lost positivity at step 3 \(eigenvalue -1\.200e-10\)", 3),
]


@pytest.mark.parametrize("case", range(len(FAILING_CHAINS)))
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 5, 400])
def test_iterate_failures_match_oracle(case, steps):
    # the states after a failure, which may overflow, raise no warning
    channel, rho0, message, at = FAILING_CHAINS[case]
    want = _outcome(iterate_oracle, channel, rho0, steps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(iterate_channel, channel, rho0, steps)
    if steps < at:
        assert not isinstance(want, str) and not isinstance(got, str)
        assert len(got.states) == steps + 1
        assert all(np.array_equal(a, b) for a, b in zip(got.states, want[0]))
    else:
        assert got == want
        with pytest.raises(CertificationError, match=message):
            iterate_channel(channel, rho0, steps)


def test_third_failing_chain_would_be_absorbed_at_step_3():
    channel, rho0, _, _ = FAILING_CHAINS[2]
    unchecked = _outcome(functools.partial(iterate_oracle, check_positivity=False),
                         channel, rho0, 5)
    assert unchecked.startswith("channel absorbed the state (trace -")
    assert unchecked.endswith("after step 3)")


@pytest.mark.parametrize("kind", ["schur", "transition"])
def test_iterate_states_are_distinct_arrays(kind):
    rng = np.random.default_rng(59)
    n = 5
    rho0 = random_density(rng, n)
    if kind == "schur":
        channel = SchurChannel(np.full((n, n), 0.5) + 0.5 * np.eye(n))
    else:
        channel = make_transition_expectation(random_row_stochastic(n, rng))
    traj = iterate_channel(channel, rho0, 6)
    before = [s.copy() for s in traj.states]
    traj.states[3][...] = 7.0
    for k, state in enumerate(traj.states):
        if k != 3:
            assert np.array_equal(state, before[k])
    assert not any(np.shares_memory(state, rho0) for state in traj.states)


@pytest.mark.parametrize("kind", ["schur", "transition"])
def test_iterate_memory_is_the_states_plus_a_few_matrices(kind):
    # one n x n complex array per state; a stacked copy of the states or an
    # n x n^2 Gram temporary would each break the bound
    rng = np.random.default_rng(61)
    n, steps = 48, 50
    rho0 = random_density(rng, n)
    if kind == "schur":
        channel = SchurChannel(np.full((n, n), 0.5) + 0.5 * np.eye(n))
        certify_cp(channel)
    else:
        channel = make_transition_expectation(random_row_stochastic(n, rng))
    tracemalloc.start()
    try:
        traj = iterate_channel(channel, rho0, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.states) == steps + 1
    assert peak <= (steps + 1) * 16 * n * n + 64 * n * n


# -------------------------------------------------------------- szegedy

def test_szegedy_invariants_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        d = rng.dirichlet(np.ones(n), size=n).T  # columns sum to 1
        w = szegedy_walk(d)
        nn = n * n
        a_op, projector, swap, u = dense_szegedy_oracle(d, "column")
        assert np.max(np.abs(a_op.T @ a_op - np.eye(n))) < 1e-12
        assert np.max(np.abs(projector @ projector - projector)) < 1e-12
        assert np.array_equal(swap @ swap, np.eye(nn))
        assert np.array_equal(w.U, u)
        assert np.max(np.abs(w.U.T @ w.U - np.eye(nn))) < 1e-10


def test_szegedy_row_convention():
    d = np.array([[0.2, 0.8], [0.6, 0.4]])  # row-stochastic
    w = szegedy_walk(d, convention="row")
    w2 = szegedy_walk(d.T, convention="column")
    assert np.max(np.abs(w.U - w2.U)) < 1e-15


def test_szegedy_identity_chain_swaps():
    w = szegedy_walk(np.eye(2))
    a_op, _, swap, _ = dense_szegedy_oracle(np.eye(2), "column")
    # A|v> = |v,v>; U acts as the swap there
    for v in range(2):
        vec = a_op[:, v]
        assert np.max(np.abs(w.U @ vec - swap @ vec)) < 1e-14


def test_szegedy_three_cycle_recurrence():
    perm = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    w = szegedy_walk(perm)
    a = dense_szegedy_oracle(perm, "column")[0]
    # for a fixed-point-free deterministic cycle U^2 A = -A, hence U^4 A = A
    assert np.max(np.abs(w.U @ (w.U @ a) + a)) < 1e-14
    u4 = np.linalg.matrix_power(w.U, 4)
    assert np.max(np.abs(u4 @ a - a)) < 1e-13


def test_szegedy_fixes_stationary_vector_for_reversible_chains():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        wts = rng.uniform(0.2, 1.0, size=(n, n))
        wts = (wts + wts.T) / 2
        d = wts / wts.sum(axis=0, keepdims=True)
        w = szegedy_walk(d)
        pi = stationary_distribution(d)
        vec = dense_szegedy_oracle(d, "column")[0] @ np.sqrt(pi)
        assert np.max(np.abs(w.U @ vec - vec)) < 1e-8


def test_stationary_distribution_matches_weights():
    wts = np.array([[2.0, 1.0], [1.0, 2.0]])
    d = wts / wts.sum(axis=0, keepdims=True)
    pi = stationary_distribution(d)
    assert np.max(np.abs(pi - [0.5, 0.5])) < 1e-12


@pytest.mark.parametrize("mat", [0.5 * np.eye(2), [[2.0, -1.0], [-1.0, 2.0]],
                                 [[0.5, 0.5], [0.5, 0.6]], [[1.5, -0.5], [-0.5, 1.5]]])
def test_stationary_distribution_refuses_nonstochastic_input(mat):
    with pytest.raises(ValidationError):
        stationary_distribution(mat)


def test_stationary_distribution_certifies_the_fixed_point(monkeypatch):
    d = np.array([[0.9, 0.2], [0.1, 0.8]])
    assert np.max(np.abs(d @ stationary_distribution(d) - stationary_distribution(d))) < 1e-15

    real_eig = np.linalg.eig

    def skewed(mat):
        vals, vecs = real_eig(mat)
        return vals, vecs + np.array([[1e-6], [0.0]])

    monkeypatch.setattr(np.linalg, "eig", skewed)
    with pytest.raises(CertificationError, match="P pi = pi"):
        stationary_distribution(d)


@pytest.mark.parametrize("mat, first, second", [
    (np.eye(2), "{0}", "{1}"),
    ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], "{0}", "{1, 2}"),
    ([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.0, 0.0, 0.0]], "{0}", "{1}"),
])
def test_stationary_distribution_refuses_two_closed_classes(mat, first, second):
    with pytest.raises(CertificationError,
                       match=re.escape(f"not unique: closed classes {first} and {second}")):
        stationary_distribution(mat)


def test_stationary_distribution_accepts_one_closed_class_and_transients():
    # state 2 is transient and feeds state 1; {0, 1} is the only closed class
    d = np.array([[0.5, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 0.5]])
    pi = stationary_distribution(d)
    assert np.max(np.abs(pi - [2 / 3, 1 / 3, 0.0])) < 1e-12
    assert np.max(np.abs(stationary_distribution([[1.0, 0.5], [0.0, 0.5]]) - [1.0, 0.0])) < 1e-12


def test_szegedy_rejects_nonstochastic_and_oversized():
    with pytest.raises(ValidationError):
        szegedy_walk(np.array([[0.5, 0.2], [0.2, 0.5]]))
    with pytest.raises(ValidationError, match="64"):
        szegedy_walk(np.full((65, 65), 1 / 65))


# ------------------------------------------- dense oracles of the old routes

def dense_szegedy_oracle(d, convention):
    """U = S(2 Pi - I) by dense matmul, Pi = AA', S a dense permutation."""
    col = np.clip(np.asarray(d, dtype=np.float64), 0.0, None)
    col = col if convention == "column" else col.T
    n = col.shape[0]
    a_op = np.zeros((n * n, n))
    root = np.sqrt(col)
    for v in range(n):
        a_op[v * n: (v + 1) * n, v] = root[:, v]
    projector = a_op @ a_op.T
    swap = np.eye(n * n)[np.arange(n * n).reshape(n, n).T.ravel()]
    return a_op, projector, swap, swap @ (2.0 * projector - np.eye(n * n))


def _assert_szegedy_matches_dense_oracle(n, convention, seed, sparse):
    rng = np.random.default_rng(seed)
    d = rng.dirichlet(np.ones(n), size=n)  # row-stochastic
    if sparse:
        d[rng.random((n, n)) < 0.5] = 0.0
        d[np.arange(n), rng.integers(0, n, size=n)] += 1e-3
        d /= d.sum(axis=1, keepdims=True)
    if convention == "column":
        d = d.T
    w = szegedy_walk(d, convention=convention)
    assert np.array_equal(w.U, dense_szegedy_oracle(d, convention)[3])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), convention=st.sampled_from(["column", "row"]),
       seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_szegedy_matches_dense_oracle(n, convention, seed, sparse):
    _assert_szegedy_matches_dense_oracle(n, convention, seed, sparse)


@pytest.mark.parametrize("convention", ["column", "row"])
@pytest.mark.parametrize("n, sparse", [(1, False), (24, False), (24, True), (32, True)])
def test_szegedy_matches_dense_oracle_at_benchmark_sizes(n, sparse, convention):
    _assert_szegedy_matches_dense_oracle(n, convention, 1000 + n, sparse)


def test_szegedy_walk_stores_only_its_matrix_and_u_read_only():
    w = szegedy_walk(random_row_stochastic(5).T)
    assert [f.name for f in dataclasses.fields(WalkOperator)] == ["column_stochastic", "U"]
    assert set(vars(w)) == {"column_stochastic", "U"}
    assert not w.U.flags.writeable and not w.column_stochastic.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 7])
def test_the_walk_reads_a_row_stochastic_matrix_as_its_transpose(n):
    p = random_row_stochastic(n)
    row, column = WalkOperator(p, convention="row"), szegedy_walk(p.T)
    for name in ("column_stochastic", "U"):
        mine, theirs = getattr(row, name), getattr(column, name)
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
    assert np.array_equal(row.U, dense_szegedy_oracle(p.T, "column")[3])


def test_szegedy_walk_allocates_one_pair_space_array():
    n = 32
    d = random_row_stochastic(n).T
    tracemalloc.start()
    try:
        w = szegedy_walk(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # U alone is 8 MiB, so a second n^2 x n^2 array would break the bound
    assert w.U.nbytes == 8 * 2 ** 20
    assert peak <= 12 * 2 ** 20


def _multiplier_cases(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    psd = g @ g.conj().T / n
    low_rank = g[:, :1] @ g[:, :1].conj().T
    complex_herm = (g + g.conj().T) / 2
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    spectrum = rng.uniform(0.1, 1.0, size=n)
    spectrum[0] = -0.5
    indefinite = (q * spectrum) @ q.T  # minimum eigenvalue constructed as -0.5
    zero_row = psd.copy()
    zero_row[0, :] = 0.0
    zero_row[:, 0] = 0.0
    return {"psd": psd, "low_rank": low_rank, "complex_hermitian": complex_herm,
            "indefinite": indefinite, "zero_row": zero_row}


def test_certify_cp_matches_dense_choi_oracle():
    rng = np.random.default_rng(101)
    for _ in range(15):
        n = int(rng.integers(1, 9))
        for kind, mult in _multiplier_cases(rng, n).items():
            ch = SchurChannel(mult)
            rep = certify_cp(ch)
            dense_min = float(np.linalg.eigvalsh(choi_matrix(ch)).min())
            assert rep.is_cp == (dense_min >= -1e-10), kind
            assert rep.verdicts_agree, kind
            assert abs(rep.choi_min_eigenvalue - dense_min) < 1e-12, kind
            if kind == "indefinite" and n > 1:
                assert not rep.is_cp
                assert abs(rep.choi_min_eigenvalue + 0.5) < 1e-9


@pytest.mark.parametrize("n", [*range(1, 10), 16, 32, 65])
def test_certify_cp_equals_the_pair_index_route(n):
    """certify_cp against the Choi matrix on the pair indices: exactly its
    padded spectrum at every size, and the dense oracle up to the cap."""
    rng = np.random.default_rng(n)
    cases = _multiplier_cases(rng, n)
    blocks = np.zeros((n, n))
    for part in np.array_split(rng.permutation(n), 3):
        blocks[np.ix_(part, part)] = rng.normal() + 1.0
    cases["block_diagonal"] = blocks
    sparse = np.diag(rng.normal(size=n))
    sparse[0, -1] = sparse[-1, 0] = 0.5
    cases["sparse"] = sparse
    for kind, mult in cases.items():
        ch = SchurChannel(mult)
        rep = certify_cp(ch)
        mult_min = float(np.linalg.eigvalsh(ch.multiplier).min())
        assert rep.multiplier_min_eigenvalue == mult_min, kind
        assert rep.choi_min_eigenvalue == (min(mult_min, 0.0) if n > 1 else mult_min), kind
        assert rep.is_cp == (mult_min >= -1e-10), kind
        assert rep.verdicts_agree, kind
        if n <= 64:
            dense_min = float(np.linalg.eigvalsh(choi_matrix(ch)).min())
            assert abs(rep.choi_min_eigenvalue - dense_min) < 1e-12, kind


def test_certify_cp_psd_multiplier_pads_with_exact_zeros():
    rep = certify_cp(SchurChannel(np.eye(3) / 3 + 0.1))
    assert rep.is_cp and rep.choi_min_eigenvalue == 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_transition_expectation_matches_kronecker_oracle(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n), size=n)
    te = make_transition_expectation(p)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    nn = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v = stinespring_isometry(p)
    oracle = v.conj().T @ np.kron(m, nn) @ v
    assert np.max(np.abs(apply_transition_expectation(te, m, nn) - oracle)) < 1e-13


def test_choi_matrix_refuses_above_pair_space_cap():
    with pytest.raises(ValidationError, match="64"):
        choi_matrix(SchurChannel(np.eye(65)))
    rep = certify_cp(SchurChannel(np.eye(65)))
    assert rep.is_cp and rep.verdicts_agree


# ------------------------------------------------- support components

def test_block_finder_two_blocks_and_untouched_indices():
    size = 9
    block_a = np.array([[2.0, 1.0], [1.0, 3.0]])
    block_b = np.array([[1.0, -1j, 0.0], [1j, 1.0, 0.5], [0.0, 0.5, -2.0]])
    dense = np.zeros((size, size), dtype=np.complex128)
    ia, ib = [1, 6], [2, 4, 8]  # indices 0, 3, 5, 7 are never touched
    dense[np.ix_(ia, ia)] = block_a
    dense[np.ix_(ib, ib)] = block_b
    rows, cols = np.nonzero(dense)
    labels = _support_components(size, rows, cols)
    assert len(set(labels[ia])) == 1 and len(set(labels[ib])) == 1
    assert labels[ia[0]] != labels[ib[0]]
    assert len(set(labels.tolist())) == 2 + 4


def test_block_finder_chain_merges_into_one_component():
    size = 7
    dense = np.diag(np.arange(1.0, size + 1))
    order = [6, 2, 5, 0, 3, 1, 4]  # a path that visits indices out of order
    for x, y in zip(order, order[1:]):
        dense[x, y] = dense[y, x] = 0.25
    rows, cols = np.nonzero(dense)
    labels = _support_components(size, rows, cols)
    assert np.all(labels == 0)
