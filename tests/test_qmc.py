import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemewalk import (
    CertificationError,
    SchurChannel,
    ValidationError,
    apply_transition_expectation,
    certify_cp,
    choi_matrix,
    classical_chain,
    dilation_unitary,
    iterate_channel,
    make_transition_expectation,
    schur_channel_apply,
    stationary_distribution,
    szegedy_walk,
    transition_expectation_closed_form,
    transition_expectation_dual,
)
from schemewalk.qmc import CPReport, _block_spectrum, _check_density, _support_components

RNG = np.random.default_rng(20240817)


def random_row_stochastic(n, rng=RNG):
    return rng.dirichlet(np.ones(n), size=n)


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
    n = dec.idempotents[0].shape[0]
    ms = dec.multiplicities
    norm = [dec.idempotents[k] / ms[k] for k in range(dec.d + 1)]
    for coin in range(dec.d + 1):
        ch = SchurChannel(norm[coin])
        t = classical_chain(j42_hypergroup, coin)
        for j in range(dec.d + 1):
            out = schur_channel_apply(ch, norm[j]) * n
            coeff = np.array([np.trace(out @ dec.idempotents[k]).real
                              for k in range(dec.d + 1)])
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
    v = te.isometry_V
    assert v.shape == (9, 3)
    assert np.max(np.abs(v.T @ v - np.eye(3))) < 1e-12


def test_stinespring_matches_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        te = make_transition_expectation(rng.dirichlet(np.ones(n), size=n))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        nn = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = apply_transition_expectation(te, m, nn)
        rhs = transition_expectation_closed_form(te, m, nn)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


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


@pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 4)])
def test_dual_channel_refuses_a_state_of_the_wrong_shape(shape):
    te = make_transition_expectation(np.full((4, 4), 0.25))
    with pytest.raises(ValidationError, match="4x4"):
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


def iterate_oracle(channel, rho0, steps):
    """The stepping loop with an `eigvalsh` of the state after every step."""
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
        low = float(np.linalg.eigvalsh(rho).min())
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
        for e, m in zip(dec.idempotents, dec.multiplicities):
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
    iterate_channel(SchurChannel(np.full((6, 6), 0.5) + 0.5 * np.eye(6)), rho0, 50)
    assert len(calls) == 3  # multiplier, initial state, final state
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


# -------------------------------------------------------------- szegedy

def test_szegedy_invariants_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        d = rng.dirichlet(np.ones(n), size=n).T  # columns sum to 1
        w = szegedy_walk(d)
        nn = n * n
        assert np.max(np.abs(w.A_op.T @ w.A_op - np.eye(n))) < 1e-12
        assert np.max(np.abs(w.projector @ w.projector - w.projector)) < 1e-12
        assert np.array_equal(w.swap @ w.swap, np.eye(nn))
        assert np.max(np.abs(w.U.T @ w.U - np.eye(nn))) < 1e-10


def test_szegedy_row_convention():
    d = np.array([[0.2, 0.8], [0.6, 0.4]])  # row-stochastic
    w = szegedy_walk(d, convention="row")
    w2 = szegedy_walk(d.T, convention="column")
    assert np.max(np.abs(w.U - w2.U)) < 1e-15


def test_szegedy_identity_chain_swaps():
    w = szegedy_walk(np.eye(2))
    # A|v> = |v,v>; U acts as the swap there
    for v in range(2):
        vec = w.A_op[:, v]
        assert np.max(np.abs(w.U @ vec - w.swap @ vec)) < 1e-14


def test_szegedy_three_cycle_recurrence():
    perm = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    w = szegedy_walk(perm)
    a = w.A_op
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
        vec = w.A_op @ np.sqrt(pi)
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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), convention=st.sampled_from(["column", "row"]),
       seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_szegedy_matches_dense_oracle(n, convention, seed, sparse):
    rng = np.random.default_rng(seed)
    d = rng.dirichlet(np.ones(n), size=n)  # row-stochastic
    if sparse:
        d[rng.random((n, n)) < 0.5] = 0.0
        d[np.arange(n), rng.integers(0, n, size=n)] += 1e-3
        d /= d.sum(axis=1, keepdims=True)
    if convention == "column":
        d = d.T
    w = szegedy_walk(d, convention=convention)
    a_op, projector, swap, u = dense_szegedy_oracle(d, convention)
    assert np.array_equal(w.A_op, a_op)
    assert np.array_equal(w.projector, projector)
    assert np.array_equal(w.swap, swap)
    assert np.array_equal(w.U, u)


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
            assert rep.is_cp == (dense_min >= -rep.tolerance), kind
            assert rep.verdicts_agree, kind
            assert abs(rep.choi_min_eigenvalue - dense_min) < 1e-12, kind
            if kind == "indefinite" and n > 1:
                assert not rep.is_cp
                assert abs(rep.choi_min_eigenvalue + 0.5) < 1e-9


def _coordinate_form_cp(c, tolerance=1e-10):
    """The Choi route on all n^2 pair indices: the coordinate form with one
    entry e[a][b] at (a*n+a, b*n+b), labelled and diagonalised there."""
    n = c.dim
    idx = np.arange(n) * (n + 1)
    rows, cols, values = np.repeat(idx, n), np.tile(idx, n), c.multiplier.ravel()
    nonzero = values != 0
    rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]
    labels = _support_components(n * n, rows, cols)
    choi_min = float(_block_spectrum(n * n, rows, cols, values, labels)[0])
    mult_min = float(np.linalg.eigvalsh(c.multiplier).min())
    return CPReport(is_cp=choi_min >= -tolerance, choi_min_eigenvalue=choi_min,
                    multiplier_min_eigenvalue=mult_min, multiplier_psd=mult_min >= -tolerance,
                    verdicts_agree=(choi_min >= -tolerance) == (mult_min >= -tolerance),
                    tolerance=tolerance)


@pytest.mark.parametrize("n", [*range(1, 10), 16, 32, 65])
def test_certify_cp_equals_the_pair_index_route(n):
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
        assert certify_cp(ch) == _coordinate_form_cp(ch), kind


def test_certify_cp_psd_multiplier_pads_with_exact_zeros():
    rep = certify_cp(SchurChannel(np.eye(3) / 3 + 0.1))
    assert rep.is_cp and rep.choi_min_eigenvalue == 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_transition_expectation_matches_kronecker_oracle(n, seed):
    rng = np.random.default_rng(seed)
    te = make_transition_expectation(rng.dirichlet(np.ones(n), size=n))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    nn = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v = te.isometry_V
    oracle = v.conj().T @ np.kron(m, nn) @ v
    assert np.max(np.abs(apply_transition_expectation(te, m, nn) - oracle)) < 1e-13


def test_choi_matrix_refuses_above_pair_space_cap():
    with pytest.raises(ValidationError, match="64"):
        choi_matrix(SchurChannel(np.eye(65)))
    rep = certify_cp(SchurChannel(np.eye(65)))
    assert rep.is_cp and rep.verdicts_agree


# ------------------------------------------------------- block finder

def _coordinates(dense):
    rows, cols = np.nonzero(dense)
    return rows, cols, dense[rows, cols]


def test_block_finder_two_blocks_and_untouched_indices():
    size = 9
    block_a = np.array([[2.0, 1.0], [1.0, 3.0]])
    block_b = np.array([[1.0, -1j, 0.0], [1j, 1.0, 0.5], [0.0, 0.5, -2.0]])
    dense = np.zeros((size, size), dtype=np.complex128)
    ia, ib = [1, 6], [2, 4, 8]  # indices 0, 3, 5, 7 are never touched
    dense[np.ix_(ia, ia)] = block_a
    dense[np.ix_(ib, ib)] = block_b
    rows, cols, values = _coordinates(dense)
    labels = _support_components(size, rows, cols)
    assert len(set(labels[ia])) == 1 and len(set(labels[ib])) == 1
    assert labels[ia[0]] != labels[ib[0]]
    assert len(set(labels.tolist())) == 2 + 4
    spectrum = _block_spectrum(size, rows, cols, values, labels)
    expected = np.sort(np.concatenate([np.linalg.eigvalsh(block_a),
                                       np.linalg.eigvalsh(block_b), np.zeros(4)]))
    assert np.max(np.abs(spectrum - expected)) < 1e-14
    assert np.max(np.abs(spectrum - np.linalg.eigvalsh(dense))) < 1e-12


def test_block_finder_chain_merges_into_one_component():
    size = 7
    dense = np.diag(np.arange(1.0, size + 1))
    order = [6, 2, 5, 0, 3, 1, 4]  # a path that visits indices out of order
    for x, y in zip(order, order[1:]):
        dense[x, y] = dense[y, x] = 0.25
    rows, cols, values = _coordinates(dense)
    labels = _support_components(size, rows, cols)
    assert np.all(labels == 0)
    spectrum = _block_spectrum(size, rows, cols, values, labels)
    assert np.max(np.abs(spectrum - np.linalg.eigvalsh(dense))) < 1e-12


def test_block_finder_reports_entry_outside_its_block():
    size = 4
    rows = np.array([0, 1, 1, 0, 2, 3, 3])
    cols = np.array([0, 1, 0, 1, 2, 3, 0])  # (3, 0) crosses the blocks
    values = np.ones(rows.size)
    labels = np.array([0, 0, 2, 2])
    with pytest.raises(CertificationError, match=r"\(3, 0\)"):
        _block_spectrum(size, rows, cols, values, labels)
