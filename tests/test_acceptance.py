"""Acceptance gate: every top-level guarantee of the package, one test per
guarantee, each printing a single PASS/FAIL line with its headline numbers.

Tolerances are pinned here and must not be loosened; where a guarantee has a
subtle reading (the periodic J(4,2) walk, the Szegedy fixed vector) the test
body carries the justification as a comment and the printed line names the
reading used.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import numpy as np
import pytest
import sympy

from schemewalk import (
    FusionSystem,
    SchurChannel,
    apply_transition_expectation,
    braid_generators,
    build_group_scheme,
    build_johnson,
    builtin_fusion_system,
    certify_cp,
    classical_chain,
    cyclic_fusion_system,
    decompose,
    dilation_unitary,
    fuse,
    groups,
    krein_parameters,
    make_transition_expectation,
    scheme_fusion_bridge,
    schur_channel_apply,
    stationary_distribution,
    szegedy_walk,
    verify_axioms,
    verify_pentagon,
    walk,
)
from schemewalk.cli import run
from schemewalk.serialize import from_jsonable, to_jsonable
from tests.conftest import BUILTIN_NAMES, COMMUTATIVE_NAMES
from tests.test_qmc import dense_szegedy_oracle, stinespring_oracle


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True, scope="session")
def _locate_capture_manager(request):
    # pytest captures at the file-descriptor level, so the report lines must
    # go out while capture is suspended or they vanish into the test log.
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(title: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {title}"
    if detail:
        line += f"  ({detail})"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(f"\n{line}", flush=True)
    else:
        print(f"\n{line}", file=sys.__stdout__, flush=True)


class _Note:
    def __init__(self):
        self.detail = ""


@contextmanager
def criterion(title: str):
    note = _Note()
    try:
        yield note
    except BaseException as exc:
        _emit(title, False, f"{type(exc).__name__}: {exc}")
        raise
    _emit(title, True, note.detail)


# ---------------------------------------------------------------------------

def test_01_scheme_axioms(builtin_schemes):
    with criterion("scheme axioms hold exactly on all 20 built-ins") as note:
        for name in BUILTIN_NAMES:
            report = verify_axioms(builtin_schemes[name])
            assert report.passed, (name, report.violations)
            assert report.commutative == (name in COMMUTATIVE_NAMES), name
        note.detail = f"{len(BUILTIN_NAMES)} schemes, integer arithmetic"


def test_02_spectral_decomposition(builtin_schemes, decompositions):
    with criterion("spectral: idempotent identities and integral multiplicities") as note:
        worst_sum = worst_prod = 0.0
        for name in COMMUTATIVE_NAMES:
            s = builtin_schemes[name]
            dec = decompositions[name]
            ems = [dec.idempotent(j) for j in range(dec.d + 1)]
            worst_sum = max(worst_sum, float(np.max(np.abs(sum(ems) - np.eye(s.n)))))
            for i, ei in enumerate(ems):
                for j, ej in enumerate(ems):
                    target = ei if i == j else 0
                    worst_prod = max(worst_prod, float(np.max(np.abs(ei @ ej - target))))
            for j, e in enumerate(ems):
                tr = float(np.trace(e).real)
                assert abs(tr - round(tr)) < 1e-6, (name, j, tr)
            assert sum(dec.multiplicities) == s.n, name
        assert worst_sum < 1e-10 and worst_prod < 1e-10

        # J(4,2) against an exact characteristic-polynomial oracle
        a1 = sympy.Matrix(builtin_schemes["johnson_4_2"].adjacency(1).tolist())
        lam = sympy.symbols("lam")
        roots = sympy.roots(a1.charpoly(lam).as_expr(), lam)
        assert roots == {4: 1, 0: 3, -2: 2}
        assert decompositions["johnson_4_2"].multiplicities == (1, 3, 2)
        note.detail = f"max |sum E - I| = {worst_sum:.1e}, max product residual = {worst_prod:.1e}"


def test_03_duality_tensors(builtin_schemes, decompositions, krein_tensors):
    with criterion("duality: exact intersection identity, Krein >= -1e-9 + trace law") as note:
        from schemewalk import intersection_numbers

        for name in BUILTIN_NAMES:
            s = builtin_schemes[name]
            it = intersection_numbers(s)
            mats = [s.adjacency(j) for j in range(s.d + 1)]
            for i in range(s.d + 1):
                for j in range(s.d + 1):
                    rebuilt = sum(int(it.p[i, j, k]) * mats[k] for k in range(s.d + 1))
                    assert np.array_equal(mats[i] @ mats[j], rebuilt), (name, i, j)

        worst_neg, worst_trace = 0.0, 0.0
        for name in COMMUTATIVE_NAMES:
            kt = krein_tensors[name]
            ms = np.array(decompositions[name].multiplicities, dtype=np.float64)
            worst_neg = min(worst_neg, float(kt.q.min()))
            drift = np.abs(np.tensordot(kt.q, ms, axes=([2], [0])) - np.outer(ms, ms))
            worst_trace = max(worst_trace, float(drift.max()))
        assert worst_neg >= -1e-9
        assert worst_trace < 1e-8
        note.detail = f"min Krein = {worst_neg:.1e}, trace-identity drift = {worst_trace:.1e}"


def test_04_hypergroup_convolution(hypergroups):
    with criterion("hypergroup: stochastic slices, exact identity, Z_2/Z_3, J(4,2) walk") as note:
        for name in COMMUTATIVE_NAMES:
            h = hypergroups[name]
            conv = h.convolution
            assert conv.min() >= 0, name
            assert np.max(np.abs(conv.sum(axis=2) - 1)) < 1e-10, name
            delta = np.eye(h.size)
            assert np.array_equal(conv[0], delta), name
            assert np.array_equal(conv[:, 0, :], delta), name

        for n in (2, 3):
            conv = hypergroups[f"group_z{n}"].convolution
            for i in range(n):
                for j in range(n):
                    expect = np.zeros(n)
                    expect[(i + j) % n] = 1
                    assert np.max(np.abs(conv[i, j] - expect)) < 1e-10

        # The coin-1 chain on J(4,2) has spectrum {1, 0, -1}: the pure
        # iterates are 2-periodic, so convergence to the stationary law
        # holds in the time-averaged (Cesaro) sense; the 2-step average
        # settles immediately and exactly.
        h = hypergroups["johnson_4_2"]
        target = np.array([1 / 6, 1 / 2, 1 / 3])
        t_chain = classical_chain(h, 1)
        assert np.max(np.abs(t_chain @ target - target)) < 1e-9
        hist = walk(h, 1, np.array([1.0, 0.0, 0.0]), 200)
        hits = [t for t in range(len(hist) - 1)
                if np.max(np.abs(0.5 * (hist[t] + hist[t + 1]) - target)) <= 1e-6]
        assert hits and hits[0] <= 200
        note.detail = (f"J(4,2) 2-step average hits (1/6,1/2,1/3) at t={hits[0]}; "
                       "pure iterates are 2-periodic")


def test_05_quantum_channels(decompositions, hypergroups):
    with criterion("Schur channels: CP iff PSD on 200 multipliers; chain embedding 1e-9") as note:
        rng = np.random.default_rng(2024)
        agreements = 0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            herm = g @ g.conj().T if rng.random() < 0.5 else (g + g.conj().T) / 2
            rep = certify_cp(SchurChannel(herm))
            assert rep.is_cp == (float(np.linalg.eigvalsh(herm).min()) >= -1e-10)
            assert rep.verdicts_agree
            agreements += 1

        worst = 0.0
        for name in COMMUTATIVE_NAMES:
            dec = decompositions[name]
            h = hypergroups[name]
            n = dec.n
            ems = [dec.idempotent(k) for k in range(dec.d + 1)]
            norm = [e / m for e, m in zip(ems, dec.multiplicities)]
            for coin in range(dec.d + 1):
                ch = SchurChannel(norm[coin])
                t_chain = classical_chain(h, coin)
                for j in range(dec.d + 1):
                    out = schur_channel_apply(ch, norm[j]) * n
                    coeff = np.array([np.trace(out @ e).real for e in ems])
                    worst = max(worst, float(np.max(np.abs(coeff - t_chain[:, j]))))
        assert worst < 1e-9
        note.detail = f"{agreements}/200 verdicts agree, chain embedding residual = {worst:.1e}"


def test_06_dilation_unitary():
    with criterion("dilation: orthogonal within 1e-12 on 1000 distributions") as note:
        rng = np.random.default_rng(60)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            p = rng.dirichlet(np.ones(n))
            u = dilation_unitary(p)
            worst = max(worst, float(np.max(np.abs(u.T @ u - np.eye(n)))))
        assert worst < 1e-12

        r = np.sqrt(0.5)
        assert np.max(np.abs(dilation_unitary(np.array([0.5, 0.5]))
                             - np.array([[r, r], [-r, r]]))) < 1e-15
        assert np.array_equal(dilation_unitary(np.array([1.0, 0.0, 0.0])), np.eye(3))
        note.detail = f"max orthogonality defect = {worst:.1e}"


def test_07_transition_expectation():
    with criterion("transition expectation: Stinespring = closed form on 200 draws") as note:
        rng = np.random.default_rng(70)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(n), size=n)
            te = make_transition_expectation(p)
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            nn = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            delta = np.abs(apply_transition_expectation(te, m, nn)
                           - stinespring_oracle(p, m, nn))
            worst = max(worst, float(delta.max()))

            unital = apply_transition_expectation(te, np.eye(n), np.eye(n))
            assert np.max(np.abs(unital - np.eye(n))) < 1e-12

            diag = rng.uniform(size=n)
            classical = apply_transition_expectation(te, np.eye(n), np.diag(diag))
            assert np.max(np.abs(classical - np.diag(p @ diag))) < 1e-12
        assert worst < 1e-12
        note.detail = f"max Stinespring/closed-form gap = {worst:.1e}"


def test_08_szegedy_walk():
    with criterion("Szegedy: unitary/projector/swap certificates; stationary vector fixed") as note:
        rng = np.random.default_rng(80)
        worst_u = worst_pi = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 9))
            d = rng.dirichlet(np.ones(n), size=n).T
            w = szegedy_walk(d)
            nn = n * n
            worst_u = max(worst_u, float(np.max(np.abs(w.U.T @ w.U - np.eye(nn)))))
            _, projector, swap, u = dense_szegedy_oracle(d, "column")
            assert np.array_equal(w.U, u)
            worst_pi = max(worst_pi, float(np.max(np.abs(projector @ projector - projector))))
            assert np.array_equal(swap @ swap, np.eye(nn))
        assert worst_u < 1e-10 and worst_pi < 1e-12

        # The fixed-vector identity U(A sqrt(pi)) = A sqrt(pi) needs detailed
        # balance, so it is exercised on reversible irreducible chains
        # (symmetric positive weights).
        worst_fix = 0.0
        for _ in range(25):
            n = int(rng.integers(2, 9))
            wts = rng.uniform(0.2, 1.0, size=(n, n))
            wts = (wts + wts.T) / 2
            d = wts / wts.sum(axis=0, keepdims=True)
            w = szegedy_walk(d)
            pi = stationary_distribution(d)
            vec = dense_szegedy_oracle(d, "column")[0] @ np.sqrt(pi)
            worst_fix = max(worst_fix, float(np.max(np.abs(w.U @ vec - vec))))
        assert worst_fix < 1e-8
        note.detail = (f"U defect = {worst_u:.1e}, fixed-vector residual = {worst_fix:.1e} "
                       "(reversible chains)")


def test_09_anyon_systems():
    with criterion("anyons: fusion tables, dims, braids, pentagon (and its falsifier)") as note:
        ising = builtin_fusion_system("ising")
        fib = builtin_fusion_system("fibonacci")

        assert fuse(ising, "sigma", "sigma").tolist() == [1, 0, 1]
        assert fuse(ising, "sigma", "psi").tolist() == [0, 1, 0]
        assert fuse(ising, "psi", "psi").tolist() == [1, 0, 0]

        assert abs(ising.dims[1] - np.sqrt(2)) < 1e-12
        assert abs(fib.dims[1] - (1 + np.sqrt(5)) / 2) < 1e-12

        for fs in (ising, fib):
            bg = braid_generators(fs)
            for mat in (bg.sigma1, bg.sigma2, bg.b_matrix):
                assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12
            assert bg.braid_residual < 1e-10
            rep = verify_pentagon(fs)
            assert rep.passed and rep.max_residual < 1e-10

        f_bad = dict(ising.F)
        f_bad[(2, 1, 2, 1)] = np.array([[1.0]])
        corrupted = FusionSystem(ising.labels, ising.N, F=f_bad, R=dict(ising.R))
        bad = verify_pentagon(corrupted)
        assert bad.max_residual > 0.1
        note.detail = f"corrupted-F residual = {bad.max_residual:.2f} (detector works)"


def test_10_scheme_fusion_bridge(j42_dec, j42_krein):
    with criterion("bridge: Z_2/Z_3 match their fusion rings; J(4,2) vs Ising rejected") as note:
        for order in (2, 3):
            scheme = build_group_scheme(groups.cyclic(order))
            dec = decompose(scheme)
            kt = krein_parameters(dec)
            rep = scheme_fusion_bridge(dec, kt, cyclic_fusion_system(order))
            assert rep.matched and rep.deviation < 1e-10

        rejected = scheme_fusion_bridge(j42_dec, j42_krein, builtin_fusion_system("ising"))
        assert not rejected.matched
        note.detail = f"J(4,2)/Ising deviation = {rejected.deviation:.3f}"


def test_11_cli_and_roundtrips(tmp_path, capsys):
    with criterion("CLI examples with stated outputs/exits; JSON round-trips x100 per kind") as note:
        out_path = tmp_path / "j42.json"
        assert run(["scheme", "build", "--family", "johnson", "--v", "4", "--k", "2",
                    "--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["n"] == 6

        assert run(["scheme", "verify", str(out_path)]) == 0
        verify_out = capsys.readouterr().out
        assert "passed, commutative" in verify_out

        assert run(["qmc", "dilate", "--dist", "[0.5,0.5]"]) == 0
        dilate_out = capsys.readouterr().out.strip()
        assert dilate_out == "[[0.70710678, 0.70710678], [-0.70710678, 0.70710678]]"

        rng = np.random.default_rng(110)
        scheme_pool = [build_group_scheme(groups.cyclic(int(n))) for n in range(2, 9)]
        scheme_pool += [build_johnson(5, 2), build_johnson(6, 3), build_johnson(4, 2)]
        group_pool = [groups.cyclic(int(n)) for n in range(2, 9)]
        group_pool += [groups.symmetric(3), groups.dihedral(4), groups.quaternion()]
        fusion_pool = [builtin_fusion_system("ising"), builtin_fusion_system("fibonacci")]
        fusion_pool += [cyclic_fusion_system(k) for k in range(1, 7)]

        for _ in range(100):
            s = scheme_pool[int(rng.integers(len(scheme_pool)))]
            back = from_jsonable("scheme", json.loads(json.dumps(to_jsonable("scheme", s))))
            assert np.array_equal(back.relation, s.relation)

            g = group_pool[int(rng.integers(len(group_pool)))]
            back = from_jsonable("cayley", json.loads(json.dumps(to_jsonable("cayley", g))))
            assert np.array_equal(back.table, g.table)

            kind = rng.random()
            if kind < 1 / 3:
                m = rng.integers(-9, 9, size=(int(rng.integers(1, 6)),) * 2)
            elif kind < 2 / 3:
                m = rng.normal(size=(int(rng.integers(1, 6)),) * 2)
            else:
                k = int(rng.integers(1, 6))
                m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            back = from_jsonable("matrix", json.loads(json.dumps(to_jsonable("matrix", m))))
            assert np.array_equal(back, m)

            t = rng.normal(size=(int(rng.integers(1, 5)),) * 3)
            back = from_jsonable("tensor", json.loads(json.dumps(to_jsonable("tensor", t))))
            assert np.array_equal(back, t)

            fs = fusion_pool[int(rng.integers(len(fusion_pool)))]
            back = from_jsonable("fusion-system",
                                 json.loads(json.dumps(to_jsonable("fusion-system", fs))))
            assert back.labels == fs.labels and np.array_equal(back.N, fs.N)

            dist = rng.dirichlet(np.ones(int(rng.integers(1, 9))))
            back = from_jsonable("distribution",
                                 json.loads(json.dumps(to_jsonable("distribution", dist))))
            assert np.array_equal(back, dist)
        note.detail = "3 CLI examples verified; 600 round-trips exact"
