"""Serve one request through the public `schemewalk` API, then check it.

`serve` runs only library calls, each through the tracer, and returns
what the checks need; its wall time is the request's latency.  `check`
runs afterwards, outside the timed region, and compares the outputs with
the closed-form references from `gen`.  An expected rejection is served
correctly when the library raises `ValidationError` (or `CertificationError`
where a certification must fail) at the step that has to refuse it.
"""

from __future__ import annotations

import json
from math import factorial

import numpy as np

import schemewalk as sw
from schemewalk import groups, serialize
from schemewalk.errors import CertificationError, ValidationError

WALK_STEPS = 20
ITERATE_STEPS = 50
# Pentagon, hexagon and braid residuals must stay below this.
RESIDUAL_THRESHOLD = 1e-10


class Rejected(Exception):
    """Raised by `serve` when the library refused the request as it should."""

    def __init__(self, where: str, error: Exception, out: dict | None = None):
        super().__init__(f"{where}: {error}")
        self.where = where
        self.out = out or {}


def _group(tr, params):
    kind, *arg = params
    return tr.call("groups.build", getattr(groups, kind), *arg)


def _build(tr, family: str, params):
    if family == "johnson":
        return tr.call("schemes.build", sw.build_johnson, *params)
    if family == "grassmann":
        return tr.call("schemes.build_grassmann", sw.build_grassmann, *params)
    if family == "group":
        return tr.call("schemes.build", sw.build_group_scheme, _group(tr, params))
    if family == "conjugacy":
        return tr.call("schemes.build", sw.build_conjugacy_scheme, _group(tr, params))
    if family == "cycle":
        n, gens = params
        return tr.call("schemes.build", sw.build_orbit_scheme, gens, n)
    raise ValueError(f"unknown family {family!r}")


def _count_verify(tr, n: int, d: int, rejected: bool) -> None:
    tr.count("schemes.verify_calls")
    tr.count("schemes.verify_rejected", rejected)
    tr.count("schemes.verify_madds_computed", (d + 1) ** 2 * n ** 3)


def _loads(tr, text: str, n: int, d: int):
    """Validating load; `loads(validate=True)` runs exactly one verify_axioms."""
    tr.count("serialize.json_bytes", len(text))
    try:
        scheme = tr.call("serialize.loads", serialize.loads, text, "scheme", validate=True)
    except ValidationError as exc:
        _count_verify(tr, n, d, rejected=True)
        raise Rejected("verify", exc) from None
    _count_verify(tr, n, d, rejected=False)
    return scheme


def _spectral_chain(tr, scheme):
    """decompose -> intersection numbers -> Krein -> hypergroup -> walk."""
    n, d = scheme.n, scheme.d
    tr.count("spectral.decompose_calls")
    tr.count("spectral.decompose_work_computed", n ** 3)
    try:
        dec = tr.call("spectral.decompose", sw.decompose, scheme)
    except ValidationError as exc:
        tr.count("spectral.decompose_rejected")
        raise Rejected("decompose", exc) from None
    tr.count("parameters.intersection_full_calls" if n <= 64
             else "parameters.intersection_sampled_calls")
    inter = tr.call("parameters.intersection", sw.intersection_numbers, scheme)
    tr.count("parameters.krein_work_computed", (d + 1) ** 3 * n ** 2)
    krein = tr.call("parameters.krein", sw.krein_parameters, dec)
    hyper = tr.call("hypergroup.build", sw.hypergroup_from, dec, krein)
    start = np.zeros(d + 1)
    start[0] = 1.0
    tr.count("hypergroup.walk_steps", WALK_STEPS)
    history = tr.call("hypergroup.walk", sw.walk, hyper, 1, start, WALK_STEPS)
    return {"scheme": scheme, "dec": dec, "inter": inter, "krein": krein,
            "hyper": hyper, "walk": history}


def _serve_spectra(tr, p):
    scheme = _build(tr, p["family"], p["params"])

    def dump(s):
        return json.dumps(serialize.to_jsonable("scheme", s))

    text = tr.call("serialize.dumps", dump, scheme)
    tr.count("serialize.json_bytes", len(text))
    return _spectral_chain(tr, _loads(tr, text, scheme.n, scheme.d))


def _serve_named(tr, p):
    scheme = _build(tr, p["family"], p["params"])
    report = tr.call("schemes.verify", sw.verify_axioms, scheme)
    _count_verify(tr, scheme.n, scheme.d, rejected=not report.passed)
    if not report.passed:
        raise RuntimeError(f"built scheme failed its axioms: {report.violations[:1]}")
    return _spectral_chain(tr, scheme)


def _serve_matrix(tr, p):
    return _spectral_chain(tr, _loads(tr, p["json"], p["n"], p["d"]))


def _serve_anyon(tr, p):
    op, arg = p["op"], p["arg"]
    if op == "bridge":
        scheme = tr.call("schemes.build", sw.build_group_scheme, _group(tr, ("cyclic", arg)))
        tr.count("spectral.decompose_calls")
        tr.count("spectral.decompose_work_computed", scheme.n ** 3)
        dec = tr.call("spectral.decompose", sw.decompose, scheme)
        tr.count("parameters.krein_work_computed", (scheme.d + 1) ** 3 * scheme.n ** 2)
        krein = tr.call("parameters.krein", sw.krein_parameters, dec)
        fs = tr.call("anyons.build", sw.cyclic_fusion_system, arg)
        tr.count("anyons.bridge_bijections", factorial(arg - 1))
        return {"dec": dec, "bridge": tr.call("anyons.bridge", sw.scheme_fusion_bridge,
                                              dec, krein, fs)}
    fs = tr.call("anyons.build", sw.builtin_fusion_system, arg)
    if op == "pentagon":
        report = tr.call("anyons.pentagon", sw.verify_pentagon, fs)
        tr.count("anyons.pentagon_identities", report.identities_checked)
        return {"report": report}
    if op == "hexagon":
        try:
            return {"report": tr.call("anyons.hexagon", sw.verify_hexagon, fs)}
        except ValidationError as exc:
            raise Rejected("hexagon", exc) from None
    return {"braid": tr.call("anyons.braid", sw.braid_generators, fs)}


def _serve_quantum(tr, p):
    op, n = p["op"], p["n"]
    if op == "szegedy":
        tr.count("qmc.pair_bytes_computed", 3 * 8 * n ** 4)   # Pi, S, U (float64)
        return {"walk": tr.call("qmc.szegedy", sw.szegedy_walk, p["D"])}
    if op == "transition":
        te = tr.call("qmc.transition", sw.make_transition_expectation, p["P"])
        tr.count("qmc.pair_bytes_computed", 8 * n ** 4)       # M (x) N (float64)
        applied = tr.call("qmc.transition", sw.apply_transition_expectation, te, p["M"], p["N"])
        traj = tr.call("qmc.iterate", sw.iterate_channel, te, p["rho"], ITERATE_STEPS)
        return {"te": te, "applied": applied, "traj": traj}
    channel = tr.call("qmc.channel", sw.SchurChannel, p["multiplier"])
    tr.count("qmc.pair_bytes_computed", 16 * n ** 4)          # Choi matrix (complex128)
    report = tr.call("qmc.certify_cp", sw.certify_cp, channel)
    tr.count("qmc.certify_cp_non_cp", not report.is_cp)
    if op == "cp_psd":
        traj = tr.call("qmc.iterate", sw.iterate_channel, channel, p["rho"], ITERATE_STEPS)
        return {"report": report, "traj": traj}
    try:
        tr.call("qmc.iterate", sw.iterate_channel, channel, p["rho"], ITERATE_STEPS)
    except CertificationError as exc:
        raise Rejected("iterate", exc, {"report": report}) from None
    return {"report": report}


SERVERS = {
    "spectra": _serve_spectra,
    "named": _serve_named,
    "matrix": _serve_matrix,
    "anyon": _serve_anyon,
    "quantum": _serve_quantum,
}


def serve(tr, request):
    """Run the request's library calls; returns outputs or raises Rejected."""
    return SERVERS[request.kind](tr, request.payload)


# ------------------------------------------------------------------ checks

def _close(a, b, tol) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol)


def _check_scheme_chain(out, ref) -> list[str]:
    errs = []
    dec, inter, hyper = out["dec"], out["inter"], out["hyper"]
    if (out["scheme"].n, out["scheme"].d) != (ref["n"], ref["d"]):
        errs.append(f"size {(out['scheme'].n, out['scheme'].d)} != {(ref['n'], ref['d'])}")
    if sorted(dec.multiplicities) != ref["mults"]:
        errs.append(f"multiplicities {sorted(dec.multiplicities)} != {ref['mults']}")
    if not _close(np.sort(dec.eigenmatrix_P[0].real), ref["vals"], 1e-6):
        errs.append("eigenmatrix P row 0 is not the valency vector")
    if sorted(inter.p[:, :, 0].sum(axis=1).tolist()) != ref["vals"]:
        errs.append("p_ij^0 row sums are not the valencies")
    if "p11" in ref and inter.p[1, 1, :].tolist() != ref["p11"]:
        errs.append(f"Johnson p_11^k {inter.p[1, 1, :].tolist()} != {ref['p11']}")
    plancherel = np.array(dec.multiplicities) / ref["n"]
    if not _close(hyper.plancherel(), plancherel, 1e-12):
        errs.append("hypergroup Plancherel measure is not m/n")
    walk = out["walk"]
    if len(walk) != WALK_STEPS + 1 or not _close([w.sum() for w in walk], 1.0, 1e-9) \
            or min(float(w.min()) for w in walk) < -1e-12:
        errs.append("walk iterates are not distributions")
    return errs


def _check_anyon(out, p, ref) -> list[str]:
    op = p["op"]
    if op == "bridge":
        b = out["bridge"]
        errs = [] if b.matched and b.bijection[0] == 0 \
            and sorted(b.bijection) == list(range(p["arg"])) else [f"bridge not matched: {b}"]
        if sorted(out["dec"].multiplicities) != ref["mults"]:
            errs.append("Z_k multiplicities are not all 1")
        return errs
    if op == "braid":
        residual = out["braid"].braid_residual
        return [] if residual < RESIDUAL_THRESHOLD else [f"braid residual {residual:.3e}"]
    report = out["report"]
    worst = max(report.max_residual, getattr(report, "max_residual_inverse", 0.0))
    if worst >= RESIDUAL_THRESHOLD or report.identities_checked <= 0:
        return [f"{op} residual {worst:.3e} not below {RESIDUAL_THRESHOLD}"]
    return []


def _check_quantum(out, p, ref) -> list[str]:
    op, n = p["op"], p["n"]
    if op == "szegedy":
        u = out["walk"].U
        root = np.sqrt(p["D"])
        swap = np.arange(n * n).reshape(n, n).T.ravel()
        errs = []
        for x in ref["probe"]:
            # U x = S (2 A A' x - x), A|v> = sum_w sqrt(D[w][v]) |v, w>
            ax = (root * (root * x.reshape(n, n).T).sum(axis=0)).T.ravel()
            expected = (2.0 * ax - x)[swap]
            if not _close(u @ x, expected, 1e-9 * np.abs(x).max() * n):
                errs.append("U differs from S(2 Pi - I)")
            if abs(np.dot(u @ x, u @ x) - np.dot(x, x)) > 1e-9 * np.dot(x, x):
                errs.append("U'U != I (norm not preserved)")
        return errs
    if op == "transition":
        errs = []
        root = np.sqrt(p["P"])
        closed = p["M"] * (root @ p["N"] @ root.T)
        if not _close(out["applied"], closed, 1e-10 * max(1.0, np.abs(closed).max())):
            errs.append("Stinespring V'(M (x) N)V differs from the closed form")
        diag = np.real(np.diagonal(p["rho"]))
        for _ in range(ITERATE_STEPS):
            diag = p["P"].T @ diag
        traj = out["traj"]
        if len(traj.states) != ITERATE_STEPS + 1 or not _close(traj.trace_factors, 1.0, 1e-10):
            errs.append("transition-expectation chain is not trace preserving")
        if not _close(np.real(np.diagonal(traj.states[-1])), diag, 1e-10):
            errs.append("diagonal does not follow the classical chain P^T")
        return errs
    report = out["report"]
    if not report.verdicts_agree:
        return ["Choi and multiplier verdicts disagree"]
    if op == "cp_psd":
        errs = [] if report.is_cp and report.multiplier_min_eigenvalue > 0 else ["PSD judged non-CP"]
        traj = out["traj"]
        if not _close(traj.trace_factors, 1.0, 1e-10):
            errs.append("unit-diagonal Schur channel lost trace")
        if not _close(np.diagonal(traj.states[-1]), np.diagonal(p["rho"]), 1e-10):
            errs.append("unit-diagonal Schur channel moved the diagonal")
        return errs
    return ["a non-CP channel was iterated"]


def check(request, out) -> list[str]:
    """Reference check of a served request; returns the list of mismatches."""
    if request.kind == "quantum":
        return _check_quantum(out, request.payload, request.ref)
    if request.kind == "anyon":
        return _check_anyon(out, request.payload, request.ref)
    return _check_scheme_chain(out, request.ref)


def check_rejection(request, rejected: Rejected) -> list[str]:
    """An expected rejection must come from the step meant to refuse it."""
    expected = request.expect.removeprefix("reject:")
    if rejected.where != expected:
        return [f"refused at {rejected.where}, expected at {expected}"]
    report = rejected.out.get("report")
    if report is None:
        return []
    errs = [] if not report.is_cp and report.verdicts_agree else ["non-CP multiplier judged CP"]
    if not _close([report.multiplier_min_eigenvalue, report.choi_min_eigenvalue],
                  request.ref["min_eig"], 1e-9):
        errs.append("minimum eigenvalue differs from the constructed one")
    return errs
