"""Command-line interface.

Verbs: scheme (build/verify/spectrum/params), walk hypergroup, qmc
(dilate/entangled/schur), szegedy, anyon.  Every command has a
machine-readable mode (--json) next to its default table rendering.
Results go to stdout, diagnostics to stderr; exit codes: 0 success,
1 validation error (bad input or flags), 2 certification failure
(axioms, Krein, complete positivity, ...).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__, groups
from .anyons import (
    braid_generators,
    builtin_fusion_system,
    fuse,
    quantum_dimensions,
    scheme_fusion_bridge,
    verify_hexagon,
    verify_pentagon,
)
from .errors import CertificationError, ValidationError
from .hypergroup import hypergroup_from, walk
from .parameters import check_krein_condition, intersection_numbers, krein_parameters
from .qmc import (
    SchurChannel,
    apply_transition_expectation,
    certify_cp,
    dilation_unitary,
    iterate_channel,
    make_transition_expectation,
    szegedy_walk,
    transition_expectation_closed_form,
)
from .schemes import (
    build_conjugacy_scheme,
    build_grassmann,
    build_group_scheme,
    build_johnson,
    build_orbit_scheme,
    verify_axioms,
)
from .serialize import (
    decomposition_to_jsonable,
    encode_matrix,
    load,
    loads,
    save,
    to_jsonable,
)
from .spectral import decompose

_VERSION_NOTICE = (
    f"schemewalk {__version__}\n"
    "Normalization note: hypergroup convolution weights are "
    "(m_k/(m_i m_j)) * q_ij^k with no extra 1/|X| factor; the trace identity "
    "sum_k m_k q_ij^k = m_i m_j makes each slice a probability distribution."
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; here that is a
    validation error and must exit 1 instead."""

    def error(self, message):
        raise ValidationError(message)


def _fmt_real(v: float) -> str:
    out = f"{v:.8f}"
    return "0.00000000" if out == "-0.00000000" else out


def _fmt_entry(z) -> str:
    z = complex(z)
    if abs(z.imag) < 5e-9:
        return _fmt_real(z.real)
    return f"{_fmt_real(z.real)}{z.imag:+.8f}j"


def _print_matrix(mat):
    arr = np.asarray(mat)
    body = ", ".join(
        "[" + ", ".join(_fmt_entry(v) for v in row) + "]" for row in arr
    )
    print(f"[{body}]")


def _inline_or_file(value: str, kind: str):
    text = value.strip()
    if text.startswith("[") or text.startswith("{"):
        return loads(text, kind)
    return load(value, kind)


def _load_scheme_for(path: str, need_commutative: bool = False):
    scheme = load(path, "scheme")
    # `load` verified the scheme, so this reads the report kept on it
    if need_commutative and not verify_axioms(scheme).commutative:
        raise ValidationError(f"scheme in {path} is not commutative")
    return scheme


def _parse_index_or_dist(value: str, what: str):
    try:
        return int(value)
    except ValueError:
        pass
    try:
        data = json.loads(value)
    except json.JSONDecodeError:
        raise ValidationError(f"{what} must be an index or a JSON list") from None
    if not isinstance(data, list):
        raise ValidationError(f"{what} must be an index or a JSON list")
    return np.array(data, dtype=np.float64)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schemewalk", description=__doc__)
    parser.add_argument("--version", action="version", version=_VERSION_NOTICE)
    sub = parser.add_subparsers(dest="verb", required=True)

    scheme = sub.add_parser("scheme", help="build and inspect association schemes")
    scheme_sub = scheme.add_subparsers(dest="action", required=True)

    build = scheme_sub.add_parser("build", help="construct a built-in scheme family")
    build.add_argument("--family", required=True,
                       choices=["group", "conjugacy", "orbit", "johnson", "grassmann"])
    build.add_argument("--v", type=int, help="ground-set size (johnson/grassmann)")
    build.add_argument("--k", type=int, help="subset size (johnson)")
    build.add_argument("--q", type=int, help="field order (grassmann)")
    build.add_argument("--d", type=int, help="subspace dimension (grassmann)")
    build.add_argument("--group", help="group name (z4, s3, d4, q8, ...) or Cayley JSON path")
    build.add_argument("--generators", help="JSON list of permutations (orbit)")
    build.add_argument("--n", type=int, help="point count (orbit)")
    build.add_argument("--out", help="write scheme JSON here instead of stdout")

    verify = scheme_sub.add_parser("verify", help="check the scheme axioms")
    verify.add_argument("path")
    verify.add_argument("--json", action="store_true")

    spectrum = scheme_sub.add_parser("spectrum", help="idempotents, multiplicities, P and Q")
    spectrum.add_argument("path")
    spectrum.add_argument("--json", action="store_true")

    params = scheme_sub.add_parser("params", help="intersection numbers or Krein parameters")
    params.add_argument("path")
    params.add_argument("--kind", required=True, choices=["intersection", "krein"])
    params.add_argument("--json", action="store_true")

    walk_p = sub.add_parser("walk", help="classical walks")
    walk_sub = walk_p.add_subparsers(dest="action", required=True)
    hg = walk_sub.add_parser("hypergroup", help="random walk on the idempotent hypergroup")
    hg.add_argument("path")
    hg.add_argument("--coin", required=True, help="index or JSON weights")
    hg.add_argument("--start", required=True, help="index or JSON distribution")
    hg.add_argument("--steps", required=True, type=int)
    hg.add_argument("--csv", help="write the trajectory as CSV here")
    hg.add_argument("--json", action="store_true")

    qmc_p = sub.add_parser("qmc", help="quantum chains")
    qmc_sub = qmc_p.add_subparsers(dest="action", required=True)

    dilate = qmc_sub.add_parser("dilate", help="orthogonal dilation of a distribution")
    dilate.add_argument("--dist", required=True, help="JSON list or file path")
    dilate.add_argument("--json", action="store_true")

    ent = qmc_sub.add_parser("entangled", help="transition expectation E(M (x) N)")
    ent.add_argument("--transition", required=True, help="row-stochastic matrix (JSON or path)")
    ent.add_argument("--M", required=True, help="site matrix (JSON or path)")
    ent.add_argument("--N", required=True, help="site matrix (JSON or path)")
    ent.add_argument("--json", action="store_true")

    schur_p = qmc_sub.add_parser("schur", help="iterate an idempotent Schur channel")
    schur_p.add_argument("--scheme", required=True)
    schur_p.add_argument("--coin", required=True, type=int, help="idempotent index")
    schur_p.add_argument("--rho", required=True, help="density matrix (JSON or path)")
    schur_p.add_argument("--steps", required=True, type=int)
    schur_p.add_argument("--json", action="store_true")

    szg = sub.add_parser("szegedy", help="walk unitary of a stochastic matrix")
    szg.add_argument("--transition", required=True, help="stochastic matrix (JSON or path)")
    szg.add_argument("--convention", default="column", choices=["column", "row"])
    szg.add_argument("--out", help="write U as matrix JSON here")
    szg.add_argument("--json", action="store_true")

    anyon = sub.add_parser("anyon", help="fusion systems")
    anyon.add_argument("--system", required=True,
                       help="ising, fibonacci, or a fusion-system JSON path")
    anyon.add_argument("--op", required=True,
                       choices=["fuse", "dims", "braid", "pentagon", "hexagon", "bridge"])
    anyon.add_argument("args", nargs="*", help="labels for fuse")
    anyon.add_argument("--scheme", help="scheme JSON path (bridge)")
    anyon.add_argument("--json", action="store_true")

    return parser


def _cmd_scheme_build(args) -> int:
    fam = args.family
    if fam == "johnson":
        if args.v is None or args.k is None:
            raise ValidationError("johnson needs --v and --k")
        scheme = build_johnson(args.v, args.k)
    elif fam == "grassmann":
        if args.q is None or args.v is None or args.d is None:
            raise ValidationError("grassmann needs --q, --v and --d")
        scheme = build_grassmann(args.q, args.v, args.d)
    elif fam in ("group", "conjugacy"):
        if not args.group:
            raise ValidationError(f"{fam} needs --group")
        if args.group.endswith(".json"):
            group = load(args.group, "cayley")
        else:
            group = groups.builtin(args.group)
        scheme = (build_group_scheme if fam == "group" else build_conjugacy_scheme)(group)
    else:
        if not args.generators or args.n is None:
            raise ValidationError("orbit needs --generators and --n")
        try:
            gens = json.loads(args.generators)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--generators is not valid JSON: {exc.msg}") from None
        scheme = build_orbit_scheme(gens, args.n)

    if args.out:
        save(args.out, "scheme", scheme)
        print(f"scheme n={scheme.n} d={scheme.d} -> {args.out}")
    else:
        print(json.dumps(to_jsonable("scheme", scheme)))
    return 0


def _cmd_scheme_verify(args) -> int:
    scheme = load(args.path, "scheme", validate=False)
    report = verify_axioms(scheme)
    if args.json:
        print(json.dumps({
            "passed": report.passed,
            "commutative": report.commutative,
            "violations": [[axiom, list(witness)] for axiom, witness in report.violations],
        }))
    elif report.passed:
        print("passed, " + ("commutative" if report.commutative else "non-commutative"))
    else:
        for axiom, witness in report.violations:
            print(f"failed: axiom ({axiom}) witness {witness}")
    return 0 if report.passed else 2


def _cmd_scheme_spectrum(args) -> int:
    dec = decompose(_load_scheme_for(args.path, need_commutative=True))
    if args.json:
        print(json.dumps(decomposition_to_jsonable(dec)))
        return 0
    print(f"multiplicities: {list(dec.multiplicities)}")
    print("eigenmatrix P:")
    _print_matrix(dec.eigenmatrix_P)
    print("eigenmatrix Q:")
    _print_matrix(dec.eigenmatrix_Q)
    return 0


def _cmd_scheme_params(args) -> int:
    scheme = _load_scheme_for(args.path)
    if args.kind == "intersection":
        tensor = intersection_numbers(scheme)
        if args.json:
            print(json.dumps(to_jsonable("tensor", tensor)))
            return 0
        for i in range(tensor.d + 1):
            for j in range(tensor.d + 1):
                print(f"p[{i}][{j}] = {list(map(int, tensor.p[i, j]))}")
        return 0
    dec = decompose(scheme)
    tensor = krein_parameters(dec)
    report = check_krein_condition(tensor)
    if args.json:
        out = to_jsonable("tensor", tensor)
        out["nonnegative"] = report.passed
        print(json.dumps(out))
        return 0
    for i in range(tensor.d + 1):
        for j in range(tensor.d + 1):
            print(f"q[{i}][{j}] = [" + ", ".join(_fmt_real(v) for v in tensor.q[i, j]) + "]")
    print(f"Krein condition: {'satisfied' if report.passed else 'violated'}")
    return 0 if report.passed else 2


def _cmd_walk(args) -> int:
    scheme = _load_scheme_for(args.path, need_commutative=True)
    dec = decompose(scheme)
    h = hypergroup_from(dec, krein_parameters(dec))
    coin = _parse_index_or_dist(args.coin, "--coin")
    start = _parse_index_or_dist(args.start, "--start")
    if isinstance(start, (int, np.integer)):
        idx = int(start)
        if not 0 <= idx < h.size:
            raise ValidationError(f"--start index {idx} out of range 0..{h.size - 1}")
        start = np.zeros(h.size)
        start[idx] = 1.0
    history = walk(h, coin, start, args.steps)

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["step"] + [f"state{i}" for i in range(h.size)])
            for step, dist in enumerate(history):
                writer.writerow([step] + [repr(float(v)) for v in dist])
        print(f"walk trajectory ({len(history)} rows) -> {args.csv}")
        return 0
    if args.json:
        print(json.dumps({"steps": [[float(v) for v in dist] for dist in history]}))
        return 0
    for step, dist in enumerate(history):
        print(f"step {step}: [" + ", ".join(_fmt_real(v) for v in dist) + "]")
    return 0


def _cmd_dilate(args) -> int:
    dist = _inline_or_file(args.dist, "distribution")
    u = dilation_unitary(dist)
    if args.json:
        print(json.dumps(encode_matrix(u)))
    else:
        _print_matrix(u)
    return 0


def _cmd_entangled(args) -> int:
    te = make_transition_expectation(_inline_or_file(args.transition, "matrix"))
    m = _inline_or_file(args.M, "matrix")
    n = _inline_or_file(args.N, "matrix")
    result = apply_transition_expectation(te, m, n)
    residual = float(np.max(np.abs(result - transition_expectation_closed_form(te, m, n))))
    print(f"closed-form agreement residual: {residual:.3e}", file=sys.stderr)
    if args.json:
        print(json.dumps(encode_matrix(result)))
    else:
        _print_matrix(result)
    return 0


def _cmd_schur(args) -> int:
    scheme = _load_scheme_for(args.scheme, need_commutative=True)
    dec = decompose(scheme)
    if not 0 <= args.coin <= dec.d:
        raise ValidationError(f"--coin must be in 0..{dec.d}")
    multiplier = dec.idempotents[args.coin] / dec.multiplicities[args.coin]
    channel = SchurChannel(multiplier=multiplier)
    report = certify_cp(channel)
    if not report.is_cp:
        raise CertificationError(
            f"channel is not completely positive (min Choi eigenvalue "
            f"{report.choi_min_eigenvalue:.3e})"
        )
    rho = _inline_or_file(args.rho, "matrix")
    trajectory = iterate_channel(channel, rho, args.steps)
    if args.json:
        print(json.dumps({
            "trace_factors": list(trajectory.trace_factors),
            "states": [encode_matrix(s) for s in trajectory.states],
        }))
        return 0
    print("trace factors per step: ["
          + ", ".join(_fmt_real(v) for v in trajectory.trace_factors) + "]")
    print("final state:")
    _print_matrix(trajectory.states[-1])
    return 0


def _cmd_szegedy(args) -> int:
    op = szegedy_walk(_inline_or_file(args.transition, "matrix"), convention=args.convention)
    print(f"walk on {op.dim_v} vertices; U is {op.U.shape[0]}x{op.U.shape[1]}",
          file=sys.stderr)
    if args.out:
        save(args.out, "matrix", op.U)
        print(f"U -> {args.out}")
        return 0
    if args.json:
        print(json.dumps({"dim_v": op.dim_v, "U": encode_matrix(op.U)}))
    else:
        _print_matrix(op.U)
    return 0


def _cmd_anyon(args) -> int:
    if args.system in ("ising", "fibonacci"):
        fs = builtin_fusion_system(args.system)
    else:
        fs = load(args.system, "fusion-system")

    if args.op == "fuse":
        if len(args.args) != 2:
            raise ValidationError("fuse needs two labels, e.g. --op fuse sigma sigma")
        vec = fuse(fs, args.args[0], args.args[1])
        if args.json:
            print(json.dumps({"labels": list(fs.labels),
                              "multiplicities": [int(v) for v in vec]}))
        else:
            terms = [f"{fs.labels[c]}:{int(mult)}" for c, mult in enumerate(vec) if mult]
            print(f"{args.args[0]} x {args.args[1]} -> " + (", ".join(terms) or "0"))
        return 0

    if args.op == "dims":
        dims = quantum_dimensions(fs)
        if args.json:
            print(json.dumps({"labels": list(fs.labels), "dims": [float(v) for v in dims]}))
        else:
            print(", ".join(f"{lab}: {dim:.10f}" for lab, dim in zip(fs.labels, dims)))
        return 0

    if args.op == "braid":
        gens = braid_generators(fs)
        if args.json:
            print(json.dumps({
                "label": gens.label,
                "sigma1": encode_matrix(gens.sigma1),
                "sigma2": encode_matrix(gens.sigma2),
                "B": encode_matrix(gens.b_matrix),
                "braid_residual": gens.braid_residual,
            }))
            return 0
        print(f"braiding label: {gens.label}")
        print("sigma1:")
        _print_matrix(gens.sigma1)
        print("sigma2:")
        _print_matrix(gens.sigma2)
        print("B = F R^2 F^-1:")
        _print_matrix(gens.b_matrix)
        print(f"braid relation residual (up to phase): {gens.braid_residual:.3e}")
        return 0

    if args.op == "pentagon":
        report = verify_pentagon(fs)
        if args.json:
            print(json.dumps({"max_residual": report.max_residual,
                              "identities_checked": report.identities_checked,
                              "passed": report.passed}))
        else:
            print(f"pentagon residual {report.max_residual:.3e} over "
                  f"{report.identities_checked} identities: "
                  + ("PASS" if report.passed else "FAIL"))
        return 0 if report.passed else 2

    if args.op == "hexagon":
        report = verify_hexagon(fs)
        if args.json:
            print(json.dumps({"max_residual": report.max_residual,
                              "max_residual_inverse": report.max_residual_inverse,
                              "identities_checked": report.identities_checked,
                              "passed": report.passed}))
        else:
            print(f"hexagon residuals {report.max_residual:.3e} / "
                  f"{report.max_residual_inverse:.3e} (both orientations): "
                  + ("PASS" if report.passed else "FAIL"))
        return 0 if report.passed else 2

    # bridge
    if not args.scheme:
        raise ValidationError("bridge needs --scheme")
    scheme = _load_scheme_for(args.scheme, need_commutative=True)
    dec = decompose(scheme)
    report = scheme_fusion_bridge(dec, krein_parameters(dec), fs)
    if args.json:
        print(json.dumps({
            "matched": report.matched,
            "bijection": list(report.bijection),
            "scalars": list(report.scalars),
            "deviation": report.deviation,
        }))
        return 0
    verdict = "match" if report.matched else "no integral match"
    names = [fs.labels[p] for p in report.bijection]
    print(f"{verdict}: bijection {names}, deviation {report.deviation:.3e}")
    print("fitted scalars: [" + ", ".join(_fmt_real(s) for s in report.scalars) + "]")
    return 0


def run(argv) -> int:
    argv = list(argv)
    if argv[:2] == ["anyon", "bridge"]:
        argv = ["anyon", "--op", "bridge"] + argv[2:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "scheme":
            handler = {
                "build": _cmd_scheme_build,
                "verify": _cmd_scheme_verify,
                "spectrum": _cmd_scheme_spectrum,
                "params": _cmd_scheme_params,
            }[args.action]
            return handler(args)
        if args.verb == "walk":
            return _cmd_walk(args)
        if args.verb == "qmc":
            handler = {
                "dilate": _cmd_dilate,
                "entangled": _cmd_entangled,
                "schur": _cmd_schur,
            }[args.action]
            return handler(args)
        if args.verb == "szegedy":
            return _cmd_szegedy(args)
        return _cmd_anyon(args)
    except SystemExit as exc:       # --help / --version
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
