"""Command-line interface.

Verbs: scheme (build/verify/spectrum/params), walk hypergroup, qmc
(dilate/entangled/schur), szegedy, anyon.  Every verb but scheme build
has a machine-readable mode (--json) next to its default table rendering.
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
    scheme_fusion_bridge,
    verify_hexagon,
    verify_pentagon,
)
from .errors import CertificationError, ValidationError
from .hypergroup import hypergroup_from, walk
from .parameters import intersection_numbers, krein_parameters
from .qmc import (
    SchurChannel,
    apply_transition_expectation,
    dilation_unitary,
    iterate_channel,
    make_transition_expectation,
    szegedy_walk,
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
    from_jsonable,
    load,
    loads,
    save,
    to_jsonable,
)
from .spectral import BoseMesnerDecomposition, decompose

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
    imag = f"{z.imag:+.8f}"
    return _fmt_real(z.real) + ("" if imag[1:] == "0.00000000" else imag + "j")


def _vector_text(values) -> str:
    return "[" + ", ".join(_fmt_entry(v) for v in values) + "]"


def _matrix_text(mat) -> str:
    return "[" + ", ".join(_vector_text(row) for row in np.asarray(mat)) + "]"


def _json_default(obj):
    if isinstance(obj, BoseMesnerDecomposition):
        return decomposition_to_jsonable(obj)
    return encode_matrix(obj)


def _emit(args, payload, *text_lines, passed=True) -> int:
    """Print `payload` as one JSON document under --json, else the text lines;
    exit 0, or 2 for a failed check.  Arrays are encoded or rendered only for
    the mode that prints them: a Szegedy U may hold 4096^2 entries."""
    if args.json:
        print(json.dumps(payload, default=_json_default))
    else:
        for line in text_lines:
            print(_matrix_text(line) if isinstance(line, np.ndarray) else line)
    return 0 if passed else 2


def _inline_or_file(value: str, kind: str):
    text = value.strip()
    if text.startswith("[") or text.startswith("{"):
        return loads(text, kind)
    return load(value, kind)


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
    # numbers only; `walk` checks length, signs and mass
    return from_jsonable("distribution", data, validate=False)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schemewalk", description=__doc__)
    parser.add_argument("--version", action="version", version=_VERSION_NOTICE)
    verbs = parser.add_subparsers(dest="verb", required=True)

    def command(parent, name, handler, help, with_json=True):
        cmd = parent.add_parser(name, help=help)
        cmd.set_defaults(handler=handler)
        if with_json:
            cmd.add_argument("--json", action="store_true")
        return cmd

    def group(name, help):
        return verbs.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    scheme_sub = group("scheme", "build and inspect association schemes")

    build = command(scheme_sub, "build", _cmd_scheme_build,
                    "construct a built-in scheme family", with_json=False)
    build.add_argument("--family", required=True, choices=list(_FAMILIES))
    build.add_argument("--v", type=int, help="ground-set size (johnson/grassmann)")
    build.add_argument("--k", type=int, help="subset size (johnson)")
    build.add_argument("--q", type=int, help="field order (grassmann)")
    build.add_argument("--d", type=int, help="subspace dimension (grassmann)")
    build.add_argument("--group", help="group name (z4, s3, d4, q8, ...) or Cayley JSON path")
    build.add_argument("--generators", help="JSON list of permutations (orbit)")
    build.add_argument("--n", type=int, help="point count (orbit)")
    build.add_argument("--out", help="write scheme JSON here instead of stdout")

    command(scheme_sub, "verify", _cmd_scheme_verify,
            "check the scheme axioms").add_argument("path")
    command(scheme_sub, "spectrum", _cmd_scheme_spectrum,
            "multiplicities, P and Q").add_argument("path")
    params = command(scheme_sub, "params", _cmd_scheme_params,
                     "intersection numbers or Krein parameters")
    params.add_argument("path")
    params.add_argument("--kind", required=True, choices=["intersection", "krein"])

    walk_sub = group("walk", "classical walks")
    hg = command(walk_sub, "hypergroup", _cmd_walk, "random walk on the idempotent hypergroup")
    hg.add_argument("path")
    hg.add_argument("--coin", required=True, help="index or JSON weights")
    hg.add_argument("--start", required=True, help="index or JSON distribution")
    hg.add_argument("--steps", required=True, type=int)
    hg.add_argument("--csv", help="write the trajectory as CSV here")

    qmc_sub = group("qmc", "quantum chains")
    command(qmc_sub, "dilate", _cmd_dilate, "orthogonal dilation of a distribution").add_argument(
        "--dist", required=True, help="JSON list or file path")
    ent = command(qmc_sub, "entangled", _cmd_entangled, "transition expectation E(M (x) N)")
    ent.add_argument("--transition", required=True, help="row-stochastic matrix (JSON or path)")
    ent.add_argument("--M", required=True, help="site matrix (JSON or path)")
    ent.add_argument("--N", required=True, help="site matrix (JSON or path)")
    schur = command(qmc_sub, "schur", _cmd_schur, "iterate an idempotent Schur channel")
    schur.add_argument("--scheme", required=True)
    schur.add_argument("--coin", required=True, type=int, help="idempotent index")
    schur.add_argument("--rho", required=True, help="density matrix (JSON or path)")
    schur.add_argument("--steps", required=True, type=int)

    szg = command(verbs, "szegedy", _cmd_szegedy, "walk unitary of a stochastic matrix")
    szg.add_argument("--transition", required=True, help="stochastic matrix (JSON or path)")
    szg.add_argument("--convention", default="column", choices=["column", "row"])
    szg.add_argument("--out", help="write U as matrix JSON here")

    anyon = command(verbs, "anyon", _cmd_anyon, "fusion systems")
    anyon.add_argument("--system", required=True,
                       help="ising, fibonacci, or a fusion-system JSON path")
    anyon.add_argument("--op", required=True, choices=list(_ANYON_OPS))
    anyon.add_argument("args", nargs="*", help="labels for fuse")
    anyon.add_argument("--scheme", help="scheme JSON path (bridge)")

    return parser


def _group(name: str):
    return load(name, "cayley") if name.endswith(".json") else groups.builtin(name)


def _generators(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--generators is not valid JSON: {exc.msg}") from None


# family -> (the flags it reads, its builder); every other flag is refused
_FAMILIES = {
    "group": (("group",), lambda a: build_group_scheme(_group(a.group))),
    "conjugacy": (("group",), lambda a: build_conjugacy_scheme(_group(a.group))),
    "orbit": (("generators", "n"), lambda a: build_orbit_scheme(_generators(a.generators), a.n)),
    "johnson": (("v", "k"), lambda a: build_johnson(a.v, a.k)),
    "grassmann": (("q", "v", "d"), lambda a: build_grassmann(a.q, a.v, a.d)),
}
_BUILD_FLAGS = sorted({flag for reads, _ in _FAMILIES.values() for flag in reads})


def _cmd_scheme_build(args) -> int:
    reads, builder = _FAMILIES[args.family]
    if any(getattr(args, flag) is None for flag in reads):
        raise ValidationError(f"{args.family} needs " + ", ".join(f"--{f}" for f in reads))
    ignored = [f"--{f}" for f in _BUILD_FLAGS if f not in reads and getattr(args, f) is not None]
    if ignored:
        raise ValidationError(f"{args.family} does not read " + ", ".join(ignored))
    scheme = builder(args)
    if args.out:
        save(args.out, "scheme", scheme)
        print(f"scheme n={scheme.n} d={scheme.d} -> {args.out}")
    else:
        print(json.dumps(to_jsonable("scheme", scheme)))
    return 0


def _cmd_scheme_verify(args) -> int:
    report = verify_axioms(load(args.path, "scheme", validate=False))
    lines = [f"failed: axiom ({axiom}) witness {witness}" for axiom, witness in report.violations]
    if report.passed:
        lines = ["passed, " + ("commutative" if report.commutative else "non-commutative")]
    return _emit(args, {
        "passed": report.passed,
        "commutative": report.commutative,
        "violations": [[axiom, list(witness)] for axiom, witness in report.violations],
    }, *lines, passed=report.passed)


def _cmd_scheme_spectrum(args) -> int:
    dec = decompose(load(args.path, "scheme"))
    return _emit(args, dec,
                 f"multiplicities: {list(dec.multiplicities)}",
                 "eigenmatrix P:", dec.eigenmatrix_P,
                 "eigenmatrix Q:", dec.eigenmatrix_Q)


def _cmd_scheme_params(args) -> int:
    scheme = load(args.path, "scheme")
    if args.kind == "intersection":
        tensor = intersection_numbers(scheme)
        return _emit(args, to_jsonable("tensor", tensor),
                     *(f"p[{i}][{j}] = {list(map(int, tensor.p[i, j]))}"
                       for i, j in np.ndindex(tensor.p.shape[:2])))
    # krein_parameters raises CertificationError on any q_ij^k < -errors.KREIN_TOLERANCE,
    # so a returned tensor satisfies the Krein condition
    tensor = krein_parameters(decompose(scheme))
    return _emit(args, {**to_jsonable("tensor", tensor), "nonnegative": True},
                 *(f"q[{i}][{j}] = {_vector_text(tensor.q[i, j])}"
                   for i, j in np.ndindex(tensor.q.shape[:2])),
                 "Krein condition: satisfied")


def _cmd_walk(args) -> int:
    dec = decompose(load(args.path, "scheme"))
    h = hypergroup_from(dec, krein_parameters(dec))
    coin = _parse_index_or_dist(args.coin, "--coin")
    start = _parse_index_or_dist(args.start, "--start")
    history = walk(h, coin, start, args.steps)

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["step"] + [f"state{i}" for i in range(h.size)])
            for step, dist in enumerate(history):
                writer.writerow([step] + [repr(float(v)) for v in dist])
        print(f"walk trajectory ({len(history)} rows) -> {args.csv}")
        return 0
    return _emit(args, {"steps": history},
                 *(f"step {step}: {_vector_text(dist)}" for step, dist in enumerate(history)))


def _cmd_dilate(args) -> int:
    u = dilation_unitary(_inline_or_file(args.dist, "distribution"))
    return _emit(args, u, u)


def _cmd_entangled(args) -> int:
    te = make_transition_expectation(_inline_or_file(args.transition, "matrix"))
    m = _inline_or_file(args.M, "matrix")
    n = _inline_or_file(args.N, "matrix")
    result = apply_transition_expectation(te, m, n)
    return _emit(args, result, result)


def _cmd_schur(args) -> int:
    dec = decompose(load(args.scheme, "scheme"))
    channel = SchurChannel(multiplier=dec.idempotent(args.coin) / dec.multiplicities[args.coin])
    rho = _inline_or_file(args.rho, "matrix")
    trajectory = iterate_channel(channel, rho, args.steps)
    return _emit(args, {"trace_factors": trajectory.trace_factors, "states": trajectory.states},
                 f"trace factors per step: {_vector_text(trajectory.trace_factors)}",
                 "final state:", trajectory.states[-1])


def _cmd_szegedy(args) -> int:
    op = szegedy_walk(_inline_or_file(args.transition, "matrix"), convention=args.convention)
    print(f"walk on {op.dim_v} vertices; U is {op.U.shape[0]}x{op.U.shape[1]}",
          file=sys.stderr)
    if args.out:
        save(args.out, "matrix", op.U)
        print(f"U -> {args.out}")
        return 0
    return _emit(args, {"dim_v": op.dim_v, "U": op.U}, op.U)


def _anyon_fuse(args, fs) -> int:
    if len(args.args) != 2:
        raise ValidationError("fuse needs two labels, e.g. --op fuse sigma sigma")
    vec = fuse(fs, args.args[0], args.args[1])
    terms = [f"{fs.labels[c]}:{int(mult)}" for c, mult in enumerate(vec) if mult]
    return _emit(args, {"labels": list(fs.labels), "multiplicities": [int(v) for v in vec]},
                 f"{args.args[0]} x {args.args[1]} -> " + (", ".join(terms) or "0"))


def _anyon_dims(args, fs) -> int:
    dims = fs.dims
    return _emit(args, {"labels": list(fs.labels), "dims": [float(v) for v in dims]},
                 ", ".join(f"{lab}: {dim:.10f}" for lab, dim in zip(fs.labels, dims)))


def _anyon_braid(args, fs) -> int:
    gens = braid_generators(fs)
    return _emit(args, {"label": gens.label, "sigma1": gens.sigma1, "sigma2": gens.sigma2,
                        "B": gens.b_matrix, "braid_residual": gens.braid_residual},
                 f"braiding label: {gens.label}",
                 "sigma1:", gens.sigma1,
                 "sigma2:", gens.sigma2,
                 "B = F R^2 F^-1:", gens.b_matrix,
                 f"braid relation residual (up to phase): {gens.braid_residual:.3e}")


def _anyon_pentagon(args, fs) -> int:
    report = verify_pentagon(fs)
    return _emit(args, {"max_residual": report.max_residual,
                        "identities_checked": report.identities_checked,
                        "passed": report.passed},
                 f"pentagon residual {report.max_residual:.3e} over "
                 f"{report.identities_checked} identities: "
                 + ("PASS" if report.passed else "FAIL"), passed=report.passed)


def _anyon_hexagon(args, fs) -> int:
    report = verify_hexagon(fs)
    return _emit(args, {"max_residual": report.max_residual,
                        "max_residual_inverse": report.max_residual_inverse,
                        "identities_checked": report.identities_checked,
                        "passed": report.passed},
                 f"hexagon residuals {report.max_residual:.3e} / "
                 f"{report.max_residual_inverse:.3e} (both orientations): "
                 + ("PASS" if report.passed else "FAIL"), passed=report.passed)


def _anyon_bridge(args, fs) -> int:
    if not args.scheme:
        raise ValidationError("bridge needs --scheme")
    dec = decompose(load(args.scheme, "scheme"))
    report = scheme_fusion_bridge(dec, krein_parameters(dec), fs)
    if report.bijection:
        verdict = "match" if report.matched else "no integral match"
        names = [fs.labels[p] for p in report.bijection]
        lines = (f"{verdict}: bijection {names}, deviation {report.deviation:.3e}",
                 f"scalars d/m: {_vector_text(report.scalars)}")
    else:
        lines = ("no integral match: no label map keeps the support pattern",)
    return _emit(args, {
        "matched": report.matched,
        "bijection": list(report.bijection),
        "scalars": list(report.scalars),
        # an empty bijection has deviation inf, which strict JSON cannot hold
        "deviation": report.deviation if report.bijection else None,
    }, *lines)


_ANYON_OPS = {
    "fuse": _anyon_fuse,
    "dims": _anyon_dims,
    "braid": _anyon_braid,
    "pentagon": _anyon_pentagon,
    "hexagon": _anyon_hexagon,
    "bridge": _anyon_bridge,
}


def _cmd_anyon(args) -> int:
    if args.args and args.op != "fuse":
        raise ValidationError(f"{args.op} does not read labels: {' '.join(args.args)}")
    if args.scheme is not None and args.op != "bridge":
        raise ValidationError(f"{args.op} does not read --scheme")
    fs = (builtin_fusion_system(args.system) if args.system in ("ising", "fibonacci")
          else load(args.system, "fusion-system"))
    return _ANYON_OPS[args.op](args, fs)


def run(argv) -> int:
    argv = list(argv)
    if argv[:2] == ["anyon", "bridge"]:
        argv = ["anyon", "--op", "bridge"] + argv[2:]
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:       # --help / --version
        return int(exc.code or 0)
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
