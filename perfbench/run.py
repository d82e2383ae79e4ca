"""schemewalk benchmark: one closed-loop client sending certified requests.

    python3 perfbench/run.py --workload {spectra,catalog,quantum} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The library is imported from `src/` of
the same checkout.  One client sends the next request only when the
previous one has returned; every result is checked against an
independent reference (see `pipeline.check`).  The last line of
standard output is one JSON object: with `--trace 0` it carries the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
run.  Spans of the traced run go to `perfbench/out/`.  See README.md
beside this file for why each workload exists.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectra", "catalog", "quantum")
SETUP_REPEATS = 5
# One BLAS thread: on a two-vCPU host a second OpenBLAS thread spins
# between calls (process CPU time ran 60% above wall time on catalog) and
# competes with the client for the other core.
BLAS_THREADS = "1"
# A run serves a fixed number of whole rounds, ceil(seconds / nominal), so
# the two commits of a comparison serve the same requests and every
# percentile is taken over the same sample count.  With 30 seconds that is
# 6, 20 and 15 rounds, which take 30 to 40 seconds at the commit that
# defined the benchmark (one BLAS thread, 2 vCPUs at 2.0 GHz).  With 6
# spectra rounds the 11th-largest latency falls inside the J(10,4) group.
NOMINAL_ROUND_S = {"spectra": 5.0, "catalog": 1.5, "quantum": 2.0}
MAX_REPORTED_ERRORS = 5

# Per-layer span metrics, named `<module>.<operation>_s`.
SPAN_METRICS = [
    "groups.build", "schemes.build", "schemes.build_grassmann", "schemes.verify",
    "spectral.decompose", "parameters.intersection", "parameters.krein",
    "hypergroup.build", "hypergroup.walk",
    "qmc.szegedy", "qmc.certify_cp", "qmc.transition", "qmc.iterate",
    "anyons.pentagon", "anyons.hexagon", "anyons.braid", "anyons.bridge",
    "serialize.dumps", "serialize.loads",
]
# Modules called directly; `galois` runs only inside the Grassmann builder.
MODULES = ["groups", "schemes", "spectral", "parameters", "hypergroup", "qmc", "anyons",
           "serialize"]
COUNT_METRICS = {
    "schemes.verify_calls": "count", "schemes.verify_rejected": "count",
    "schemes.verify_madds_computed": "count",
    "spectral.decompose_calls": "count", "spectral.decompose_rejected": "count",
    "spectral.decompose_work_computed": "count",
    "parameters.intersection_full_calls": "count",
    "parameters.intersection_sampled_calls": "count",
    "parameters.krein_work_computed": "count",
    "hypergroup.walk_steps": "count",
    "qmc.certify_cp_non_cp": "count", "qmc.pair_bytes_computed": "bytes",
    "anyons.pentagon_identities": "count", "anyons.bridge_bijections": "count",
    "serialize.json_bytes": "bytes",
}


def pin_allocator() -> None:
    """Fix glibc's mmap threshold at 1 MiB, which also stops it adapting.

    Left adaptive, the threshold rises after the first large free, so later
    pair-space arrays come from a heap whose fragmentation, and so the peak
    RSS, depends on the seeded request order (quantum peak RSS spread 7%
    between seeds).  Elsewhere than glibc this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 1 << 20)   # M_MMAP_THRESHOLD


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    The value is the 11th largest latency; with fewer than 11 samples
    it is the largest.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Client:
    """Sends rounds of requests in order and scores every reply.

    The next round is generated as soon as one finishes, outside any
    request's latency, so input generation never counts as service time.
    """

    def __init__(self, pipeline, rounds):
        self.pipeline = pipeline
        self.rounds = rounds
        self.pending = next(rounds)
        self.seen: set[str] = set()
        self.attempted = self.failed = self.repeats = self.rejects = 0
        self.errors: list[str] = []

    def send(self, tracer, request) -> float:
        """Serve and score one request; returns its latency in seconds."""
        self.repeats += request.key in self.seen
        self.seen.add(request.key)
        self.rejects += request.expect != "ok"
        tracer.begin_request(self.attempted)
        self.attempted += 1
        start = time.perf_counter()
        try:
            out, rejected = self.pipeline.serve(tracer, request), None
        except self.pipeline.Rejected as exc:
            out, rejected = None, exc
        except Exception:   # a crash is a failed request, not a crashed benchmark
            out, rejected = None, traceback.format_exc(limit=4)
        latency = time.perf_counter() - start
        tracer.end_request()
        if isinstance(rejected, str):
            errs = [f"unexpected exception: {rejected}"]
        elif request.expect == "ok":
            errs = [f"unexpected rejection: {rejected}"] if rejected else \
                self.pipeline.check(request, out)
        else:
            errs = self.pipeline.check_rejection(request, rejected) if rejected else \
                [f"expected {request.expect}, but the request was served"]
        if errs:
            self.failed += 1
            if len(self.errors) < MAX_REPORTED_ERRORS:
                self.errors.append(f"{request.kind} {request.payload}: {errs}"[:2000])
        return latency

    def run_round(self, tracer) -> list[float]:
        requests, self.pending = self.pending, next(self.rounds, None)
        return [self.send(tracer, r) for r in requests]


def setup(gen, pipeline, spans, workload: str, seed: int) -> tuple[float, Client]:
    """Seeded generation of the first round plus warm-up; median of repeats."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        stream = gen.RequestStream(workload, seed)
        client = Client(pipeline, iter(stream.next_round, None))
        warm = Client(pipeline, iter([gen.warmup_round(workload, seed)]))
        warm.run_round(spans.NullTracer())
        times.append(time.perf_counter() - start)
        if warm.failed:
            raise RuntimeError(f"warm-up requests failed: {warm.errors}")
    return statistics.median(times), client


def measure(client: Client, rounds: int, spans) -> dict:
    """Untraced closed loop over `rounds` whole rounds."""
    latencies: list[float] = []
    for _ in range(rounds):
        latencies += client.run_round(spans.NullTracer())
    busy = sum(latencies)
    tail_value, tail_pct = tail(latencies)
    return {
        "busy": busy, "rounds": rounds, "samples": len(latencies),
        "throughput": (client.attempted - client.failed) / busy,
        "p50": statistics.median(latencies), "tail": tail_value, "tail_pct": tail_pct,
    }


def traced(client: Client, rounds: int, spans) -> tuple[dict, list]:
    """Alternate untraced and traced rounds, `rounds` in all (at least one pair).

    Every round has the same composition, so each traced round yields
    the same counts; times are medians over the traced rounds and the
    overhead ratio is the median of traced / untraced round time.
    """
    per_round: list[dict] = []
    ratios, tracers = [], []
    for _ in range(max(1, (rounds + 1) // 2)):
        plain = sum(client.run_round(spans.NullTracer()))
        tracer = spans.Tracer()
        timed = sum(client.run_round(tracer))
        ratios.append(timed / plain)
        tracers.append(tracer)
        per_round.append(layer_metrics(tracer))
    metrics = {}
    for name, (_, unit) in per_round[0].items():
        values = [r[name][0] for r in per_round]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) != 1:
            print(f"warning: {name} differs between traced rounds: {values}", file=sys.stderr)
        metrics[name] = (values[0], unit)
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics, tracers


def layer_metrics(tracer) -> dict:
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    out = {f"{name}_s": (self_s.get(name, 0.0), "s") for name in SPAN_METRICS}
    for module in MODULES:
        prefix = module + "."
        out[f"{module}.self_s"] = (sum(v for k, v in self_s.items() if k.startswith(prefix)), "s")
        out[f"{module}.calls"] = (sum(v for k, v in calls.items() if k.startswith(prefix)), "count")
    for name, unit in COUNT_METRICS.items():
        out[name] = (tracer.counts.get(name, 0), unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "schemewalk" / "__init__.py").is_file():
        print(f"error: no schemewalk sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(src), str(HERE)]
    pin_allocator()

    import numpy  # noqa: F401  a dependency, loaded before the clock starts

    start = time.perf_counter()
    import schemewalk  # noqa: F401
    import_s = time.perf_counter() - start
    import gen
    import pipeline
    import spans
    setup_s, client = setup(gen, pipeline, spans, args.workload, args.seed)
    setup_s += import_s

    rounds = max(1, math.ceil(args.seconds / NOMINAL_ROUND_S[args.workload]))
    header = f"workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS}"
    if args.trace:
        metrics, tracers = traced(client, rounds, spans)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        written = spans.write_spans(tracers, path)
        print(f"{header} mode=traced rounds={len(tracers)} spans={written} -> {path}")
    else:
        m = measure(client, rounds, spans)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "throughput_rps": (m["throughput"], "1/s"),
            "latency_p50_ms": (m["p50"] * 1e3, "ms"),
            "latency_tail_ms": (m["tail"] * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"{header} mode=untraced rounds={m['rounds']} requests={m['samples']} "
              f"busy_s={m['busy']:.3f}")
        print(f"latency_tail_ms is p{m['tail_pct']:.2f} of {m['samples']} samples "
              f"(10 beyond it)")
    failed_ratio = client.failed / client.attempted
    metrics["workload.repeat_share"] = (client.repeats / client.attempted, "ratio")
    metrics["workload.reject_share"] = (client.rejects / client.attempted, "ratio")
    print(f"failed_ratio={failed_ratio:.6g} ({client.failed}/{client.attempted}) "
          f"repeat_share={client.repeats / client.attempted:.4f} "
          f"reject_share={client.rejects / client.attempted:.4f}")
    for err in client.errors:
        print(f"failure: {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        del metrics["workload.repeat_share"], metrics["workload.reject_share"]
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
