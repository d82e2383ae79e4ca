"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py --parent REV --workload quantum \
        --seeds 221-230 --seconds 30 [--trace 0]

The change is this checkout's working tree; the committed files of the
parent commit REV are exported with `git archive` into a temporary
directory, removed afterwards.  For every seed both sides run
`perfbench/run.py` with the same arguments, and the side that runs first
alternates from pair to pair; each run's result line goes to standard
error.  For every metric that BENCHMARK.json declares (the end-to-end
metrics untraced, the per-layer metrics with `--trace 1`) it prints each
side's median and quartiles, the change's wins over its pairs (ties count
for neither side) and two verdicts:

* claim: "yes" when the change wins at least 9 pairs in 10 and its median
  is better than the parent's by more than the parent's interquartile
  range, the rule a claimed gain must meet; else "no".
* bound: "worse" when the change's median is worse than the parent's by
  more than the metric's relative bound in BENCHMARK.json, else "ok";
  "-" for a metric without a bound.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'221-230' or '1,2,5-7' -> the listed seeds, in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(specs: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """One row per metric spec from paired result objects.

    `specs` are BENCHMARK.json metric entries (`name`, `better` and, for
    the end-to-end metrics, the relative `bound`); `parent[i]` and
    `change[i]` are the JSON objects on the last line of
    `perfbench/run.py` for pair i.  Each row holds the quartiles of both
    sides, the change's wins, and the verdicts of the module docstring:
    `claim` (True or False) and `bound` ("worse", "ok" or None).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, non-empty runs per side: {len(parent)} and {len(change)}")
    rows = []
    for spec in specs:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        (p1, pmed, p3), (_, cmed, _) = quartiles(p), quartiles(c)
        gain = sign * (cmed - pmed)  # > 0 when the change's median is better
        bound = spec.get("bound")
        rows.append({"name": name, "parent": (p1, pmed, p3), "change": quartiles(c),
                     "wins": wins, "pairs": len(p),
                     "claim": 10 * wins >= 9 * len(p) and gain > p3 - p1,
                     "bound": None if bound is None
                     else "worse" if -gain > bound * abs(pmed) else "ok"})
    return rows


def format_rows(workload: str, rows: list[dict], failed: tuple[int, int]) -> str:
    lines = [f"workload {workload}: {rows[0]['pairs']} pairs, failed requests "
             f"parent {failed[0]}, change {failed[1]}",
             f"  {'metric':<34} {'parent median [q1, q3]':>30} "
             f"{'change median [q1, q3]':>30} {'wins':>6} {'claim':>5} {'bound':>5}"]
    for r in rows:
        side = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*r[k]) for k in ("parent", "change")]
        lines.append(f"  {r['name']:<34} {side[0]:>30} {side[1]:>30} "
                     f"{r['wins']:>3}/{r['pairs']} {'yes' if r['claim'] else 'no':>5} "
                     f"{r['bound'] or '-':>5}")
    return "\n".join(lines)


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in checkout `root`; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit, any git revision")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of perfbench/run.py; repeat for several")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 221-230 or 1,2,5-7")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                 capture_output=True, check=True).stdout
        parent_root = Path(tmp) / "parent"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_root, filter="data")
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    root = parent_root if side == "parent" else ROOT
                    result = run_once(root, workload, seed, args.seconds, args.trace)
                    runs[side].append(result)
                    print(f"{workload} seed {seed} {side}: {json.dumps(result)}",
                          file=sys.stderr, flush=True)
            present = [s for s in specs if s["name"] in runs["parent"][0]["metrics"]]
            rows = summarize(present, runs["parent"], runs["change"])
            failed = tuple(sum(r["failed"] for r in runs[s]) for s in ("parent", "change"))
            print(format_rows(workload, rows, failed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
