"""The summary of `tools/bench_pairs.py`, fed canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [
    {"name": "throughput_rps", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "qmc.iterate_s", "better": "lower"},
]


def _line(rps, p50, iterate):
    """A final output line of perfbench/run.py, as text."""
    metrics = {"throughput_rps": {"value": rps, "unit": "1/s"},
               "latency_p50_ms": {"value": p50, "unit": "ms"},
               "qmc.iterate_s": {"value": iterate, "unit": "s"}}
    return json.dumps({"correct": True, "attempted": 285, "failed": 0, "metrics": metrics})


def _summary(parent, change):
    rows = bench_pairs.summarize(SPECS, [json.loads(_line(*v)) for v in parent],
                                 [json.loads(_line(*v)) for v in change])
    return {r["name"]: r for r in rows}


def test_summary_medians_quartiles_and_wins():
    parent = [(380 + k, 2.0, 0.4) for k in range(10)]
    change = [(460 + k, 1.7, 0.3) for k in range(9)] + [(300, 2.5, 0.4)]
    rows = _summary(parent, change)
    rps = rows["throughput_rps"]
    assert rps["parent"] == pytest.approx((382.25, 384.5, 386.75))
    assert rps["change"][1] == 463.5
    assert (rps["wins"], rps["pairs"]) == (9, 10)
    # lower is better: the change's 1.7 ms beats 2.0 ms, its 2.5 ms does not
    assert rows["latency_p50_ms"]["wins"] == 9
    # equal values in a pair are a tie, a win for neither side
    assert rows["qmc.iterate_s"]["wins"] == 9


def test_summary_refuses_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize(SPECS, [json.loads(_line(1, 1, 1))], [])


def test_seed_lists_and_table():
    assert bench_pairs.parse_seeds("221-224,7") == [221, 222, 223, 224, 7]
    rows = bench_pairs.summarize(SPECS[:1], [json.loads(_line(400.0, 2, 0))],
                                 [json.loads(_line(450.0, 2, 0))])
    table = bench_pairs.format_rows("quantum", rows, (0, 0))
    assert "throughput_rps" in table and "400 [400, 400]" in table and "1/1" in table
    assert table.splitlines()[-1].split()[-2:] == ["yes", "ok"]


def test_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_iqr():
    parent = [(380 + k, 2.0, 0.4) for k in range(10)]  # rps IQR 4.5, median 384.5
    # 9/10 wins, median gap 79: a claim
    rows = _summary(parent, [(460 + k, 2.0, 0.4) for k in range(9)] + [(300, 2.0, 0.4)])
    assert rows["throughput_rps"]["claim"]
    # 8/10 wins: no claim, however large the gap
    rows = _summary(parent, [(460 + k, 2.0, 0.4) for k in range(8)] + [(300, 2.0, 0.4)] * 2)
    assert rows["throughput_rps"]["wins"] == 8 and not rows["throughput_rps"]["claim"]
    # 10/10 wins by a median gap of 4, inside the parent's IQR of 4.5: no claim
    rows = _summary(parent, [(p + 4, 2.0, 0.4) for p, _, _ in parent])
    assert rows["throughput_rps"]["wins"] == 10 and not rows["throughput_rps"]["claim"]
    # lower is better: 1.5 ms against 2.0 ms on every pair, parent IQR 0
    rows = _summary(parent, [(380 + k, 1.5, 0.4) for k in range(10)])
    assert rows["latency_p50_ms"]["claim"] and not rows["qmc.iterate_s"]["claim"]


def test_bound_reads_worse_past_the_relative_bound():
    parent = [(400.0, 2.0, 0.4)] * 10
    # 25% fewer requests per second is at the bound, more is past it
    rows = _summary(parent, [(300.0, 2.5, 0.5)] * 10)
    assert rows["throughput_rps"]["bound"] == "ok"
    assert rows["latency_p50_ms"]["bound"] == "ok"
    rows = _summary(parent, [(299.0, 2.51, 0.8)] * 10)
    assert rows["throughput_rps"]["bound"] == "worse"
    assert rows["latency_p50_ms"]["bound"] == "worse"
    # a per-layer metric has no bound; a better median is never worse
    assert rows["qmc.iterate_s"]["bound"] is None
    rows = _summary(parent, [(800.0, 0.5, 0.4)] * 10)
    assert (rows["throughput_rps"]["bound"], rows["latency_p50_ms"]["bound"]) == ("ok", "ok")
