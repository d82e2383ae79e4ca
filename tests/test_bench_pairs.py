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
    {"name": "throughput_rps", "better": "higher"},
    {"name": "latency_p50_ms", "better": "lower"},
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
