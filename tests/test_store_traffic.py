"""The benchmark's own traffic, served in process, never fills the report
store: no request fails, nothing is evicted, and every held record stays
within the charge it was given when the store took it.

The benchmark's modules under `perfbench/` are loaded read-only, the way
`test_bench_pairs.py` loads `tools/`, and its own client scores every
request.  `conftest.py` empties the store before every test.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from schemewalk import schemes
from tests.test_report_store import _assert_consistent

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as the module `perfbench_<name>`, registered
    before it runs, as `dataclass` looks its module up."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen, pipeline, run, spans = (_load(name) for name in ("gen", "pipeline", "run", "spans"))


@pytest.mark.parametrize("workload, rounds", [("catalog", 2), ("spectra", 1)])
def test_benchmark_traffic_evicts_nothing(workload, rounds, monkeypatch):
    evicted = []
    evict = schemes._ReportStore._evict

    def counted(store):
        before = len(store._entries)
        evict(store)
        evicted.append(before - len(store._entries))

    monkeypatch.setattr(schemes._ReportStore, "_evict", counted)
    stream = gen.RequestStream(workload, 1)
    client = run.Client(pipeline, iter([gen.warmup_round(workload, 1),
                                        *(stream.next_round() for _ in range(rounds))]))
    for _ in range(rounds + 1):
        client.run_round(spans.NullTracer())
    assert client.attempted and client.failed == 0, client.errors
    assert evicted and sum(evicted) == 0
    store = schemes._REPORTS
    assert store._algebras and store._bytes <= schemes._REPORT_STORE_BYTES
    _assert_consistent(store)
