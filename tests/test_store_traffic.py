"""The benchmark's own traffic, served in process: every workload's
warm-up round and first round pass the benchmark's reference checks, so
every attribute the benchmark reads is still there, and that traffic never
fills the report store: nothing is evicted, and every held record stays
within the charge it was given when the store took it.  Every scheme
that traffic builds or sends comes back from its file with its own bytes.

The benchmark's modules under `perfbench/` are loaded read-only, the way
`test_bench_pairs.py` loads `tools/`, and its own client scores every
request.  `conftest.py` empties the store before every test.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from schemewalk import _store, serialize
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


@pytest.mark.parametrize("workload", ["spectra", "catalog", "quantum"])
def test_every_benchmark_workload_is_served_in_process(workload):
    client = run.Client(pipeline, iter([gen.warmup_round(workload, 1),
                                        gen.RequestStream(workload, 1).next_round()]))
    for _ in range(2):
        client.run_round(spans.NullTracer())
    assert client.attempted and client.failed == 0, client.errors


@pytest.mark.parametrize("workload, rounds", [("catalog", 2), ("spectra", 1)])
def test_benchmark_traffic_evicts_nothing(workload, rounds, monkeypatch):
    evicted = []
    evict = _store.Store._evict

    def counted(store):
        before = len(store._entries)
        evict(store)
        evicted.append(before - len(store._entries))

    monkeypatch.setattr(_store.Store, "_evict", counted)
    stream = gen.RequestStream(workload, 1)
    client = run.Client(pipeline, iter([gen.warmup_round(workload, 1),
                                        *(stream.next_round() for _ in range(rounds))]))
    for _ in range(rounds + 1):
        client.run_round(spans.NullTracer())
    assert client.attempted and client.failed == 0, client.errors
    assert evicted and sum(evicted) == 0
    store = _store.STORE
    assert store._algebras and store._bytes <= _store.BUDGET_BYTES
    _assert_consistent(store)


def _benchmark_schemes():
    """Every scheme the spectra and catalog workloads build or send."""
    tracer = spans.NullTracer()
    named = [gen._spectra(*slot) for slot in gen.SPECTRA_SLOTS]
    named += gen.warmup_round("spectra", 1)
    named += [gen._named(*slot) for slot in gen.CATALOG_NAMED]
    out = [pipeline._build(tracer, r.payload["family"], r.payload["params"]) for r in named]
    sent = gen._catalog_matrices(np.random.default_rng(1))
    return out + [serialize.loads(r.payload["json"], "scheme", validate=False) for r in sent]


def test_every_benchmark_scheme_round_trips_through_its_file():
    """Bit-packed or not, the file gives back the scheme's own bytes."""
    cases = _benchmark_schemes()
    assert max(s.n for s in cases) == 357 and {s.n ** 2 % 8 for s in cases} != {0}
    codes = set()
    for s in cases:
        text = json.dumps(serialize.to_jsonable("scheme", s))
        codes.add(json.loads(text)["relation"]["dtype"])
        back = serialize.loads(text, "scheme", validate=False)
        assert (back.n, back.d) == (s.n, s.d)
        assert back.relation.dtype == s.relation.dtype
        assert back.relation.tobytes() == s.relation.tobytes()
    assert codes == {"b1", "b2", "b4", "u1"}
