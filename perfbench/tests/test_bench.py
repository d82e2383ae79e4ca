"""Tests of the benchmark itself: inputs, scoring, metrics, failure modes."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import pipeline
import run
import spans

BENCH = Path(__file__).resolve().parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _keys(workload, seed, rounds=2):
    stream = gen.RequestStream(workload, seed)
    return [r.key for _ in range(rounds) for r in stream.next_round()]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _keys(workload, 7) == _keys(workload, 7)
    assert _keys(workload, 7) != _keys(workload, 8)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_round_mix_does_not_depend_on_seed(workload):
    def mix(seed):
        return sorted((r.kind, r.expect, str(r.payload.get("family") or r.payload.get("op")))
                      for r in gen.RequestStream(workload, seed).next_round())
    assert mix(1) == mix(2)


def _client(requests):
    return run.Client(pipeline, iter([requests]))


def test_corrupted_matrices_are_rejected_and_scored_correct():
    corrupted = [r for r in gen.RequestStream("catalog", 3).next_round()
                 if r.expect == "reject:verify"]
    assert len(corrupted) == 3
    client = _client(corrupted)
    client.run_round(spans.NullTracer())
    assert (client.attempted, client.failed) == (3, 0), client.errors


def test_corrupted_matrix_sent_as_valid_is_scored_failed():
    rng = np.random.default_rng(0)
    bad = gen._matrix(gen.johnson_relation(6, 2), 2, gen.johnson_ref(6, 2), rng,
                      corruption="symmetric")
    client = _client([bad])
    client.run_round(spans.NullTracer())
    assert client.failed == 1


def test_wrong_reference_is_scored_failed():
    rng = np.random.default_rng(0)
    ref = dict(gen.johnson_ref(6, 2), mults=[1, 5, 10])   # true multiplicities 1, 5, 9
    client = _client([gen._matrix(gen.johnson_relation(6, 2), 2, ref, rng)])
    client.run_round(spans.NullTracer())
    assert client.failed == 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_warmup_requests_pass_their_checks(workload):
    client = _client(gen.warmup_round(workload, 1))
    client.run_round(spans.NullTracer())
    assert client.failed == 0, client.errors


def test_closed_forms_match_generated_matrices():
    rel = gen.grassmann2_relation(4, 2)
    ref = gen.grassmann_ref(2, 4, 2)
    assert rel.shape == (ref["n"], ref["n"])
    assert sorted(np.bincount(rel[0]).tolist()) == ref["vals"]
    elements, mul, inv = gen.symmetric_elements(5)
    rel = gen._group_relation(elements, mul, inv, by_class=True)
    assert sorted(np.bincount(rel[0]).tolist()) == gen.conjugacy_ref("s5")["vals"]


def _main(capsys, *args):
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_metric_names_and_units_follow_the_contract(capsys):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    untraced = _main(capsys, "--workload", "catalog", "--seed", "1", "--seconds", "0.1",
                     "--trace", "0")
    traced = _main(capsys, "--workload", "catalog", "--seed", "1", "--seconds", "0.1",
                   "--trace", "1")
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        for m in spec[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m["name"]


def test_traced_counts_repeat_across_runs_and_seeds(capsys):
    def counts(seed):
        result = _main(capsys, "--workload", "catalog", "--seed", str(seed),
                       "--seconds", "0.1", "--trace", "1")
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] in ("count", "bytes")}
    first = counts(1)
    assert first["schemes.verify_rejected"] == 3
    assert first["spectral.decompose_rejected"] == 2
    assert counts(1) == first == counts(2)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
