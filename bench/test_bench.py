"""Tests of the benchmark itself: smoke runs, metric names, the correctness gate."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import partreg  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, LAYER_METRICS  # noqa: E402
from speed import SpeedProbe  # noqa: E402

PINNED_SEED = 0


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout: str) -> dict[str, str]:
    """name -> unit from the 'name = value unit' lines."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[1] == "=":
            found[parts[0]] = parts[3]
    return found


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == ["ladder", "corpus", "oracle"]


@pytest.mark.parametrize("workload", ["ladder", "corpus", "oracle"])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = run_bench("--workload", workload, "--seed", str(PINNED_SEED), "--seconds", "0.1",
                       "--trace", "0", "--smoke")
    assert result.returncode == 0, result.stderr
    assert printed_metrics(result.stdout) == {name: unit for name, unit, _ in END_TO_END}
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {n: u for n, u, _ in END_TO_END}


def test_traced_smoke_run_prints_every_layer_metric():
    result = run_bench("--workload", "oracle", "--seed", "0", "--seconds", "0.1", "--trace", "1", "--smoke")
    assert result.returncode == 0, result.stderr
    assert printed_metrics(result.stdout) == {name: unit for name, unit, *_ in LAYER_METRICS}
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["metrics"]["cli.main_calls"]["value"] == len(workloads.oracle_commands(smoke=True))
    assert last["metrics"]["oracle.colour_calls"]["value"] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    result = run_bench("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_corpus_is_deterministic_distinct_and_pinned():
    corpus = workloads.generate_corpus(PINNED_SEED)
    assert workloads.corpus_digest(corpus) == workloads.corpus_digest(workloads.generate_corpus(PINNED_SEED))
    assert len({entry.key for entry in corpus}) == len(corpus)
    assert len(corpus) == sum(count for *_, count in workloads.CORPUS_STRATA)
    assert workloads.pinned_verdicts(PINNED_SEED, corpus) is not None


def test_canonical_key_identifies_symmetric_queries():
    def key(procedure, rows):
        return workloads.canonical_key(procedure, ([[partreg.rational(x) for x in r] for r in rows],))

    a = [[1, 2, -3], [0, 1, 1]]
    permuted = [[0, 1, 1], [1, -3, 2]]  # rows swapped, last two columns swapped
    scaled = [[-2, -4, 6], [0, 3, 3]]  # rows scaled by -2 and 3
    assert key("is_kpr", a) == key("is_kpr", permuted) == key("is_kpr", scaled)
    assert key("is_ipr", a) == key("is_ipr", permuted)
    assert key("is_ipr", a) != key("is_ipr", scaled)  # per-row scaling is no symmetry of IPR


def gate(queries) -> list[str]:
    timed = worker.run_pass(queries, SpeedProbe(), None)
    _, wrong = worker.judge(queries, timed["outcomes"])
    return wrong


def flip_first(monkeypatch, procedure: str, from_verdict: str):
    """Wrap partreg.<procedure> so that its first `from_verdict` answer is flipped."""
    original = getattr(partreg, procedure)
    state = {"flipped": False}

    def tampered(*args, **kwargs):
        decision = original(*args, **kwargs)
        if state["flipped"] or decision.verdict != from_verdict:
            return decision
        state["flipped"] = True
        if from_verdict == partreg.YES:
            return partreg.Decision(partreg.NO)
        # a forged YES: the trivial one-block partition, which no NO instance satisfies
        columns = len(decision_matrix(args).entries[0])
        forged = partreg.ColumnsConditionCertificate(partreg.OrderedPartition.of([range(columns)]), ())
        return partreg.Decision(partreg.YES, (), forged, decision_matrix(args))

    monkeypatch.setattr(partreg, procedure, tampered)
    return state


def decision_matrix(args):
    return args[0][0] if isinstance(args[0], tuple) else args[0]


def test_untampered_smoke_workloads_pass_the_gate(tmp_path):
    assert gate(workloads.build_ladder(smoke=True)) == []
    assert gate(workloads.build_corpus(PINNED_SEED, smoke=True)[0]) == []
    assert gate(workloads.build_oracle(str(tmp_path), smoke=True)) == []


@pytest.mark.parametrize("from_verdict", ["YES", "NO"])
def test_flipped_corpus_verdict_fails_the_gate(monkeypatch, from_verdict):
    queries, info = workloads.build_corpus(PINNED_SEED, smoke=True)
    assert info["pinned"]
    state = flip_first(monkeypatch, "is_kpr", from_verdict)
    wrong = gate(queries)
    assert state["flipped"]
    assert len(wrong) == 1 and "is_kpr" in wrong[0]


def test_flipped_ladder_verdict_fails_the_gate(monkeypatch):
    queries = workloads.build_ladder(smoke=True)
    state = flip_first(monkeypatch, "is_kpr", partreg.NO)
    wrong = gate(queries)
    assert state["flipped"]
    assert len(wrong) == 1 and wrong[0].startswith("is_kpr.ones1x5")


def test_tail_is_labelled():
    assert run.tail(list(range(5))) == (4, "max of 5")
    assert run.tail([float(i) for i in range(100)]) == (89.0, "p90.0 of 100")
