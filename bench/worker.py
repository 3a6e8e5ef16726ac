"""One pass of one workload in a fresh interpreter: set up, time, check, report.

A pass runs the workload's fixed query list once, closed loop, one caller.
Each pass gets its own interpreter so that no query is ever repeated inside
a process: a cross-call cache in partreg cannot win from the benchmark's own
repeats, and peak RSS and import cost belong to the workload.  Every outcome
goes through the correctness gate after the pass, outside the timed region,
with any tracer already removed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
import time

from layertrace import Tracer
from metrics import LAYER_METRICS
from speed import SpeedProbe
import workloads
from workloads import OK, UNDECIDED, WRONG

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "_out")
NEIGHBOUR_SAMPLES = 5  # speed samples on each side of a query that also scale it


def build(workload: str, seed: int, smoke: bool, workdir: str) -> tuple[list, dict]:
    if workload == "ladder":
        return workloads.build_ladder(smoke), {"caps": workloads.ladder_caps(smoke)}
    if workload == "corpus":
        return workloads.build_corpus(seed, smoke)
    if workload == "oracle":
        return workloads.build_oracle(workdir, smoke), {}
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(queries, probe: SpeedProbe, tracer: Tracer | None) -> dict:
    """One timed pass: raw and reference-second times, and the outcomes."""
    marks, raw_latencies, outcomes = [], [], []
    clock = probe.now
    if tracer is not None:
        tracer.install()
    try:
        first = probe.mark()
        start = clock()
        for index, query in enumerate(queries):
            if tracer is not None:
                tracer.begin_query(index, query.name)
            mark = probe.mark()
            began = clock()
            try:
                outcome = query.run()
            except Exception as err:  # a raising query is a failure, not a crash
                outcome = err
            raw_latencies.append(clock() - began)
            marks.append((mark, probe.mark()))
            if tracer is not None:
                tracer.end_query()
            outcomes.append(outcome)
        raw_wall = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    factor = probe.factor(first)
    # a query shorter than the sampling period has at most one sample of its
    # own, so each query is scaled by the speed around it
    latencies = [
        raw * probe.factor(max(first, begin - NEIGHBOUR_SAMPLES), end + NEIGHBOUR_SAMPLES)
        for raw, (begin, end) in zip(raw_latencies, marks)
    ]
    return {"wall": raw_wall * factor, "raw_wall": raw_wall, "factor": factor,
            "latencies": latencies, "outcomes": outcomes}


def judge(queries, outcomes) -> tuple[dict[str, int], list[str]]:
    """Gate every outcome; returns status counts and the mismatches found."""
    counts = {OK: 0, UNDECIDED: 0, "raised": 0}
    wrong = []
    for query, outcome in zip(queries, outcomes):
        if isinstance(outcome, Exception):
            counts["raised"] += 1
            continue
        try:
            status, detail = query.check(outcome)
        except Exception as err:
            status, detail = WRONG, f"check raised {err!r}"
        if status == WRONG:
            wrong.append(f"{query.name}: {detail}")
        else:
            counts[status] += 1
    return counts, wrong


def verdict_mix(queries, outcomes) -> dict[str, int]:
    mix: dict[str, int] = {}
    for query, outcome in zip(queries, outcomes):
        if isinstance(outcome, Exception):
            label = "raised"
        elif isinstance(outcome, tuple):
            label = getattr(outcome[0], "verdict", None) or f"exit {outcome[0]}"
        else:
            label = getattr(outcome, "verdict", None) or getattr(outcome, "kind", "?")
        key = f"{query.procedure}:{label}"
        mix[key] = mix.get(key, 0) + 1
    return dict(sorted(mix.items()))


def layer_metrics(tracer: Tracer, factor: float) -> dict[str, float]:
    """Per-layer values of one traced pass, times in reference seconds.

    The overhead share needs an untraced pass too and is left to the caller.
    """
    values = {}
    for name, _unit, _better, source, _moves in LAYER_METRICS:
        kind = source[0]
        if kind == "overhead":
            continue
        if kind == "colour":
            values[name] = tracer.colour_calls
            continue
        stats = tracer.stats.get(source[1])
        if stats is None:
            raise KeyError(f"{source[1]} is not a traced function")
        if kind == "yes_ratio":
            values[name] = stats.outcomes / stats.calls if stats.calls else 0.0
        else:
            values[name] = {"calls": stats.calls, "items": stats.items, "outcomes": stats.outcomes,
                            "incl": stats.incl_s * factor, "self": stats.self_s * factor}[kind]
    return values


def measure(workload: str, seed: int, trace: bool, smoke: bool, probe: SpeedProbe,
            ready_only: bool = False) -> dict:
    """Set up, then (unless ready_only) run and judge one pass."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        queries, info = build(workload, seed, smoke, workdir)
        report = {
            "ready": time.monotonic(),
            "setup_stolen": probe.stolen,
            "setup_factor": probe.factor(0),
            "info": info,
        }
        if not ready_only:
            tracer = Tracer(clock=probe.now) if trace else None
            report.update(one_pass(queries, probe, tracer, f"{workload}-{seed}"))
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def one_pass(queries, probe: SpeedProbe, tracer: Tracer | None, label: str) -> dict:
    timed = run_pass(queries, probe, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the gate's own work
    outcomes = timed.pop("outcomes")
    probe.stop()
    counts, wrong = judge(queries, outcomes)
    report = {
        **timed,
        "queries": len(queries),
        "counts": counts,
        "wrong": wrong,
        "mix": verdict_mix(queries, outcomes),
        "rss_mb": rss_mb,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, timed["factor"])
        spans_path = os.path.join(OUT_DIR, f"spans-{label}.tsv")
        report["spans_written"] = tracer.write_spans(spans_path)
        report["spans_path"] = os.path.relpath(spans_path, os.path.dirname(HERE))
    return report


def child_main(args, probe: SpeedProbe) -> int:
    report = measure(args.workload, args.seed, bool(args.trace), args.smoke, probe,
                     ready_only=args.ready_only)
    probe.stop()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0
