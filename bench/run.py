#!/usr/bin/env python3
"""partreg benchmark: one workload per invocation, checked and timed.

    python3 bench/run.py --workload {ladder,corpus,oracle} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the repository root.  Passes over the workload's query list run
one at a time, each in a fresh interpreter started here, until `--seconds`
are spent; set-up (importing partreg, building the inputs, writing the
matrix files) is timed from each interpreter's start to its first query,
with interpreters that only set up added until there are five samples.  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones.  The exit code
is 0 only when every outcome passed the correctness gate.  `--smoke` runs a
reduced workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("ladder", "corpus", "oracle")
SETUP_SAMPLES = 5  # at least this many set-up timings; their median is setup_s
CHILD_DEADLINE_S = 170  # the whole run must end within 180 s


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced workload for tests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ready-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown".

    Read from ROOT/.git directly: `git rev-parse` would search the parent
    directories and could report some enclosing repository's commit.
    """
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args: argparse.Namespace, trace: bool, ready_only: bool, deadline: float) -> tuple[float, dict]:
    """Run one child interpreter; returns (its start time, its report)."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(int(trace))]
    if args.smoke:
        command.append("--smoke")
    if ready_only:
        command.append("--ready-only")
    started = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("benchmark child exceeded the run's deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed with exit code {proc.returncode}:\n{err[-2000:]}")
    return started, json.loads(out.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it, and its label."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def setup_seconds(started: float, report: dict) -> float:
    """Interpreter start to first query, in reference seconds."""
    return (report["ready"] - started - report["setup_stolen"]) * report["setup_factor"]


def collect(args: argparse.Namespace) -> tuple[list[dict], list[dict], list[float]]:
    """Passes until the run's seconds are spent: (untraced, traced, setup samples).

    With tracing on, untraced and traced passes alternate and end even.  The
    set-up samples are the untraced passes' own, topped up with interpreters
    that only set up.
    """
    deadline = time.monotonic() + CHILD_DEADLINE_S
    untraced: list[dict] = []
    traced: list[dict] = []
    setup: list[float] = []
    start = time.monotonic()
    while True:
        trace = bool(args.trace) and len(traced) < len(untraced)
        began = time.monotonic()
        started, report = spawn(args, trace, False, deadline)
        (traced if trace else untraced).append(report)
        if not trace:
            setup.append(setup_seconds(started, report))
        if report["wrong"]:
            break
        now = time.monotonic()
        balanced = not args.trace or len(traced) == len(untraced)
        if balanced and (now - start >= args.seconds or now + 2 * (now - began) > deadline):
            break
    while not args.trace and len(setup) < SETUP_SAMPLES:
        started, report = spawn(args, False, True, deadline)
        setup.append(setup_seconds(started, report))
    return untraced, traced, setup


def summarise(args: argparse.Namespace, untraced: list[dict], traced: list[dict],
              setup: list[float]) -> tuple[dict, dict]:
    """(metrics, facts about the run) from the collected passes."""
    passes = untraced + traced
    counts = {key: sum(p["counts"][key] for p in passes) for key in passes[0]["counts"]}
    attempted = sum(counts.values()) + sum(len(p["wrong"]) for p in passes)
    facts = {
        "attempted": attempted,
        "raised": counts["raised"],
        "undecided": counts["undecided"],
        "wrong": [line for p in passes for line in p["wrong"]],
        "mix": passes[0]["mix"],
        "info": passes[0]["info"],
        "queries": passes[0]["queries"],
    }
    walls = [p["wall"] for p in untraced]
    if not args.trace:
        per_query = [statistics.median(samples) * 1e3 for samples in zip(*(p["latencies"] for p in untraced))]
        tail_ms, facts["tail_label"] = tail(per_query)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "query_p50_ms": statistics.median(per_query),
            "query_tail_ms": tail_ms,
            "decided_frac": counts["ok"] / attempted,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
        }
        return metrics, facts
    if not traced:  # a wrong answer ended the run before any traced pass
        return {}, facts
    layers = [p["layers"] for p in traced]
    facts["counts_repeat"] = all(
        run[name] == layers[0][name] for run in layers for name, unit, *_ in LAYER_METRICS
        if unit == "count"
    )
    facts["spans"] = f"{traced[-1]['spans_written']} written to {traced[-1]['spans_path']}"
    metrics = {}
    for name, unit, _better, source, _moves in LAYER_METRICS:
        if source[0] == "overhead":
            untraced_wall = statistics.median(walls)
            metrics[name] = (statistics.median(p["wall"] for p in traced) - untraced_wall) / untraced_wall
        elif unit == "count":
            metrics[name] = layers[0][name]  # counts repeat exactly from pass to pass
        else:
            metrics[name] = statistics.median(run[name] for run in layers)
    return metrics, facts


def parent_main(args: argparse.Namespace) -> int:
    untraced, traced, setup = collect(args)
    metrics, facts = summarise(args, untraced, traced, setup)
    units = {name: unit for name, unit, _ in END_TO_END}
    units.update({name: unit for name, unit, *_ in LAYER_METRICS})
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "ladder_caps": facts["info"].get("caps") if args.workload == "ladder" else None,
        "seed": args.seed,
        "seconds": args.seconds,
    }
    print(f"# partreg benchmark: workload={args.workload} trace={args.trace}")
    print(f"# env {json.dumps(env)}")
    print(f"# inputs {json.dumps(facts['info'])}")
    print(f"# passes {len(untraced)} untraced, {len(traced)} traced, one interpreter each; "
          f"queries per pass {facts['queries']}; attempted {facts['attempted']}")
    print(f"# verdict mix (first pass) {json.dumps(facts['mix'])}")
    failed = facts["raised"] + facts["undecided"]
    print(f"# failed_frac {failed / facts['attempted']!r} (UNDECIDED {facts['undecided']}, "
          f"raised {facts['raised']}, of {facts['attempted']} attempted)")
    if traced:
        print(f"# spans: {facts['spans']}")
        print(f"# per-layer counts repeat across traced passes: {facts['counts_repeat']}")
    elif not args.trace:
        print(f"# setup samples (s) {json.dumps(setup)}")
        print(f"# untraced passes: raw wall (s) {json.dumps([p['raw_wall'] for p in untraced])}, "
              f"speed factor {json.dumps([p['factor'] for p in untraced])}")
        print(f"# query_tail_ms is the {facts['tail_label']} per-query medians")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for line in facts["wrong"][:20]:
        print(f"# WRONG {line}")
    correct = not facts["wrong"]
    print(json.dumps({
        "correct": correct,
        "attempted": facts["attempted"],
        "failed": facts["raised"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "partreg", "__init__.py")):
        sys.stderr.write(f"error: no partreg sources under {SRC}; run from a full checkout\n")
        return 2
    if args.child:
        from speed import SpeedProbe

        probe = SpeedProbe()
        probe.start()  # first, so that set-up is sampled too
        sys.path.insert(0, SRC)
        import worker

        return worker.child_main(args, probe)
    try:
        return parent_main(args)
    except RuntimeError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
