"""The CI workflow against the benchmark it gates, both read as text."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(*path: str) -> str:
    with open(os.path.join(ROOT, *path), encoding="utf-8") as handle:
        return handle.read()


def test_the_correctness_gate_runs_every_benchmark_workload():
    # a workload added to bench/run.py must also be gated in CI
    [workloads] = [
        ast.literal_eval(node.value)
        for node in ast.parse(_read("bench", "run.py")).body
        if isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["WORKLOADS"]
    ]
    [loop] = re.findall(
        r"for workload in ([\w ]+); do\n\s+python bench/run.py --workload \"\$workload\"",
        _read(".github", "workflows", "tests.yml"),
    )
    assert loop.split() == list(workloads)
