"""Today's answers, pinned: every case of tests/golden/answers.jsonl recomputed.

The file stores each input with the output partreg gave for it (see
make_golden.py, which writes it).  A test fails with the names of the cases
whose output changed: a verdict, a chain, a scalar, a scalar set, or any
byte, exit code or stream of a command-line run.
"""

import functools
import json
import sys

import pytest

from make_golden import GOLDEN_PATH, answer, canonical


@functools.cache
def _header():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.loads(handle.readline())


def _changed(kind):
    changed = []
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            if f'"kind":"{kind}"' not in line:
                continue
            case = json.loads(line)
            output, expected = answer(kind, case["input"]), case["output"]
            if case["input"].get("argparse") and "%d.%d" % sys.version_info[:2] != _header()["python"]:
                # argparse renders help differently across Python versions
                output, expected = dict(output, stdout=None), dict(expected, stdout=None)
            if canonical(output) != canonical(expected):
                changed.append(f"{case['case']}: {canonical(output)} != {canonical(expected)}")
    return changed


@pytest.mark.parametrize("kind", ["decision", "union"])
def test_library_answers_are_unchanged(kind):
    changed = _changed(kind)
    assert not changed, f"{len(changed)} changed:\n" + "\n".join(changed[:10])


def test_command_line_runs_are_unchanged(tmp_path, monkeypatch):
    for name, text in _header()["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    changed = _changed("cli")
    assert not changed, f"{len(changed)} changed:\n" + "\n".join(changed[:10])
