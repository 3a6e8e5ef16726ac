"""The console-script checks, run in-process, and the runner's own failure messages."""

import os
import sys

import partreg
from console_checks import CHECKS, Check, failures


def test_every_console_check_passes_in_process():
    messages = failures(CHECKS)
    assert not messages, "\n".join(messages)


def test_a_wrong_exit_code_names_the_command_and_both_codes():
    assert failures([Check("kpr schur.txt", 1)]) == ["expected exit 1, got 0: kpr schur.txt"]


def test_a_wrong_line_names_the_line():
    check = Check("scalars union.txt --cap 84", 0, stdout="feasible scalar values: none")
    assert failures([check]) == [
        "expected stdout line 'feasible scalar values: none': scalars union.txt --cap 84"
    ]


def test_a_wall_limit_names_the_command():
    [message] = failures([Check("kpr schur.txt", 0, limit=1e-9)])
    assert message.startswith("took ") and message.endswith(" s, over the 1e-09 s wall limit: kpr schur.txt")


def test_checks_run_under_a_command_prefix(monkeypatch):
    # the mode that runs the table against an installed console script
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(partreg.__file__)))
    checks = [
        Check("scalars union.txt --cap 81", 3, stderr="search cap of 81 candidate blocks exceeded"),
        Check("kpr schur.txt", 1),
    ]
    prefix = [sys.executable, "-m", "partreg.cli"]
    assert failures(checks, prefix) == ["expected exit 1, got 0: kpr schur.txt"]
