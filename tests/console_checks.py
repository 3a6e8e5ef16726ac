"""Every check of the console-script step: a command, its exit code, an output line.

Run from the repository root against the installed script, or offline:

    python tests/console_checks.py partreg
    PYTHONPATH=src python tests/console_checks.py python -m partreg.cli

The arguments are the command prefix that each check's argv follows.  The
runner writes the input files to a temporary directory, runs every check
there, prints one line per failure, as "expected exit 1, got 0: kpr
schur.txt", and exits 1 if any check failed.  test_console_checks.py runs
the same table in-process through make_golden.run_cli.

Exit codes: 0 YES, 1 NO, 2 usage error, 3 UNDECIDED (search cap exceeded).
The input files are the first line of tests/golden/answers.jsonl plus
EXTRA_FILES.  In the golden header diag12.txt is diag(1, 2) and
diag1to12.txt is diag(1..12).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

from make_golden import GOLDEN_PATH, run_cli


class Check(NamedTuple):
    """One command; stdout and stderr, if given, are whole lines that the stream holds in a row."""

    argv: str
    exit: int
    stdout: str | None = None
    stderr: str | None = None
    limit: float | None = None  # wall seconds


def _diag(k: int) -> str:
    return "".join(" ".join(str(i + 1) if j == i else "0" for j in range(k)) + "\n" for i in range(k))


EXTRA_FILES = {
    "one_two.txt": "1 2\n",
    "minus_four.txt": "-4\n",
    "diag20.txt": _diag(20),
    "ipr_neg.txt": "-2 -1 -4\n",
    "ones12.txt": " ".join(["1"] * 12) + "\n",
    "gap_table.txt": "1 0\n3 1\n",
    "short_table.txt": "1 0\n2 1\n",
    "empty_table.txt": "# no entries\n",
}

CHECKS = [
    Check("--help", 0),
    Check("kpr schur.txt", 0),
    Check("oracle solve schur.txt --colouring mod:3 --bound 50 --json", 0),
    # two colours avoid every monochromatic x + y = z up to S(2) = 4
    Check("oracle falsify schur.txt --colours 2 --bound 4", 1),
    # S(3) = 13: a witness exists up to 13 and not at 14; forward checking takes milliseconds
    Check("oracle falsify schur.txt --colours 3 --bound 13", 1, limit=5),
    Check("oracle falsify schur.txt --colours 3 --bound 14", 0, limit=5),
    Check("oracle sweep schur.txt --colours 3 --bound 14", 0, limit=5),
    # one colour: no solution in [1..1], and 1 + 1 = 2; sweep and witness search agree at N = 2
    Check("oracle sweep schur.txt --colours 1 --bound 1", 1),
    Check("oracle sweep schur.txt --colours 1 --bound 2", 0),
    Check("oracle falsify schur.txt --colours 1 --bound 1", 1),
    Check("oracle falsify schur.txt --colours 1 --bound 2", 0),
    # the sweep lists and files its 253 solutions at N = 23 well within the limit
    Check("oracle sweep schur.txt --colours 2 --bound 23", 0, limit=5),
    # 2^24 colourings exceed the size guard, and so does a one-colour witness listing 10^7 + 1 values
    Check("oracle sweep schur.txt --colours 2 --bound 24", 2),
    Check("oracle falsify schur.txt --colours 1 --bound 10000001", 2),
    # x + 2y = 4z: 1 2 3 coloured 0 1 0 avoids (2, 1; 1) and (2, 3; 2); (4, 4; 3) is monochromatic
    Check("oracle falsify one_two.txt minus_four.txt --colours 2 --bound 3", 1),
    Check("oracle falsify one_two.txt minus_four.txt --colours 2 --bound 12", 0),
    # diag(1..12) splits into one part per row, so a small cap settles the NO
    Check("doubly-ipr diag1to12.txt --cap 200", 1),
    # no zero-sum block: the NO examines all 2^20 - 1 candidate blocks, so one fewer is UNDECIDED
    Check("kpr ones20.txt --cap 1048575", 1),
    Check("kpr ones20.txt --cap 1048574", 3),
    # the zero column is a cluster of its own beside one part under both scalars
    Check("multiply-kpr mk_a.txt mk_b.txt mk_c.txt", 0),
    # x and 2x never share their last non-zero digit in base 3; pieces are found by bisection
    Check("oracle solve diag12.txt neg_identity2.txt --colouring table:lastdigit3.txt --bound 3000",
          1, limit=3),
    # a group's thousands of pieces are found by residue, not one by one
    Check("oracle solve diag12.txt neg_identity2.txt --colouring mod:1000 --bound 2000", 0, limit=3),
    # the 4-AP's first witness, after the look-ahead has dropped every x_4 below 100
    Check("oracle solve vdw4ap.txt --colouring gamma:10 --bound 2000", 0,
          stdout="x_1 = (100, 101, 102, 103, 1)", limit=5),
    # table runs with offset entries: each run's look-ahead waits until the merge reaches it
    Check("oracle solve vdw4ap.txt --colouring table:lastdigit3.txt --bound 3000", 0,
          stdout="x_1 = (1, 4, 7, 10, 3)", limit=5),
    # the non-zero values take 67 candidate blocks and the value 0 takes 15: --cap bounds both
    Check("scalars union.txt --cap 81", 3, stderr="search cap of 81 candidate blocks exceeded"),
    Check("scalars union.txt --cap 82", 0, stdout="feasible scalar values: -1, 1, 2, 3"),
    Check("scalars union.txt --json", 0,
          stdout='  "values": [\n    "-1",\n    "1",\n    "2",\n    "3"\n  ],'),
    # empty in 7 blocks, part by part; one search over (diag(1..20) | 0) would exceed the default cap
    Check("scalars diag20.txt", 0, stdout="feasible scalar values: none", limit=5),
    # every scaled branch gathers a row with no negative entry, so signs alone refute it
    Check("ipr ipr_neg.txt", 1),
    # (1 1 -1) beside c_2 (1 2): its one solve pins c_2
    Check("doubly-kpr schur.txt one_two.txt", 0, stdout="c_2 = 1/3"),
    # signs refute all 2^24 - 1 root blocks without a scan; the NO needs exactly that cap
    Check("doubly-kpr ones12.txt ones12.txt --cap 16777215", 1, limit=5),
    Check("doubly-kpr ones12.txt ones12.txt --cap 16777214", 3, limit=5),
    # usage errors: a command's own parser reports its errors, the full tree unrecognised arguments
    Check("kpr schur.txt extra", 2, stderr="partreg: error: unrecognized arguments: extra"),
    Check("oracle sweep schur.txt --colours 2 --bound 5 --bogus", 2,
          stderr="partreg: error: unrecognized arguments: --bogus"),
    Check("oracle solve schur.txt --colouring mod:3", 2,
          stderr="partreg oracle solve: error: the following arguments are required: --bound"),
    Check("oracle", 2, stderr="partreg oracle: error: the following arguments are required: oracle_command"),
    # nargs="+" takes only the first run of positionals, so a file after the options is unrecognised
    Check("oracle solve schur.txt --colouring mod:3 --bound 50 schur.txt", 2,
          stderr="partreg: error: unrecognized arguments: schur.txt"),
    Check("kpr schur.txt --cap x", 2, stderr="partreg kpr: error: argument --cap: invalid int value: 'x'"),
    # an oracle subcommand's own parser reports its errors and prints its help
    Check("oracle falsify schur.txt --colours x --bound 5", 2,
          stderr="partreg oracle falsify: error: argument --colours: invalid int value: 'x'"),
    Check("oracle solve --help", 0, stdout="  --colouring COLOURING"),
    # an input error names its file
    Check("oracle solve schur.txt --colouring table:gap_table.txt --bound 5", 2,
          stderr="error: gap_table.txt: colour table line 2: expected integer 2"),
    Check("oracle solve schur.txt --colouring table:short_table.txt --bound 5", 2,
          stderr="error: short_table.txt: table colouring undefined at 3"),
    Check("oracle solve schur.txt --colouring table:empty_table.txt --bound 4", 2,
          stderr="error: empty_table.txt: empty colour table"),
]


def _run(argv: list[str], prefix: list[str] | None, env: dict, limit: float | None) -> dict:
    """Exit code and streams of one command, in-process when prefix is None."""
    if prefix is None:
        return run_cli(argv)
    done = subprocess.run([*prefix, *argv], capture_output=True, text=True, env=env, timeout=limit)
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


def failures(checks: list[Check], prefix: list[str] | None = None) -> list[str]:
    """One message per unmet expectation, each ending in its check's command."""
    messages = []
    cwd = os.getcwd()
    # the commands run in the input directory, so a relative PYTHONPATH is resolved here
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, env["PYTHONPATH"].split(os.pathsep)))
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        files = {**json.loads(handle.readline())["files"], **EXTRA_FILES}
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        os.chdir(workdir)
        try:
            for check in checks:
                start = time.perf_counter()
                try:
                    got = _run(check.argv.split(), prefix, env, check.limit)
                except subprocess.TimeoutExpired:
                    messages.append(f"killed at the {check.limit} s wall limit: {check.argv}")
                    continue
                took = time.perf_counter() - start
                if got["exit"] != check.exit:
                    messages.append(f"expected exit {check.exit}, got {got['exit']}: {check.argv}")
                if check.limit is not None and took > check.limit:
                    messages.append(f"took {took:.3f} s, over the {check.limit} s wall limit: {check.argv}")
                for stream in ("stdout", "stderr"):
                    line = getattr(check, stream)
                    if line is not None and f"\n{line}\n" not in f"\n{got[stream]}\n":
                        messages.append(f"expected {stream} line {line!r}: {check.argv}")
        finally:
            os.chdir(cwd)
    return messages


def main(prefix: list[str]) -> int:
    if not prefix:
        print("usage: python tests/console_checks.py COMMAND [ARG ...]", file=sys.stderr)
        return 2
    messages = failures(CHECKS, prefix)
    for message in messages:
        print(message, file=sys.stderr)
    if messages:
        return 1
    print(f"{len(CHECKS)} console checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
