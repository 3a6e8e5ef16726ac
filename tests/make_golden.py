"""Write tests/golden/answers.jsonl: today's answers, one canonical JSON line each.

Run from the repository root:  python tests/make_golden.py

The first line holds the files that the command-line cases read.  Every
other line is one case: its name, its kind, its input and the output that
partreg gave for it when the file was written.  test_golden.py reads the
inputs back and recomputes each output with `answer`, so a change of any
verdict, chain, scalar or CLI byte names the case it broke.  Kinds:

- "decision": a decision procedure on matrices (rows of integers and "p/q"),
  at a cap or the default.  The output is the decision's JSON document and,
  for a YES, the first-entries matrix of its certificate.
- "union": scalar_union_over_partitions of the doubly-IPR template of a
  matrix, or its cap.
- "cli": exit code, stdout and stderr of cli.main(argv), run in a directory
  that holds the header's files, with COLUMNS=80.  Help text is argparse's
  own rendering, so a case marked "argparse" compares its stdout only on
  the Python minor version that wrote the file.

Regenerating rewrites every output from the code as it stands, so a change
that regenerates the file lists each changed document and why.  The corpus
and the oracle commands come from bench/workloads.py, which only this
script imports; the test reads them from the file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import partreg as pr  # noqa: E402
from partreg import cli  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden", "answers.jsonl")


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def rows_of(matrix) -> list[list[int | str]]:
    # integers as JSON numbers, other rationals as "p/q"
    return [[int(x) if x.denominator == 1 else str(x) for x in map(Fraction, row)] for row in matrix]


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def answer(kind: str, given: dict) -> dict:
    """The output partreg gives for one case's input; "cli" runs in the cwd."""
    if kind == "cli":
        return run_cli(given["argv"])
    matrices = [pr.QMatrix.of(rows) for rows in given["matrices"]]
    cap = {} if given["cap"] is None else {"cap": given["cap"]}
    if kind == "union":
        template = pr.doubly_ipr_template(*matrices)
        try:
            return pr.scalar_union_over_partitions(template, **cap).to_json_dict()
        except pr.PartitionCapExceeded as exceeded:
            return {"cap_exceeded": exceeded.cap}
    procedure = given["procedure"]
    if procedure == "multiply_kpr":
        decision = pr.multiply_kpr(matrices, **cap)
    else:
        decision = getattr(pr, procedure)(*matrices, **cap)
    first_entries = None
    if decision.is_yes:
        fe = pr.first_entries_from_certificate(decision.assembled, decision.certificate)
        first_entries = [[str(x) for x in row] for row in fe.matrix.entries]
    return {"decision": decision.to_json_dict(), "first_entries": first_entries}


# ------------------------------------------------------------------- inputs


def decision_case(name, procedure, matrices, cap=None) -> tuple:
    return name, "decision", {"procedure": procedure, "matrices": [rows_of(m) for m in matrices], "cap": cap}


def corpus_cases() -> list[tuple]:
    from workloads import generate_corpus

    return [
        decision_case(f"corpus.seed{seed}[{i}].{entry.procedure}", entry.procedure, entry.parts)
        for seed in (0, 1)
        for i, entry in enumerate(generate_corpus(seed))
    ]


def direct_sum_cases() -> list[tuple]:
    """Seeded direct sums of two random 1-2 x 1-4 blocks, rows mixed (as in test_split)."""
    from test_split import direct_sum, mix_rows, random_block

    rng = random.Random(20)
    cases = []
    for n in range(300):
        first = random_block(rng, rng.randint(1, 2), rng.randint(1, 4))
        second = random_block(rng, rng.randint(1, 2), rng.randint(1, 4))
        plain = direct_sum(first, second)
        B = direct_sum(random_block(rng, len(first), 1), random_block(rng, len(second), 1))
        mixed = mix_rows(rng, [a + b for a, b in zip(plain, B)])
        M = [row[:-2] for row in mixed]
        tag = f"split[{n}]"
        cases.append(decision_case(f"{tag}.is_kpr", "is_kpr", [M]))
        cases.append(decision_case(f"{tag}.doubly_ipr", "doubly_ipr", [plain]))
        cases.append(decision_case(f"{tag}.is_ipr", "is_ipr", [plain]))
        cases.append(decision_case(f"{tag}.doubly_kpr", "doubly_kpr", [M, [row[-2:] for row in mixed]]))
        triple = [M, [row[-2:-1] for row in mixed], [row[-1:] for row in mixed]]
        cases.append(decision_case(f"{tag}.multiply_kpr", "multiply_kpr", triple))
        cases.append((f"{tag}.union", "union", {"matrices": [rows_of(plain)], "cap": None}))
    return cases


def diagonal_cases() -> list[tuple]:
    def diag(k):
        return [[i + 1 if i == j else 0 for j in range(k)] for i in range(k)]

    return [decision_case(f"diag1..{k}.doubly_ipr.cap200", "doubly_ipr", [diag(k)], 200) for k in range(1, 13)]


def cli_files() -> dict[str, str]:
    from workloads import ORACLE_FILES

    schur_certificate = pr.is_kpr(pr.QMatrix.of([[1, 1, -1]])).certificate.to_json_dict()

    def last_digit(x, base=3):
        return x % base or last_digit(x // base)

    return {
        **ORACLE_FILES,  # diag12.txt is diag(1, 2)
        "diag1to12.txt": "".join(" ".join(str(i + 1) if j == i else "0" for j in range(12)) + "\n"
                              for i in range(12)),
        "ones20.txt": " ".join(["1"] * 20) + "\n",
        "mk_a.txt": "0 1 1\n0 1 0\n",
        "mk_b.txt": "-2\n1\n",
        "mk_c.txt": "-2\n-1\n",
        "lastdigit3.txt": "".join(f"{i} {last_digit(i)}\n" for i in range(1, 3001)),
        "union.txt": "1 2 -3 1\n2 -1 1 1\n",
        "two_by_three.txt": "4 -4 2\n5 -5 3\n",
        "ones2.txt": "1 1\n",
        "one.txt": "1\n",
        "minus_one.txt": "-1\n",
        "row111.txt": "1 1 1\n",
        "row125.txt": "1 2 5\n",
        "vdw_image.txt": "1 0\n1 1\n1 2\n1 3\n",
        "cyclic3.txt": "1 -1 0\n0 1 -1\n-1 0 1\n",
        "balanced.txt": "1 -1\n",
        "bad.txt": "1 2\n3 x\n",
        "cert_schur.json": json.dumps(schur_certificate),
        "cert_wrong.json": json.dumps({"partition": [[1], [2, 3]], "witnesses": [[{"column": 1, "coeff": "1"}]]}),
        "cert_malformed.json": json.dumps({"partition": 5}),
    }


def cli_cases() -> list[tuple]:
    from workloads import oracle_commands

    cases = [(f"cli.oracle-workload.{name}", "cli", {"argv": ["oracle", *argv, "--json"]})
             for name, argv, _, _ in oracle_commands()]

    # frozen when this file was first written; tests/console_checks.py holds the
    # current console checks, where the scalars cap boundary is 83/84, not 139
    table = ["--colouring", "table:lastdigit3.txt", "--bound", "3000"]
    ci = [
        ["kpr", "schur.txt"],
        ["oracle", "solve", "schur.txt", "--colouring", "mod:3", "--bound", "50", "--json"],
        ["oracle", "falsify", "schur.txt", "--colours", "2", "--bound", "4"],
        ["doubly-ipr", "diag1to12.txt", "--cap", "200"],
        ["kpr", "ones20.txt", "--cap", "1048575"],
        ["kpr", "ones20.txt", "--cap", "1048574"],
        ["multiply-kpr", "mk_a.txt", "mk_b.txt", "mk_c.txt"],
        ["oracle", "solve", "diag12.txt", "neg_identity2.txt", *table],
        ["oracle", "solve", "diag12.txt", "neg_identity2.txt", "--colouring", "mod:1000", "--bound", "2000"],
        ["scalars", "union.txt", "--cap", "139"],
        ["scalars", "union.txt", "--json"],
    ]
    cases.append(("cli.ci.help", "cli", {"argv": ["--help"], "argparse": True}))
    cases += [(f"cli.ci.{' '.join(argv)}", "cli", {"argv": argv}) for argv in ci]

    # every subcommand with and without --json, on each of its exit paths
    paths = [
        ["kpr", "schur.txt"], ["kpr", "ones2.txt"], ["kpr", "ones20.txt", "--cap", "1000"],
        ["ipr", "vdw_image.txt"], ["ipr", "cyclic3.txt"], ["ipr", "vdw_image.txt", "--cap", "1"],
        ["doubly-ipr", "two_by_three.txt"], ["doubly-ipr", "diag12.txt"],
        ["doubly-ipr", "union.txt", "--cap", "1"],
        ["doubly-kpr", "ones2.txt", "minus_one.txt"], ["doubly-kpr", "ones2.txt", "one.txt"],
        ["doubly-kpr", "ones2.txt", "one.txt", "--cap", "1"],
        ["multiply-kpr", "mk_a.txt", "mk_b.txt", "mk_c.txt"], ["multiply-kpr", "row111.txt", "row125.txt"],
        ["multiply-kpr", "row111.txt", "row125.txt", "--cap", "5"],
        ["certify", "schur.txt", "cert_schur.json"], ["certify", "schur.txt", "cert_wrong.json"],
        ["first-entries", "schur.txt", "cert_schur.json"], ["first-entries", "schur.txt", "cert_wrong.json"],
        ["scalars", "union.txt"], ["scalars", "diag12.txt"], ["scalars", "balanced.txt"],
        ["scalars", "two_by_three.txt"], ["scalars", "union.txt", "--cap", "60"],
        ["oracle", "solve", "schur.txt", "--colouring", "mod:3", "--bound", "50"],
        ["oracle", "solve", "diag12.txt", "neg_identity2.txt", "--colouring", "startparity:2", "--bound", "64"],
        ["oracle", "sweep", "schur.txt", "--colours", "2", "--bound", "5"],
        ["oracle", "sweep", "schur.txt", "--colours", "2", "--bound", "4"],
        ["oracle", "falsify", "schur.txt", "--colours", "2", "--bound", "4"],
        ["oracle", "falsify", "schur.txt", "--colours", "2", "--bound", "5"],
        ["kpr", "missing.txt"], ["kpr", "bad.txt"], ["kpr", "schur.txt", "--cap", "-1"],
        ["scalars", "union.txt", "--cap", "-1"], ["certify", "schur.txt", "cert_malformed.json"],
        ["oracle", "sweep", "schur.txt", "--colours", "4", "--bound", "40"],
    ]
    for argv in paths:
        for extra in ([], ["--json"]):
            cases.append((f"cli.paths.{' '.join(argv + extra)}", "cli", {"argv": argv + extra}))
    return cases


def main() -> None:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's width
    files = cli_files()
    cases = corpus_cases() + direct_sum_cases() + diagonal_cases() + cli_cases()
    header = {"files": files, "python": "%d.%d" % sys.version_info[:2]}
    lines = [canonical(header)]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        os.chdir(workdir)
        try:
            for name, kind, given in cases:
                lines.append(canonical({"case": name, "kind": kind, "input": given,
                                        "output": answer(kind, given)}))
        finally:
            os.chdir(cwd)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"{len(cases)} cases written to {os.path.relpath(GOLDEN_PATH, ROOT)}")


if __name__ == "__main__":
    main()
