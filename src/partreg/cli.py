"""Command-line front end.

Matrix files are plain text: one row per line, whitespace-separated entries,
each an optionally-signed integer or p/q with positive q; blank lines and
lines starting with '#' are ignored.  Exit codes: 0 the property holds
(YES / verified / solution found), 1 it fails (NO / falsified / none found),
2 input or usage error, 3 undecided because the search examined as many
candidate blocks as --cap allows.  Each subcommand is declared once, in
build_parser, where its subparser records the handler that answers it.
All JSON output is canonical: fixed key order, rationals as lowest-term
strings, byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from .columns import (
    ColumnsConditionCertificate,
    DEFAULT_PARTITION_CAP,
    PartitionCapExceeded,
    RATIONAL_TOKEN,
    first_entries_from_certificate,
    verify_certificate,
)
from .decisions import (
    Decision,
    UNDECIDED,
    YES,
    doubly_ipr,
    doubly_ipr_template,
    doubly_kpr,
    is_ipr,
    is_kpr,
    multiply_kpr,
)
from .feasibility import scalar_union_over_partitions
from .linalg import QMatrix
from .oracle import (
    Colouring,
    find_monochromatic_solution,
    search_witness_colouring,
    verify_all_colourings,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


class MatrixParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_matrix(text: str) -> QMatrix:
    """Exact matrix from the text format; malformed input carries a line number."""
    rows: list[list[Fraction]] = []
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries: list[Fraction] = []
        for token in line.split():
            if not RATIONAL_TOKEN.fullmatch(token):
                raise MatrixParseError(lineno, f"malformed entry {token!r}")
            if "/" in token and token.split("/")[1].lstrip("0") == "":
                raise MatrixParseError(lineno, f"zero denominator in {token!r}")
            entries.append(Fraction(token))
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise MatrixParseError(
                lineno, f"row has {len(entries)} entries, expected {width}"
            )
        rows.append(entries)
    if not rows:
        raise MatrixParseError(0, "no matrix rows found")
    return QMatrix.of(rows)


def load_matrix(path: str) -> QMatrix:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_matrix(handle.read())
    except MatrixParseError as err:
        err.args = (f"{path}: {err}",)
        raise


def parse_colouring_spec(spec: str) -> Colouring:
    """mod:M | gamma:P | startparity:B | table:FILE"""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise ValueError(f"colouring spec needs an argument: {spec!r}")
    if kind == "mod":
        return Colouring.mod(int(arg))
    if kind == "gamma":
        return Colouring.gamma(int(arg))
    if kind == "startparity":
        return Colouring.start_parity(int(arg))
    if kind == "table":
        with open(arg, encoding="utf-8") as handle:
            return Colouring.table(_parse_colour_table(handle.read()))
    raise ValueError(f"unknown colouring kind {kind!r}")


def _parse_colour_table(text: str) -> list[int]:
    """One line per integer: '<i> <colour>' for i = 1..N in order."""
    colours: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"colour table line {lineno}: expected '<i> <colour>'")
        index, colour = int(parts[0]), int(parts[1])
        if index != len(colours) + 1:
            raise ValueError(f"colour table line {lineno}: expected integer {len(colours) + 1}")
        colours.append(colour)
    if not colours:
        raise ValueError("empty colour table")
    return colours


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _matrix_lines(M: QMatrix) -> None:
    sys.stdout.write(M.to_lines() + "\n")


def _report_decision(decision: Decision, as_json: bool) -> int:
    if as_json:
        _emit(decision.to_json_dict())
    else:
        sys.stdout.write(f"verdict: {decision.verdict}\n")
        for name, value in decision.scalars:
            sys.stdout.write(f"{name} = {value}\n")
        if decision.certificate is not None:
            sys.stdout.write(f"partition: {decision.certificate.partition}\n")
        if decision.assembled is not None:
            sys.stdout.write("assembled:\n")
            _matrix_lines(decision.assembled)
        if decision.verdict == UNDECIDED:
            sys.stdout.write(f"search cap of {decision.cap} candidate blocks exceeded\n")
    if decision.verdict == YES:
        return EXIT_HOLDS
    if decision.verdict == UNDECIDED:
        return EXIT_UNDECIDED
    return EXIT_FAILS


def _load_certificate(path: str) -> ColumnsConditionCertificate:
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return ColumnsConditionCertificate.from_json_dict(document)


def _certify(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.file)
    certificate = _load_certificate(args.certificate)
    verified = verify_certificate(matrix, certificate)
    if args.json:
        _emit({"verified": verified})
    else:
        sys.stdout.write("certificate verified\n" if verified else "certificate INVALID\n")
    return EXIT_HOLDS if verified else EXIT_FAILS


def _first_entries(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.file)
    certificate = _load_certificate(args.certificate)
    if not verify_certificate(matrix, certificate):
        sys.stderr.write("error: certificate fails verification\n")
        return EXIT_FAILS
    fe = first_entries_from_certificate(matrix, certificate)
    if args.json:
        _emit({
            "first_entries": [[str(x) for x in row] for row in fe.matrix.entries],
            "unital": fe.unital,
        })
    else:
        _matrix_lines(fe.matrix)
    return EXIT_HOLDS


def _scalars(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.file)
    template = doubly_ipr_template(matrix)
    try:
        scalar_set = scalar_union_over_partitions(template, args.cap)
    except PartitionCapExceeded as exceeded:
        sys.stderr.write(f"search cap of {exceeded.cap} candidate blocks exceeded\n")
        return EXIT_UNDECIDED
    if args.json:
        _emit(scalar_set.to_json_dict())
    elif scalar_set.kind == "finite":
        listed = ", ".join(str(v) for v in scalar_set.values)
        sys.stdout.write(f"feasible scalar values: {listed}\n")
    elif scalar_set.kind == "empty":
        sys.stdout.write("feasible scalar values: none\n")
    elif scalar_set.kind == "all":
        sys.stdout.write("feasible scalar values: all rationals\n")
    else:
        listed = ", ".join(str(v) for v in scalar_set.excluded)
        sys.stdout.write(f"feasible scalar values: all rationals except {listed}\n")
    return EXIT_HOLDS


def _oracle_solve(args: argparse.Namespace) -> int:
    matrices = [load_matrix(f) for f in args.files]
    colouring = parse_colouring_spec(args.colouring)
    witness = find_monochromatic_solution(matrices, colouring, args.bound)
    if args.json:
        _emit({"witness": dataclasses.asdict(witness) if witness else None})
    elif witness is None:
        sys.stdout.write(f"no monochromatic solution with entries <= {args.bound}\n")
    else:
        for t, vec in enumerate(witness.vectors, start=1):
            sys.stdout.write(f"x_{t} = ({', '.join(str(x) for x in vec)})\n")
    return EXIT_HOLDS if witness is not None else EXIT_FAILS


def _oracle_sweep(args: argparse.Namespace) -> int:
    matrices = [load_matrix(f) for f in args.files]
    holds = verify_all_colourings(matrices, args.colours, args.bound)
    if args.json:
        _emit({"all_colourings_admit_solution": holds,
               "colours": args.colours, "bound": args.bound})
    else:
        sys.stdout.write(
            f"every {args.colours}-colouring of [1..{args.bound}] admits a solution: "
            f"{'yes' if holds else 'no'}\n"
        )
    return EXIT_HOLDS if holds else EXIT_FAILS


def _oracle_falsify(args: argparse.Namespace) -> int:
    matrices = [load_matrix(f) for f in args.files]
    witness = search_witness_colouring(matrices, args.colours, args.bound)
    if args.json:
        _emit({"witness_colouring": witness.to_json_dict() if witness else None})
    elif witness is None:
        sys.stdout.write(f"every {args.colours}-colouring of [1..{args.bound}] admits a solution\n")
    else:
        sys.stdout.write(witness.to_text())
    # a witness colouring falsifies bounded regularity, hence exit 1
    return EXIT_FAILS if witness is not None else EXIT_HOLDS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every main().

    Each subparser carries its handler as the default `run`, which main()
    calls.  Handlers look up partreg's functions in this module's globals when
    they run, so the cached parser sees a patched attribute.  Parsing does not
    change the parser; it is not built at import, which would charge every
    importer for it.
    """
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--cap", type=int, default=DEFAULT_PARTITION_CAP,
                     help="max candidate blocks the search examines before reporting UNDECIDED")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="canonical JSON output")
    # --cap bounds the partition search; certify and first-entries run none,
    # and the oracle searches have no budget yet, so they take no --cap
    capped = [cap, common]

    parser = argparse.ArgumentParser(
        prog="partreg",
        description="Exact decision procedures and finite colouring oracles "
        "for partition regularity of rational matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # name, help text, positional arguments ("files" takes one or more) and
    # the decision they ask for
    decisions = [
        ("kpr", "kernel partition regularity of FILE", ["file"],
         lambda args: is_kpr(load_matrix(args.file), args.cap)),
        ("ipr", "image partition regularity of FILE", ["file"],
         lambda args: is_ipr(load_matrix(args.file), args.cap)),
        ("doubly-ipr", "doubly image partition regularity of FILE", ["file"],
         lambda args: doubly_ipr(load_matrix(args.file), args.cap)),
        ("doubly-kpr", "doubly kernel partition regularity of a pair", ["file_a", "file_b"],
         lambda args: doubly_kpr(load_matrix(args.file_a), load_matrix(args.file_b), args.cap)),
        ("multiply-kpr", "multiply kernel partition regularity of a tuple", ["files"],
         lambda args: multiply_kpr([load_matrix(f) for f in args.files], args.cap)),
    ]
    for name, help_text, positionals, decide in decisions:
        p = sub.add_parser(name, help=help_text, parents=capped)
        for positional in positionals:
            p.add_argument(positional, nargs="+" if positional == "files" else None)
        p.set_defaults(run=lambda args, decide=decide: _report_decision(decide(args), args.json))

    for name, help_text, run in [
        ("certify", "verify a certificate against a matrix", _certify),
        ("first-entries", "emit the unital first-entries matrix of a certificate", _first_entries),
    ]:
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("file")
        p.add_argument("certificate")
        p.set_defaults(run=run)

    p = sub.add_parser("scalars", help="all scalar values admitted by the doubly-IPR template",
                       parents=capped)
    p.add_argument("file")
    p.set_defaults(run=_scalars)

    oracle = sub.add_parser("oracle", help="finite-scale colouring oracles")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)

    p = oracle_sub.add_parser("solve", help="search a bounded monochromatic solution", parents=[common])
    p.add_argument("files", nargs="+")
    p.add_argument("--colouring", required=True, help="mod:M | gamma:P | startparity:B | table:FILE")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(run=_oracle_solve)

    for name, help_text, run in [
        ("sweep", "check every r-colouring of [1..N] admits a solution", _oracle_sweep),
        ("falsify", "search a colouring of [1..N] with no bounded solution", _oracle_falsify),
    ]:
        p = oracle_sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("files", nargs="+")
        p.add_argument("--colours", type=int, required=True)
        p.add_argument("--bound", type=int, required=True)
        p.set_defaults(run=run)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        # only the subcommands that search take --cap
        if "cap" in args and args.cap < 0:
            raise ValueError(f"--cap must be a non-negative number of candidate blocks, got {args.cap}")
        return args.run(args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
