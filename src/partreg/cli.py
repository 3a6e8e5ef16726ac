"""Command-line front end.

Matrix files are plain text: one row per line, whitespace-separated entries,
each an optionally-signed integer or p/q with positive q; blank lines and
lines starting with '#' are ignored.  Exit codes: 0 the property holds
(YES / verified / solution found), 1 it fails (NO / falsified / none found),
2 input or usage error, 3 undecided because the search examined as many
candidate blocks as --cap allows.  Each command is declared once, in
COMMANDS, and each oracle subcommand in _ORACLE_COMMANDS, as a _Leaf: its
positionals, its options and the handler that answers it.  main reads a
plain, valid argv straight from that declaration and builds no parser;
every other argv (--help, --opt=value, a usage error) goes to the one
argparse tree that build_parser configures from the same declarations.
A handler returns its exit code, its result as a JSON document and the
same result as text, and only main writes to stdout: the document under
--json, the text otherwise.  A handler that returns no document has
written its message to stderr.  All JSON output is canonical: fixed key
order, rationals as lowest-term strings, byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Iterator

from .columns import (
    ColumnsConditionCertificate,
    DEFAULT_PARTITION_CAP,
    PartitionCapExceeded,
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
    scalar_union_over_partitions,
)
from .linalg import QMatrix, rational
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

# a handler's exit code, JSON document and text
Result = tuple[int, dict | None, str | None]


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-separated fields) of each line not blank and not a '#' comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def parse_matrix(text: str) -> QMatrix:
    """Exact matrix from the text format; malformed input carries a line number."""
    rows: list[tuple] = []
    for lineno, fields in _lines(text):
        try:
            row = tuple(map(rational, fields))
        except ValueError as err:  # malformed, a zero denominator or more digits than int() converts
            raise ValueError(f"line {lineno}: {err}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"line {lineno}: row has {len(row)} entries, expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise ValueError("line 0: no matrix rows found")
    return QMatrix(len(rows), len(rows[0]), tuple(rows))


def _read(path: str, parse):
    """parse(the text of path); a parse or UTF-8 decode error names the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse(handle.read())
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def load_matrix(path: str) -> QMatrix:
    return _read(path, parse_matrix)


def _load_matrices(paths: list[str]) -> list[QMatrix]:
    """The matrices in `paths`, which must all have as many rows as the first."""
    matrices = [load_matrix(path) for path in paths]
    for path, matrix in zip(paths, matrices):
        if matrix.rows != matrices[0].rows:
            raise ValueError(
                f"row counts differ: {paths[0]} has {matrices[0].rows}, {path} has {matrix.rows}")
    return matrices


def parse_colouring_spec(spec: str, bound: int) -> Colouring:
    """mod:M | gamma:P | startparity:B | table:FILE, to colour [1..bound]"""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise ValueError(f"colouring spec needs an argument: {spec!r}")
    if kind == "table":
        def table(text: str) -> Colouring:
            colouring = Colouring.table(_parse_colour_table(text))
            colouring.pieces(bound)  # refuses a table shorter than bound
            return colouring
        return _read(arg, table)
    make = {"mod": Colouring.mod, "gamma": Colouring.gamma, "startparity": Colouring.start_parity}
    if kind not in make:
        raise ValueError(f"unknown colouring kind {kind!r}")
    try:
        number = int(arg)
    except ValueError:
        raise ValueError(f"colouring spec {spec!r}: {arg!r} is not an integer") from None
    return make[kind](number)


def _parse_colour_table(text: str) -> list[int]:
    """One line per integer: '<i> <colour>' for i = 1..N in order."""
    colours: list[int] = []
    for lineno, fields in _lines(text):
        try:
            index, colour = map(int, fields)
        except ValueError:  # not two fields, or not integers
            raise ValueError(f"colour table line {lineno}: expected '<i> <colour>'") from None
        if index != len(colours) + 1:
            raise ValueError(f"colour table line {lineno}: expected integer {len(colours) + 1}")
        colours.append(colour)
    return colours


def _report_decision(decision: Decision) -> Result:
    lines = [f"verdict: {decision.verdict}"]
    lines += [f"{name} = {value}" for name, value in decision.scalars]
    if decision.certificate is not None:
        lines.append(f"partition: {decision.certificate.partition}")
    if decision.assembled is not None:
        lines += ["assembled:", decision.assembled.to_lines()]
    if decision.verdict == UNDECIDED:
        lines.append(f"search cap of {decision.cap} candidate blocks exceeded")
    code = {YES: EXIT_HOLDS, UNDECIDED: EXIT_UNDECIDED}.get(decision.verdict, EXIT_FAILS)
    return code, decision.to_json_dict(), "\n".join(lines) + "\n"


def _load_certificate(path: str) -> ColumnsConditionCertificate:
    try:
        document = _read(path, json.loads)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    return ColumnsConditionCertificate.from_json_dict(document)


def _certify(args: argparse.Namespace) -> Result:
    matrix = load_matrix(args.file)
    verified = verify_certificate(matrix, _load_certificate(args.certificate))
    text = "certificate verified\n" if verified else "certificate INVALID\n"
    return EXIT_HOLDS if verified else EXIT_FAILS, {"verified": verified}, text


def _first_entries(args: argparse.Namespace) -> Result:
    matrix = load_matrix(args.file)
    certificate = _load_certificate(args.certificate)
    if not verify_certificate(matrix, certificate):
        sys.stderr.write("error: certificate fails verification\n")
        return EXIT_FAILS, None, None
    fe = first_entries_from_certificate(matrix, certificate)
    document = {"first_entries": [[str(x) for x in row] for row in fe.matrix.entries], "unital": fe.unital}
    return EXIT_HOLDS, document, fe.matrix.to_lines() + "\n"


def _scalars(args: argparse.Namespace) -> Result:
    template = doubly_ipr_template(load_matrix(args.file))
    try:
        scalar_set = scalar_union_over_partitions(template, args.cap)
    except PartitionCapExceeded as exceeded:
        sys.stderr.write(f"search cap of {exceeded.cap} candidate blocks exceeded\n")
        return EXIT_UNDECIDED, None, None
    described = {
        "finite": ", ".join(str(v) for v in scalar_set.values),
        "empty": "none",
        "all": "all rationals",
        "all_except": "all rationals except " + ", ".join(str(v) for v in scalar_set.excluded),
    }[scalar_set.kind]
    return EXIT_HOLDS, scalar_set.to_json_dict(), f"feasible scalar values: {described}\n"


def _oracle_solve(args: argparse.Namespace) -> Result:
    matrices = _load_matrices(args.files)
    colouring = parse_colouring_spec(args.colouring, args.bound)
    witness = find_monochromatic_solution(matrices, colouring, args.bound)
    if witness is None:
        return EXIT_FAILS, {"witness": None}, f"no monochromatic solution with entries <= {args.bound}\n"
    text = "".join(f"x_{t} = ({', '.join(str(x) for x in vec)})\n"
                   for t, vec in enumerate(witness.vectors, start=1))
    return EXIT_HOLDS, {"witness": dataclasses.asdict(witness)}, text


def _oracle_sweep(args: argparse.Namespace) -> Result:
    matrices = _load_matrices(args.files)
    holds = verify_all_colourings(matrices, args.colours, args.bound)
    document = {"all_colourings_admit_solution": holds, "colours": args.colours, "bound": args.bound}
    text = (f"every {args.colours}-colouring of [1..{args.bound}] admits a solution: "
            f"{'yes' if holds else 'no'}\n")
    return EXIT_HOLDS if holds else EXIT_FAILS, document, text


def _oracle_falsify(args: argparse.Namespace) -> Result:
    matrices = _load_matrices(args.files)
    witness = search_witness_colouring(matrices, args.colours, args.bound)
    if witness is None:
        text = f"every {args.colours}-colouring of [1..{args.bound}] admits a solution\n"
        return EXIT_HOLDS, {"witness_colouring": None}, text
    # a witness colouring falsifies bounded regularity, hence exit 1
    return EXIT_FAILS, {"witness_colouring": witness.to_json_dict()}, witness.to_text()


class _Leaf:
    """One command's arguments and handler: "files" takes one or more positionals, the others one each."""

    def __init__(self, run, *positionals: str, cap: bool = True, **required: dict):
        self.run, self.positionals, self.cap, self.required = run, positionals, cap, required

    def __call__(self, parser: argparse.ArgumentParser) -> None:
        """Adds --cap if `cap`, --json, the positionals, the `required` options and `run` to parser."""
        if self.cap:
            parser.add_argument("--cap", type=int, default=DEFAULT_PARTITION_CAP, help="max candidate "
                                "blocks the search examines before reporting UNDECIDED")
        parser.add_argument("--json", action="store_true", help="canonical JSON output")
        for positional in self.positionals:
            parser.add_argument(positional, nargs="+" if positional == "files" else None)
        for option, keywords in self.required.items():
            parser.add_argument(f"--{option}", required=True, **keywords)
        parser.set_defaults(run=self.run)

    def read(self, args: list[str]) -> argparse.Namespace | None:
        """The namespace that the parser gives args if they are plain: one run of positionals, and each
        option at most once, spelled out, with a value that converts and does not start with '-'.
        Else None: --help, --, --opt=value, abbreviations and every usage error are the parser's."""
        types = {"--json": None, **({"--cap": int} if self.cap else {}),
                 **{f"--{option}": keywords.get("type", str) for option, keywords in self.required.items()}}
        values: dict = {}
        positionals: list[str] = []
        closed = False  # an option follows the positionals, so a second run would be misread
        tokens = iter(args)
        for token in tokens:
            if not token.startswith("-"):
                if closed:
                    return None
                positionals.append(token)
                continue
            if token not in types or token in values:
                return None
            closed = bool(positionals)
            value = next(tokens, "-") if types[token] else ""
            if value.startswith("-"):
                return None
            try:
                values[token] = types[token](value) if types[token] else True
            except ValueError:
                return None
        many = self.positionals == ("files",)
        if len(positionals) != len(self.positionals) and not (many and positionals) or \
                not values.keys() >= {f"--{option}" for option in self.required}:
            return None
        return argparse.Namespace(
            **({"cap": values.get("--cap", DEFAULT_PARTITION_CAP)} if self.cap else {}), json="--json" in values,
            **dict(zip(self.positionals, [positionals] if many else positionals)),
            **{option: values[f"--{option}"] for option in self.required}, run=self.run)


# name: (help text, configure) of each oracle subcommand, as in COMMANDS
_ORACLE_COMMANDS = {
    "solve": ("search a bounded monochromatic solution", _Leaf(
        _oracle_solve, "files", cap=False,
        colouring={"help": "mod:M | gamma:P | startparity:B | table:FILE"}, bound={"type": int})),
    "sweep": ("check every r-colouring of [1..N] admits a solution",
              _Leaf(_oracle_sweep, "files", cap=False, colours={"type": int}, bound={"type": int})),
    "falsify": ("search a colouring of [1..N] with no bounded solution",
                _Leaf(_oracle_falsify, "files", cap=False, colours={"type": int}, bound={"type": int})),
}


def _configure_oracle(parser: argparse.ArgumentParser) -> None:
    oracle_sub = parser.add_subparsers(dest="oracle_command", required=True)
    for name, (help_text, configure) in _ORACLE_COMMANDS.items():
        configure(oracle_sub.add_parser(name, help=help_text))


# name: (help text, configure), a _Leaf for every command but oracle, whose subcommands are
# leaves.  Only the searches that decide take --cap; the oracle's have no budget yet.
# Handlers look up partreg's functions in this module's globals when they run, not at import.
COMMANDS = {
    "kpr": ("kernel partition regularity of FILE",
            _Leaf(lambda args: _report_decision(is_kpr(load_matrix(args.file), args.cap)), "file")),
    "ipr": ("image partition regularity of FILE",
            _Leaf(lambda args: _report_decision(is_ipr(load_matrix(args.file), args.cap)), "file")),
    "doubly-ipr": ("doubly image partition regularity of FILE",
                   _Leaf(lambda args: _report_decision(doubly_ipr(load_matrix(args.file), args.cap)), "file")),
    "doubly-kpr": ("doubly kernel partition regularity of a pair", _Leaf(
        lambda args: _report_decision(doubly_kpr(*_load_matrices([args.file_a, args.file_b]), args.cap)),
        "file_a", "file_b")),
    "multiply-kpr": ("multiply kernel partition regularity of a tuple", _Leaf(
        lambda args: _report_decision(multiply_kpr(_load_matrices(args.files), args.cap)), "files")),
    "certify": ("verify a certificate against a matrix", _Leaf(_certify, "file", "certificate", cap=False)),
    "first-entries": ("emit the unital first-entries matrix of a certificate",
                      _Leaf(_first_entries, "file", "certificate", cap=False)),
    "scalars": ("all scalar values admitted by the doubly-IPR template", _Leaf(_scalars, "file")),
    "oracle": ("finite-scale colouring oracles", _configure_oracle),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser tree, built on first use and then shared.

    main() builds it only for an argv that its command's _Leaf does not read:
    help, no command, a typo, a spelling other than the plain one, or a usage
    error, which the tree reports.  Parsing does not change a parser; none
    is built at import, which would charge every importer.
    """
    parser = argparse.ArgumentParser(
        prog="partreg",
        description="Exact decision procedures and finite colouring oracles "
        "for partition regularity of rational matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, configure) in COMMANDS.items():
        configure(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    depth = 2 if argv and argv[0] == "oracle" else 1
    entry = (_ORACLE_COMMANDS if depth == 2 else COMMANDS).get(argv[depth - 1]) if len(argv) >= depth else None
    args = entry[1].read(argv[depth:]) if entry else None
    # argv names no command or oracle subcommand, or is not plain: the tree parses or reports it
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as err:
            return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        # only the subcommands that search take --cap
        if "cap" in args and args.cap < 0:
            raise ValueError(f"--cap must be a non-negative number of candidate blocks, got {args.cap}")
        code, document, text = args.run(args)
        if document is not None:
            sys.stdout.write(json.dumps(document, indent=2) + "\n" if args.json else text)
        return code
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
