import contextlib
import json
import os
import subprocess
import sys

import pytest

import partreg
from conftest import vdw
from partreg import QMatrix, cli
from partreg.cli import (
    EXIT_FAILS,
    EXIT_HOLDS,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    build_parser,
    main,
    parse_colouring_spec,
    parse_matrix,
)

SCHUR = "1 1 -1\n"
TWO_BY_THREE = "4 -4 2\n5 -5 3\n"
DIAG = "# a diagonal matrix\n\n1 0\n0 2\n"
VDW = "-1 1 0 0 -1\n0 -1 1 0 -1\n0 0 -1 1 -1\n"


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


# -------------------------------------------------------------------- parsing

def test_parse_matrix_formats():
    assert parse_matrix(SCHUR) == QMatrix.of([[1, 1, -1]])
    assert parse_matrix(TWO_BY_THREE) == QMatrix.of([[4, -4, 2], [5, -5, 3]])
    assert parse_matrix("1/2 0\n0 1/3\n") == QMatrix.of(
        [["1/2", 0], [0, "1/3"]]
    )
    assert parse_matrix(DIAG).rows == 2  # comments and blank lines are skipped


def test_parse_matrix_errors_carry_line_numbers():
    with pytest.raises(ValueError, match=r"^line 2: "):
        parse_matrix("1 2\n3\n")
    with pytest.raises(ValueError, match=r"^line 1: "):
        parse_matrix("1 x\n")
    for text in ["1/0\n", "1/-2\n", "1.5\n", "# nothing\n"]:
        with pytest.raises(ValueError, match=r"^line \d+: "):
            parse_matrix(text)


def test_parse_colouring_specs(tmp_path):
    assert parse_colouring_spec("mod:4", 10).colour(7) == 3
    assert parse_colouring_spec("gamma:10", 10).colour(3040567) == (0, 3, 0)
    assert parse_colouring_spec("startparity:2", 10).colour(2) == 1
    table = write(tmp_path, "table.txt", "1 0\n2 1\n3 1\n4 0\n")
    assert parse_colouring_spec(f"table:{table}", 4).colour(4) == 0
    with pytest.raises(ValueError):
        parse_colouring_spec("mystery:4", 10)
    with pytest.raises(ValueError):
        parse_colouring_spec("mod", 10)


# ------------------------------------------------------------------ decisions

def test_kpr_exit_codes(tmp_path, capsys):
    not_regular = write(tmp_path, "nr.txt", "1 1\n")
    assert main(["kpr", not_regular]) == EXIT_FAILS
    capsys.readouterr()


def test_ipr_exit_codes(tmp_path, capsys):
    diag = write(tmp_path, "diag.txt", DIAG)
    assert main(["ipr", diag]) == EXIT_HOLDS
    assert "e_2 = 1/2\n" in capsys.readouterr().out
    cyclic = write(tmp_path, "cyclic.txt", "1 -1 0\n0 1 -1\n-1 0 1\n")
    assert main(["ipr", cyclic]) == EXIT_FAILS
    assert capsys.readouterr().out == "verdict: NO\n"


def test_doubly_ipr_json_document(tmp_path, capsys):
    matrix = write(tmp_path, "m23.txt", TWO_BY_THREE)
    assert main(["doubly-ipr", matrix, "--json"]) == EXIT_HOLDS
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "YES"
    assert doc["scalars"] == {"b": "1/2"}
    assert doc["certificate"]["partition"] == [[1, 2], [3, 5], [4]]
    assert doc["assembled"][0] == ["4", "-4", "2", "-1/2", "0"]
    assert doc["cap"] is None


def test_doubly_ipr_diagonal_fails(tmp_path, capsys):
    diag = write(tmp_path, "diag.txt", DIAG)
    assert main(["doubly-ipr", diag]) == EXIT_FAILS
    capsys.readouterr()


def test_json_output_is_byte_stable(tmp_path, capsys):
    matrix = write(tmp_path, "m23.txt", TWO_BY_THREE)
    main(["doubly-ipr", matrix, "--json"])
    first = capsys.readouterr().out
    main(["doubly-ipr", matrix, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_undecided_exit_code(tmp_path, capsys):
    vdw = write(tmp_path, "vdw.txt", VDW)
    assert main(["kpr", vdw, "--cap", "1"]) == EXIT_UNDECIDED
    capsys.readouterr()


def test_negative_cap_is_a_usage_error(tmp_path, capsys):
    schur = write(tmp_path, "schur.txt", SCHUR)
    assert main(["kpr", schur, "--cap", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "-1" in captured.err
    assert main(["kpr", schur, "--cap", "0", "--json"]) == EXIT_UNDECIDED
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "UNDECIDED" and doc["cap"] == 0


def test_multiply_kpr_and_doubly_kpr(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "1 1\n")
    b = write(tmp_path, "b.txt", "-1\n")
    assert main(["multiply-kpr", a, b]) == EXIT_HOLDS
    assert main(["doubly-kpr", a, b]) == EXIT_HOLDS
    assert main(["multiply-kpr", a]) == EXIT_USAGE
    one = write(tmp_path, "one.txt", "1\n")
    assert main(["multiply-kpr", one, one]) == EXIT_FAILS
    capsys.readouterr()


def test_usage_errors(tmp_path, capsys):
    assert main(["kpr", str(tmp_path / "missing.txt")]) == EXIT_USAGE
    capsys.readouterr()
    ragged = write(tmp_path, "ragged.txt", "1 2\n3\n")
    assert main(["kpr", ragged]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {ragged}: line 2: row has 1 entries, expected 2\n"
    zero = write(tmp_path, "z.txt", "1 1/0 -1\n")
    assert main(["kpr", zero]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {zero}: line 1: zero denominator in '1/0'\n"
    assert main(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("command", [["doubly-kpr"], ["multiply-kpr"], ["oracle", "solve"]])
def test_differing_row_counts_name_the_file(tmp_path, capsys, command):
    schur = write(tmp_path, "schur.txt", SCHUR)
    diag = write(tmp_path, "diag.txt", DIAG)
    extra = ["--colouring", "mod:2", "--bound", "5"] if command[0] == "oracle" else []
    assert main([*command, schur, diag, *extra]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: row counts differ: {schur} has 1, {diag} has 2\n"
    assert captured.out == ""


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int() converts any number of digits")
def test_entry_over_the_digit_limit_names_its_line(tmp_path, capsys):
    # int() refuses more digits than the limit; the error still names the line
    big = write(tmp_path, "big.txt", "7" * (DIGIT_LIMIT + 700) + "\n")
    assert main(["kpr", big]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {big}: line 1: Exceeds the limit")


# ---------------------------------------------------------------- certificates

def test_certify_and_first_entries_round_trip(tmp_path, capsys):
    schur = write(tmp_path, "schur.txt", SCHUR)
    assert main(["kpr", schur, "--json"]) == EXIT_HOLDS
    doc = json.loads(capsys.readouterr().out)
    cert_path = write(tmp_path, "cert.json", json.dumps(doc["certificate"]))
    assert main(["certify", schur, cert_path]) == EXIT_HOLDS
    capsys.readouterr()
    assert main(["certify", schur, cert_path, "--json"]) == EXIT_HOLDS
    assert json.loads(capsys.readouterr().out) == {"verified": True}

    assert main(["first-entries", schur, cert_path, "--json"]) == EXIT_HOLDS
    fe = json.loads(capsys.readouterr().out)
    assert fe["first_entries"] == [["1", "-1"], ["0", "1"], ["1", "0"]]
    assert fe["unital"] is True
    assert main(["first-entries", schur, cert_path]) == EXIT_HOLDS
    assert capsys.readouterr().out == "1 -1\n0 1\n1 0\n"

    # neither command searches, so neither takes a cap
    for command in ("certify", "first-entries"):
        assert main([command, schur, cert_path, "--cap", "5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --cap 5" in captured.err

    tampered = doc["certificate"]
    tampered["witnesses"][0][0]["coeff"] = "9"
    bad_path = write(tmp_path, "bad.json", json.dumps(tampered))
    assert main(["certify", schur, bad_path]) == EXIT_FAILS
    assert main(["first-entries", schur, bad_path]) == EXIT_FAILS
    capsys.readouterr()
    assert main(["certify", schur, bad_path, "--json"]) == EXIT_FAILS
    assert json.loads(capsys.readouterr().out) == {"verified": False}


@pytest.mark.parametrize("witness, expected", [
    # an earlier column that is not listed counts as 0: 1*col1 == col2 for x + y - z
    ('[{"column": 1, "coeff": "1"}]', EXIT_HOLDS),
    ('[{"column": 1, "coeff": "1"}, {"column": 1, "coeff": "0"}]', EXIT_FAILS),
    ('[{"column": 1, "coeff": "1"}, {"column": 2, "coeff": "0"}]', EXIT_FAILS),
])
def test_certify_reads_a_sparse_witness(tmp_path, capsys, witness, expected):
    schur = write(tmp_path, "schur.txt", SCHUR)
    document = '{"partition": [[1, 3], [2]], "witnesses": [' + witness + ']}'
    cert_path = write(tmp_path, "cert.json", document)
    assert main(["certify", schur, cert_path, "--json"]) == expected
    assert json.loads(capsys.readouterr().out) == {"verified": expected == EXIT_HOLDS}


@pytest.mark.parametrize("content", [b'{"partition": [[1, 3] [2]]}', b"\xff{}"],
                         ids=["syntax", "not-utf-8"])
@pytest.mark.parametrize("command", ["certify", "first-entries"])
def test_unreadable_certificate_json_names_the_file(tmp_path, capsys, command, content):
    schur = write(tmp_path, "schur.txt", SCHUR)
    cert_path = tmp_path / "cert.json"
    cert_path.write_bytes(content)
    try:
        json.loads(content.decode("utf-8"))
    except ValueError as err:
        reason = str(err)
    assert main([command, schur, str(cert_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {cert_path}: {reason}\n"


@pytest.mark.parametrize("document", [
    "[1, 2]",
    '{"partition": 5}',
    '{"partition": [[1, 2], [3]], "witnesses": ["x"]}',
    # Valid for x + y = z if the indices were truncated to integers.
    '{"partition": [[1.5, 3.2], [2.9]], "witnesses": [[{"column": 1, "coeff": "1"}]]}',
    '{"partition": [[true, 3], [2]], "witnesses": [[{"column": 1, "coeff": "1"}]]}',
    '{"partition": [["1", "3"], ["2"]], "witnesses": [[{"column": 1, "coeff": "1"}]]}',
    '{"partition": [[1, 3], [2]], "witnesses": [[{"column": 1.9, "coeff": "1"}]]}',
    '{"partition": [[1, 3], [2]], "witnesses": [[{"column": true, "coeff": "1"}]]}',
    # A JSON boolean is not a coefficient; true would read as a valid 1.
    '{"partition": [[1, 3], [2]], "witnesses": [[{"column": 1, "coeff": true}]]}',
    '{"partition": [[1, 3], [2]], "witnesses": [[{"column": 1, "coeff": false}]]}',
    '{"partition": [[1, 3], [2]], "witnesses": [[{"column": 1, "coeff": "1/0"}]]}',
    # Coefficients follow the matrix-file syntax: no exponent notation, whose
    # expansion would cost time that grows with the exponent.
    '{"partition": [[1, 3], [2]], "witnesses": [[{"column": 1, "coeff": "1e2"}]]}',
    '{"partition": [[1, 3], [2]], "witnesses": [[{"column": 1, "coeff": "1e1000000"}]]}',
    # A repeated column inside one block is not merged away.
    '{"partition": [[1, 1, 3], [2]], "witnesses": [[{"column": 1, "coeff": "1"}, {"column": 3, "coeff": "0"}]]}',
    # Nesting deeper than the JSON parser recurses.
    pytest.param("[" * 100000 + "]" * 100000, id="deeply-nested"),
])
@pytest.mark.parametrize("command", ["certify", "first-entries"])
def test_malformed_certificate_is_a_usage_error(tmp_path, capsys, command, document):
    schur = write(tmp_path, "schur.txt", SCHUR)
    cert_path = write(tmp_path, "cert.json", document)
    assert main([command, schur, cert_path]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_scalars_command(tmp_path, capsys):
    matrix = write(tmp_path, "m23.txt", TWO_BY_THREE)
    assert main(["scalars", matrix, "--json"]) == EXIT_HOLDS
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"kind": "finite", "values": ["-2", "-2/5", "1/2"], "excluded": []}
    # the text form of each kind of scalar set
    for text, listed in [
        ("-2\n", "-2"),
        ("-2 2\n", "all rationals"),
        ("-2 -2\n-1 -1\n", "none"),
        ("-1 -1 1\n-1 0 1\n", "all rationals except 0"),
    ]:
        matrix = write(tmp_path, "m.txt", text)
        assert main(["scalars", matrix]) == EXIT_HOLDS
        assert capsys.readouterr().out == f"feasible scalar values: {listed}\n"


def test_capped_scalars_are_undecided(tmp_path, capsys):
    matrix = write(tmp_path, "m24.txt", "1 2 -3 1\n2 -1 1 1\n")
    assert main(["scalars", matrix, "--cap", "1"]) == EXIT_UNDECIDED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "search cap of 1 candidate blocks exceeded\n"


@pytest.mark.parametrize("document, message", [
    ('{"partition": 5}', "partition: 'int' object is not iterable"),
    ('{"partition": [[1, 3], [2]], "witnesses": [[{"coeff": "1"}]]}',
     "witnesses, block 2, term 1: missing 'column'"),
])
def test_malformed_certificate_names_the_field(tmp_path, capsys, document, message):
    schur = write(tmp_path, "schur.txt", SCHUR)
    cert_path = write(tmp_path, "cert.json", document)
    assert main(["certify", schur, cert_path]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed certificate: {message}\n"


@pytest.mark.parametrize("command", ["certify", "first-entries"])
def test_malformed_partition_is_reported_in_one_based_columns(tmp_path, capsys, command):
    # The document numbers columns from 1, and so does every message about it.
    schur = write(tmp_path, "schur.txt", SCHUR)
    for document, message in [
        ('{"partition": [[1, 1, 3], [2]]}', "column 1 appears more than once"),
        ('{"partition": [[0, 1], [2, 3]]}', "column indices start at 1, got 0"),
    ]:
        cert_path = write(tmp_path, "cert.json", document)
        assert main([command, schur, cert_path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed certificate: partition: {message}\n"


# --------------------------------------------------------------------- oracle

def test_oracle_solve(tmp_path, capsys):
    schur = write(tmp_path, "schur.txt", SCHUR)
    assert main(["oracle", "solve", schur, "--colouring", "mod:1", "--bound", "3", "--json"]) == EXIT_HOLDS
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"]["vectors"] == [[1, 1, 2]]
    assert main(["oracle", "solve", schur, "--colouring", "mod:1", "--bound", "3"]) == EXIT_HOLDS
    assert capsys.readouterr().out == "x_1 = (1, 1, 2)\n"

    diag = write(tmp_path, "diag.txt", DIAG)
    ident = write(tmp_path, "mi.txt", "-1 0\n0 -1\n")
    code = main([
        "oracle", "solve", diag, ident,
        "--colouring", "startparity:2", "--bound", "64",
    ])
    assert code == EXIT_FAILS
    capsys.readouterr()


def test_oracle_solve_json_writes_tuple_colours_as_lists(tmp_path, capsys):
    # gamma colours are tuples; the JSON nests them as lists
    matrix = write(tmp_path, "vdw.txt", vdw().to_lines() + "\n")
    argv = ["oracle", "solve", matrix, "--colouring", "gamma:10", "--bound", "2000", "--json"]
    assert main(argv) == EXIT_HOLDS
    assert capsys.readouterr().out == json.dumps(
        {"witness": {"vectors": [[100, 101, 102, 103, 1]], "colours": [[0, 1, 0]]}}, indent=2
    ) + "\n"


def test_oracle_sweep_and_falsify(tmp_path, capsys):
    schur = write(tmp_path, "schur.txt", SCHUR)
    assert main(["oracle", "sweep", schur, "--colours", "2", "--bound", "5"]) == EXIT_HOLDS
    assert main(["oracle", "sweep", schur, "--colours", "2", "--bound", "4"]) == EXIT_FAILS
    capsys.readouterr()

    assert main(["oracle", "falsify", schur, "--colours", "2", "--bound", "4"]) == EXIT_FAILS
    out = capsys.readouterr().out
    assert out == "1 0\n2 1\n3 1\n4 0\n"
    assert main(["oracle", "falsify", schur, "--colours", "2", "--bound", "5"]) == EXIT_HOLDS
    capsys.readouterr()

    # the oracle searches have no budget, so they take no --cap
    for command in (["solve", "--colouring", "mod:1"], ["sweep", "--colours", "2"],
                    ["falsify", "--colours", "2"]):
        argv = ["oracle", command[0], schur, *command[1:], "--bound", "4", "--cap", "5"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --cap 5" in captured.err


def test_oracle_table_colouring_round_trip(tmp_path, capsys):
    schur = write(tmp_path, "schur.txt", SCHUR)
    main(["oracle", "falsify", schur, "--colours", "2", "--bound", "4"])
    table_path = write(tmp_path, "table.txt", capsys.readouterr().out)
    code = main([
        "oracle", "solve", schur,
        "--colouring", f"table:{table_path}", "--bound", "4",
    ])
    assert code == EXIT_FAILS  # the witness colouring admits no bounded solution
    capsys.readouterr()


def test_short_table_colouring_is_a_usage_error(tmp_path, capsys):
    schur = write(tmp_path, "schur.txt", SCHUR)
    table_path = write(tmp_path, "table.txt", "1 0\n2 1\n")
    code = main([
        "oracle", "solve", schur,
        "--colouring", f"table:{table_path}", "--bound", "5",
    ])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {table_path}: table colouring undefined at 3\n"


def test_short_table_is_refused_before_the_search(tmp_path, capsys):
    # diag(1, 2) has a trivial kernel, so the search never reads the colouring
    diag = write(tmp_path, "diag.txt", "1 0\n0 2\n")
    table_path = write(tmp_path, "table.txt", "1 0\n2 1\n")
    code = main(["oracle", "solve", diag, "--colouring", f"table:{table_path}", "--bound", "5"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {table_path}: table colouring undefined at 3\n"


@pytest.mark.parametrize("table, message", [
    ("1 0 2\n", "colour table line 1: expected '<i> <colour>'"),
    ("1 0\n1 1\n", "colour table line 2: expected integer 2"),
    ("1 0\n3 1\n", "colour table line 2: expected integer 2"),
    ("1 0\n2 x\n", "colour table line 2: expected '<i> <colour>'"),
    ("# no entries\n", "empty colour table"),
])
def test_malformed_colour_table_is_a_usage_error(tmp_path, capsys, table, message):
    schur = write(tmp_path, "schur.txt", SCHUR)
    table_path = write(tmp_path, "table.txt", table)
    code = main([
        "oracle", "solve", schur,
        "--colouring", f"table:{table_path}", "--bound", "4",
    ])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {table_path}: {message}\n"


@pytest.mark.parametrize("argv", [
    ["kpr", "{bad}"],
    ["doubly-kpr", "{good}", "{bad}"],
    ["oracle", "solve", "{good}", "--colouring", "table:{bad}", "--bound", "4"],
], ids=["kpr", "doubly-kpr-second", "table"])
def test_input_that_is_not_utf8_names_the_file(tmp_path, capsys, argv):
    good = write(tmp_path, "schur.txt", SCHUR)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff1 1 -1\n")
    try:
        bad.read_text(encoding="utf-8")
    except ValueError as err:
        reason = str(err)
    assert main([arg.format(good=good, bad=bad) for arg in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {reason}\n"


@pytest.mark.parametrize("spec", ["mod:abc", "gamma:1.5", "startparity:two"])
def test_colouring_spec_without_an_integer_is_a_usage_error(tmp_path, capsys, spec):
    schur = write(tmp_path, "schur.txt", SCHUR)
    code = main(["oracle", "solve", schur, "--colouring", spec, "--bound", "4"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    number = spec.partition(":")[2]
    assert captured.err == f"error: colouring spec {spec!r}: {number!r} is not an integer\n"


# ------------------------------------------------------------- parser reuse

def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_valid_commands_build_only_their_own_parser(tmp_path, capsys):
    schur = write(tmp_path, "schur.txt", SCHUR)
    tree = build_parser.cache_info()
    cli._command_parser.cache_clear()
    cli._oracle_parsers.cache_clear()
    built = []
    for argv in [
        ["kpr", schur],
        ["oracle", "solve", schur, "--colouring", "mod:2", "--bound", "10"],
        ["oracle", "sweep", schur, "--colours", "2", "--bound", "5"],
        ["oracle", "falsify", schur, "--colours", "2", "--bound", "4"],
        ["kpr", schur, "--json"],
    ]:
        assert main(argv) in (EXIT_HOLDS, EXIT_FAILS), argv
        built.append((cli._command_parser.cache_info().misses, cli._oracle_parsers.cache_info().misses))
    capsys.readouterr()
    # the full tree is never built, kpr's parser once, and the three oracle
    # leaves once, together, on the first oracle command
    assert build_parser.cache_info() == tree
    assert built == [(1, 0), (1, 1), (1, 1), (1, 1), (1, 1)]
    assert list(cli._oracle_parsers()) == ["solve", "sweep", "falsify"]


# one set of arguments that parses, and the integer option to give a bad value, per command path;
# certify and first-entries take no --cap, so theirs is one more unrecognised argument
COMMAND_PATHS = {
    ("kpr",): (["a.txt"], "--cap"),
    ("ipr",): (["a.txt"], "--cap"),
    ("doubly-ipr",): (["a.txt"], "--cap"),
    ("doubly-kpr",): (["a.txt", "b.txt"], "--cap"),
    ("multiply-kpr",): (["a.txt", "b.txt"], "--cap"),
    ("certify",): (["a.txt", "c.json"], "--cap"),
    ("first-entries",): (["a.txt", "c.json"], "--cap"),
    ("scalars",): (["a.txt"], "--cap"),
    ("oracle", "solve"): (["a.txt", "--colouring", "mod:2", "--bound", "5"], "--bound"),
    ("oracle", "sweep"): (["a.txt", "--colours", "2", "--bound", "5"], "--bound"),
    ("oracle", "falsify"): (["a.txt", "--colours", "2", "--bound", "5"], "--bound"),
}


@pytest.mark.parametrize("case", ["help", "missing", "bad-integer", "unrecognised"])
@pytest.mark.parametrize("path", list(COMMAND_PATHS), ids=" ".join)
def test_usage_errors_match_the_full_parser(capsys, monkeypatch, path, case):
    # usage text wraps at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    arguments, integer_option = COMMAND_PATHS[path]
    argv = [*path, *{
        "help": ["--help"],
        "missing": [],
        "bad-integer": [*arguments, integer_option, "x"],
        "unrecognised": [*arguments, "--bogus"],
    }[case]]
    try:
        build_parser().parse_args(argv)
    except SystemExit as err:
        expected = (EXIT_USAGE if err.code else EXIT_HOLDS, *capsys.readouterr())
    else:
        pytest.fail(f"{argv} parsed")
    assert (main(argv), *capsys.readouterr()) == expected


# an oracle leaf's arguments that parse, and its own option, per subcommand
ORACLE_LEAVES = {
    "solve": ["--colouring", "mod:2"],
    "sweep": ["--colours", "2"],
    "falsify": ["--colours", "2"],
}


class LeavesAllUnrecognised:
    """An oracle leaf stand-in that recognises nothing, so main parses argv with the full tree."""

    def parse_known_args(self, args):
        return None, args or True


@pytest.mark.parametrize("case", [
    ["{file}", "--bound", "6"], ["{file}", "{own}", "x", "--bound", "6"],
    ["{file}", "{own}", "{value}", "--bound=6"], ["{file}", "{own}", "{value}", "--bou", "6"],
    ["{own}", "{value}", "--bound", "6", "--", "{file}"],
    ["--bound", "6", "{own}", "{value}", "--", "{file}", "{file}"],
], ids=["missing-option", "own-value", "equals", "abbreviated", "dashes", "dashes-two-files"])
@pytest.mark.parametrize("name", list(ORACLE_LEAVES))
def test_oracle_leaves_parse_as_the_full_tree(tmp_path, capsys, monkeypatch, name, case):
    # --help, a bad --bound and an unknown option are test_usage_errors_match_the_full_parser's
    # cases; usage text wraps at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    own, value = ORACLE_LEAVES[name]
    fields = {"file": write(tmp_path, "schur.txt", SCHUR), "own": own, "value": value}
    argv = ["oracle", name, *(arg.format(**fields) for arg in case)]
    through_leaf = (main(argv), *capsys.readouterr())
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_oracle_parsers", lambda: dict.fromkeys(ORACLE_LEAVES, LeavesAllUnrecognised()))
        assert (main(argv), *capsys.readouterr()) == through_leaf
    with contextlib.suppress(SystemExit):  # the tree refuses argv: nothing reaches a handler
        args = build_parser().parse_args(argv)
        # the leaf gives the handler the fields that the tree gives it
        leaf, unrecognised = cli._oracle_parsers()[name].parse_known_args(argv[2:])
        assert not unrecognised
        assert vars(leaf) == {key: v for key, v in vars(args).items() if not key.endswith("command")}
    capsys.readouterr()


def test_repeated_main_matches_one_process_per_call(tmp_path, capsys, monkeypatch):
    # help and usage text wrap at COLUMNS, so both sides get the same width
    monkeypatch.setenv("COLUMNS", "80")
    schur = write(tmp_path, "schur.txt", SCHUR)
    matrix = write(tmp_path, "m23.txt", TWO_BY_THREE)
    argvs = [
        (["kpr"], EXIT_USAGE),
        (["--help"], EXIT_HOLDS),
        (["kpr", schur, "--cap", "-1"], EXIT_USAGE),
        (["oracle", "solve", schur, "--colouring", "mod:2", "--bound", "10", "--json"], EXIT_HOLDS),
        (["doubly-ipr", matrix, "--json"], EXIT_HOLDS),
        # the full tree reports the unrecognised argument; then the oracle's own parser runs again
        (["oracle", "sweep", schur, "--colours", "2", "--bound", "5", "--bogus"], EXIT_USAGE),
        (["oracle", "falsify", schur, "--colours", "2", "--bound", "4", "--json"], EXIT_FAILS),
    ]
    in_process = []
    for argv, expected in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == expected, argv
        in_process.append((code, captured.out, captured.err))

    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(partreg.__file__))
    for (argv, _), result in zip(argvs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "partreg.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == result, argv
