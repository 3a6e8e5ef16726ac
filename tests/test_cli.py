import json
import os
import random
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


class NoParser:
    """An argparse.ArgumentParser stand-in that fails the test if main builds a parser."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a valid argv built an argparse parser")


def write_leaf_inputs(tmp_path, capsys):
    """The files that COMMAND_PATHS and the oracle workload name, written to tmp_path."""
    for name, text in [("a.txt", SCHUR), ("b.txt", SCHUR), ("schur.txt", SCHUR), ("one_two.txt", "1 2\n"),
                       ("diag12.txt", "1 0\n0 2\n"), ("neg_identity2.txt", "-1 0\n0 -1\n")]:
        write(tmp_path, name, text)
    assert main(["kpr", "a.txt", "--json"]) == EXIT_HOLDS
    write(tmp_path, "c.json", json.dumps(json.loads(capsys.readouterr().out)["certificate"]))


def test_a_valid_argv_builds_no_parser(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_leaf_inputs(tmp_path, capsys)
    tree = build_parser.cache_info()
    monkeypatch.setattr(cli.argparse, "ArgumentParser", NoParser)
    argvs = [[*path, *arguments] for path, (arguments, _) in COMMAND_PATHS.items()] + [
        # the oracle workload's three shapes
        ["oracle", "solve", "diag12.txt", "neg_identity2.txt", "--colouring", "startparity:2", "--bound",
         "1024", "--json"],
        ["oracle", "sweep", "schur.txt", "--colours", "3", "--bound", "13", "--json"],
        ["oracle", "falsify", "schur.txt", "--colours", "2", "--bound", "4", "--json"],
    ]
    for argv in argvs:
        assert main(argv) in (EXIT_HOLDS, EXIT_FAILS, EXIT_UNDECIDED), argv
        assert capsys.readouterr().err == "", argv
    assert build_parser.cache_info() == tree


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


@pytest.mark.parametrize("case", [
    ["{files}", "{int}", "6"], ["{files}", "{own}", "x", "{int}", "6"],
    ["{files}", "{own}", "{value}", "{int}=6"], ["{files}", "{own}", "{value}", "{abbreviated}", "6"],
    ["{own}", "{value}", "{int}", "6", "--", "{files}"],
    ["{int}", "6", "{own}", "{value}", "--", "{files}", "{files}"],
], ids=["missing-option", "own-value", "equals", "abbreviated", "dashes", "dashes-two-files"])
@pytest.mark.parametrize("path", list(COMMAND_PATHS), ids=" ".join)
def test_leaves_parse_as_the_full_tree(tmp_path, capsys, monkeypatch, path, case):
    # --help, a bad integer and an unknown option are test_usage_errors_match_the_full_parser's
    # cases; usage text wraps at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    write_leaf_inputs(tmp_path, capsys)
    arguments, integer_option = COMMAND_PATHS[path]
    files = [arg for arg in arguments if arg.endswith((".txt", ".json"))]
    # its own option and value: the first option that is not the integer one, else --json alone
    own = arguments[len(files):len(files) + 2] if len(arguments) > len(files) + 2 else ["--json", ""]
    fields = {"files": " ".join(files), "own": own[0], "value": own[1], "int": integer_option,
              "abbreviated": integer_option[:-1]}
    tail = [arg for template in case for arg in template.format(**fields).split(" ") if arg]
    argv = [*path, *tail]
    through_leaf = (main(argv), *capsys.readouterr())
    with monkeypatch.context() as patched:  # no leaf reads argv, so the full tree parses it
        patched.setattr(cli._Leaf, "read", lambda leaf, args: None)
        assert (main(argv), *capsys.readouterr()) == through_leaf
    args = (cli._ORACLE_COMMANDS if path[0] == "oracle" else cli.COMMANDS)[path[-1]][1].read(tail)
    if args is not None:  # the leaf gives the handler the fields that the tree gives it
        tree_args = build_parser().parse_args(argv)
        assert vars(args) == {key: v for key, v in vars(tree_args).items() if not key.endswith("command")}


def test_the_leaves_match_the_full_tree_on_seeded_argvs(tmp_path, capsys, monkeypatch):
    # usage text wraps at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    write_leaf_inputs(tmp_path, capsys)
    heads = [[name] for name in cli.COMMANDS] + [["oracle", name] for name in cli._ORACLE_COMMANDS] + [
        ["bogus"], []]
    pool = ["--json", "--cap", "--colouring", "--bound", "--colours", "--cap=5", "--bou", "--col", "--js",
            "-h", "--", "-", "-1", "--bogus", "a.txt", "one_two.txt", "diag12.txt", "c.json",
            "5", "x", "-2", " 3", "mod:3", "startparity:2"]
    rng = random.Random(40)
    argvs = []
    for _ in range(3000):
        # a command path's valid argv, or a head alone, with one to three edits after the head
        head = rng.choice(heads)
        argv = [*head, *COMMAND_PATHS.get(tuple(head), ([], None))[0]]
        for _ in range(rng.randint(1, 3)):
            at, edit = rng.randint(len(head), len(argv)), rng.random()
            if edit < 0.5:
                argv.insert(at, rng.choice(pool))
            elif at < len(argv):
                argv[at:at + 1] = [rng.choice(pool)] if edit < 0.75 else []
        argvs.append(argv)
    read, leaf_read = [], cli._Leaf.read

    def counted_read(leaf, args):
        read.append(leaf_read(leaf, args))
        return read[-1]

    monkeypatch.setattr(cli._Leaf, "read", counted_read)
    with_leaves = [(main(argv), *capsys.readouterr()) for argv in argvs]
    monkeypatch.setattr(cli._Leaf, "read", lambda leaf, args: None)
    tree_alone = [(main(argv), *capsys.readouterr()) for argv in argvs]
    for argv, got, expected in zip(argvs, with_leaves, tree_alone):
        assert got == expected, argv
    assert sum(args is not None for args in read) > 300


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
