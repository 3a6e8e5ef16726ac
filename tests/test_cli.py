import json
import os
import subprocess
import sys

import pytest

import partreg
from conftest import vdw
from partreg import QMatrix
from partreg.cli import (
    EXIT_FAILS,
    EXIT_HOLDS,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    MatrixParseError,
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
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("1 2\n3\n")
    assert err.value.line == 2
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("1 x\n")
    assert err.value.line == 1
    with pytest.raises(MatrixParseError):
        parse_matrix("1/0\n")
    with pytest.raises(MatrixParseError):
        parse_matrix("1/-2\n")
    with pytest.raises(MatrixParseError):
        parse_matrix("1.5\n")
    with pytest.raises(MatrixParseError):
        parse_matrix("# nothing\n")


def test_parse_colouring_specs(tmp_path):
    assert parse_colouring_spec("mod:4").colour(7) == 3
    assert parse_colouring_spec("gamma:10").colour(3040567) == (0, 3, 0)
    assert parse_colouring_spec("startparity:2").colour(2) == 1
    table = write(tmp_path, "table.txt", "1 0\n2 1\n3 1\n4 0\n")
    assert parse_colouring_spec(f"table:{table}").colour(4) == 0
    with pytest.raises(ValueError):
        parse_colouring_spec("mystery:4")
    with pytest.raises(ValueError):
        parse_colouring_spec("mod")


# ------------------------------------------------------------------ decisions

def test_kpr_exit_codes(tmp_path, capsys):
    schur = write(tmp_path, "schur.txt", SCHUR)
    assert main(["kpr", schur]) == EXIT_HOLDS
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
    assert capsys.readouterr().err == "error: table colouring undefined at 3\n"


@pytest.mark.parametrize("table, message", [
    ("1 0 2\n", "colour table line 1: expected '<i> <colour>'"),
    ("1 0\n1 1\n", "colour table line 2: expected integer 2"),
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
    assert captured.err == f"error: {message}\n"


# ------------------------------------------------------------- parser reuse

def test_parser_is_built_once():
    assert build_parser() is build_parser()


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
