"""Mutation testing of named functions in src/ against the tier-1 suite.

Usage, from anywhere (standard library only; pytest does not collect this file):

    python tests/mutate.py _search_parts _shared_hits

Each name is a function or method of src/partreg (`Class.method` also works),
nested functions and lambdas included.  One mutant applies one operator at
one site: flip a comparison (== and !=, < and >=, > and <=, is and is not,
in and not in), swap + and -, swap and and or, add 1 to an integer constant,
drop a `continue`, a `break` or a `not`, or return None for a returned value.

The repository is copied once to a scratch directory.  The unmutated copy
runs tier-1 first and must pass; each mutant then rewrites its one function
in the copy (the rest of the file stays byte for byte) and runs tier-1 with
-x, one mutant at a time, under a timeout of three times the clean run; a run
that times out is stopped with every process it started.  A failing run kills
the mutant, a passing one lets it survive.  The report lists killed, survived
and timed out per function, then each survivor with its line in the original
file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "partreg"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]

FLIPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or",
}


def find_functions(tree: ast.Module, name: str) -> list[ast.FunctionDef]:
    """Every function of the module named `name` or `Class.name`, at any depth."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if not isinstance(child, ast.ClassDef) and name in (child.name, qualname):
                    found.append(child)
                visit(child, qualname + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def body_nodes(function: ast.FunctionDef) -> list[ast.AST]:
    """The function's statement nodes in walk order, less its docstring and annotations."""
    body = function.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return [node for statement in body for node in ast.walk(statement)]


def sites(function: ast.FunctionDef) -> list[tuple[int, int, str, int]]:
    """(node index, operand index, description, line) of each mutant of the function."""
    out = []
    for k, node in enumerate(body_nodes(function)):
        line = getattr(node, "lineno", function.lineno)
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                out.append((k, i, f"{SYMBOLS[type(op)]} -> {SYMBOLS[FLIPS[type(op)]]}", line))
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            out.append((k, 0, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[SWAPS[type(node.op)]]}", line))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((k, 0, f"{node.value} -> {node.value + 1}", line))
        elif isinstance(node, (ast.Continue, ast.Break)):
            out.append((k, 0, f"drop {type(node).__name__.lower()}", line))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((k, 0, "drop not", line))
        elif isinstance(node, ast.Return) and node.value is not None and not (
            isinstance(node.value, ast.Constant) and node.value.value is None
        ):
            out.append((k, 0, "return None", line))
    return out


def mutate(function: ast.FunctionDef, k: int, i: int) -> None:
    """Apply the mutant at (node index k, operand index i) to the function in place."""
    nodes = body_nodes(function)
    node = nodes[k]
    if isinstance(node, ast.Compare):
        node.ops[i] = FLIPS[type(node.ops[i])]()
    elif isinstance(node, (ast.BinOp, ast.BoolOp)):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, (ast.Continue, ast.Break)):
        replace(nodes, node, ast.Pass())
    elif isinstance(node, ast.UnaryOp):
        replace(nodes, node, node.operand)
    else:
        node.value = ast.Constant(None)


def replace(nodes: list[ast.AST], old: ast.AST, new: ast.AST) -> None:
    for parent in nodes:
        for field, value in ast.iter_fields(parent):
            if value is old:
                setattr(parent, field, new)
            elif isinstance(value, list) and any(item is old for item in value):
                value[[item is old for item in value].index(True)] = new


def rewritten(source: str, name: str, index: int, k: int, i: int) -> str:
    """The module source with only the index-th function called `name` mutated."""
    tree = ast.parse(source)
    function = find_functions(tree, name)[index]
    first = min([function.lineno] + [d.lineno for d in function.decorator_list])
    mutate(function, k, i)
    indent = " " * function.col_offset
    text = "".join(indent + line + "\n" for line in ast.unparse(function).splitlines())
    lines = source.splitlines(keepends=True)
    return "".join(lines[:first - 1]) + text + "".join(lines[function.end_lineno:])


def run_tier1(copy: Path, timeout: float | None) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.DEVNULL
    with subprocess.Popen(TIER1, cwd=copy, env=env, stdout=out, stderr=out, start_new_session=True) as run:
        try:
            return "survived" if run.wait(timeout) == 0 else "killed"
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)  # pytest and the processes its tests started
            run.wait()
            return "timed out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("functions", nargs="+", help="function or Class.method names in src/partreg")
    args = parser.parse_args(argv)

    mutants = []  # (function, module path, index among its namesakes, k, i, description, line)
    for name in args.functions:
        matched = False
        for path in sorted((ROOT / PACKAGE).glob("*.py")):
            for index, function in enumerate(find_functions(ast.parse(path.read_text()), name)):
                matched = True
                mutants += [(name, path, index, *site) for site in sites(function)]
        if not matched:
            parser.error(f"no function named {name!r} in {PACKAGE}")

    copy = Path(tempfile.mkdtemp(prefix="mutate-")) / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
    try:
        start = time.monotonic()
        if run_tier1(copy, None) != "survived":
            print("tier-1 fails on the unmutated copy; no mutant was run", file=sys.stderr)
            return 2
        timeout = 3 * (time.monotonic() - start)
        print(f"clean run {time.monotonic() - start:.1f} s; {len(mutants)} mutants, timeout {timeout:.0f} s", flush=True)
        results = []
        for name, path, index, k, i, what, line in mutants:
            target = copy / path.relative_to(ROOT)
            source = path.read_text()
            target.write_text(rewritten(source, name, index, k, i))
            try:
                outcome = run_tier1(copy, timeout)
            finally:
                target.write_text(source)
            results.append({"function": name, "file": path.name, "line": line, "mutant": what, "outcome": outcome})
            print(f"{outcome:9}  {name}  {path.name}:{line}  {what}", flush=True)
    finally:
        shutil.rmtree(copy.parent)

    print()
    for name in args.functions:
        outcomes = [r["outcome"] for r in results if r["function"] == name]
        counts = ", ".join(f"{outcomes.count(o)} {o}" for o in ("killed", "survived", "timed out"))
        print(f"{name}: {len(outcomes)} mutants, {counts}")
    for r in results:
        if r["outcome"] != "killed":
            print(f"{r['outcome']}: {r['function']}  {r['file']}:{r['line']}  {r['mutant']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
