"""The mutation harness tests/mutate.py, on a small module and without running any mutant."""

import ast

import mutate

SOURCE = '''\
import math


def target(xs, y=5):
    """Neither this docstring nor the default above is mutated."""
    for x in xs:
        if x == y and not x in xs:
            continue
        if x is None or x < 0:
            break
    return y + 1 - 2


class Box:
    def target(self):
        return 0


def other(a):
    return a != 1
'''


def test_sites_list_each_documented_operator():
    function = mutate.find_functions(ast.parse(SOURCE), "target")[0]
    assert sorted((line, what) for _, _, what, line in mutate.sites(function)) == [
        (7, "== -> !="), (7, "and -> or"), (7, "drop not"), (7, "in -> not in"),
        (8, "drop continue"),
        (9, "0 -> 1"), (9, "< -> >="), (9, "is -> is not"), (9, "or -> and"),
        (10, "drop break"),
        (11, "+ -> -"), (11, "- -> +"), (11, "1 -> 2"), (11, "2 -> 3"), (11, "return None"),
    ]


def test_rewritten_mutates_only_the_named_function():
    lines = SOURCE.splitlines(keepends=True)
    function = mutate.find_functions(ast.parse(SOURCE), "target")[0]
    before, after = "".join(lines[:function.lineno - 1]), "".join(lines[function.end_lineno:])
    original = ast.dump(function)
    for k, i, what, _ in mutate.sites(function):
        text = mutate.rewritten(SOURCE, "target", 0, k, i)
        assert text.startswith(before) and text.endswith(after), what
        mutant = mutate.find_functions(ast.parse(text), "target")[0]
        assert ast.dump(mutant) != original, what
    text = mutate.rewritten(SOURCE, "target", 0, *[s[:2] for s in mutate.sites(function) if s[2] == "and -> or"][0])
    assert text == SOURCE.replace("x == y and not", "x == y or not")


def test_a_class_method_resolves_by_its_qualified_name():
    tree = ast.parse(SOURCE)
    assert [f.lineno for f in mutate.find_functions(tree, "target")] == [4, 15]
    (method,) = mutate.find_functions(tree, "Box.target")
    assert method.lineno == 15
    assert [what for _, _, what, _ in mutate.sites(method)] == ["return None", "0 -> 1"]
    k, i, _, _ = mutate.sites(method)[1]
    assert mutate.rewritten(SOURCE, "Box.target", 0, k, i) == SOURCE.replace("return 0", "return 1")
