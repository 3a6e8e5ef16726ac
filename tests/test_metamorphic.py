"""Metamorphic relations: changes of a golden input that must keep its verdict.

Every uncapped decision of tests/golden/answers.jsonl whose stored verdict
is YES or NO is decided again after seeded changes that cannot change the
answer:

- is_kpr, doubly_kpr and multiply_kpr ask whether (A_1 c_2 A_2 ...) is
  kernel partition regular for some positive c.  A row permutation or an
  elementary row operation applied to every block alike keeps the kernel,
  and the columns condition does not depend on the order of the columns,
  so a column permutation within each block keeps the verdict too.
- doubly_kpr(A, B) and doubly_kpr(B, A): (B cA) is c times (A (1/c)B) with
  its blocks swapped.
- is_ipr and doubly_ipr: a row permutation permutes the entries of Ax, and
  a column permutation the entries of x; (PA -bI) is (A -bI) with its rows
  and the identity's columns permuted alike.
- is_ipr: a duplicated row repeats an entry of Ax.

The number of cases each relation checks is pinned, so a change to the
golden file or to the relations shows here.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import partreg as pr
from make_golden import GOLDEN_PATH

KERNEL = ("is_kpr", "doubly_kpr", "multiply_kpr")


def golden_decisions():
    """(procedure, matrices, verdict) of each uncapped YES or NO golden decision."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            case = json.loads(line)
            if case["kind"] != "decision" or case["input"]["cap"] is not None:
                continue
            verdict = case["output"]["decision"]["verdict"]
            if verdict in (pr.YES, pr.NO):
                matrices = [[[Fraction(x) for x in row] for row in m] for m in case["input"]["matrices"]]
                yield case["input"]["procedure"], matrices, verdict


def decide(procedure, matrices):
    blocks = [pr.QMatrix.of(m) for m in matrices]
    if procedure == "multiply_kpr":
        return pr.multiply_kpr(blocks).verdict
    return getattr(pr, procedure)(*blocks).verdict


def permute_rows(m, order):
    return [m[i] for i in order]


def permute_columns(rng, m):
    order = rng.sample(range(len(m[0])), len(m[0]))
    return [[row[j] for j in order] for row in m]


def row_operation(rng, rows):
    """An elementary row operation: add k times one row to another, or scale
    the only row by a non-zero k."""
    k = rng.choice((-2, -1, 2, 3))
    if rows == 1:
        return lambda m: [[k * x for x in m[0]]]
    i, j = rng.sample(range(rows), 2)
    return lambda m: [[x + k * y for x, y in zip(row, m[j])] if r == i else row for r, row in enumerate(m)]


def changes(rng, procedure, matrices):
    """(relation, matrices) of each change that must keep the verdict."""
    rows = len(matrices[0])
    if rows > 1:
        order = rng.sample(range(rows), rows)
        yield "row permutation", [permute_rows(m, order) for m in matrices]
    if any(len(m[0]) > 1 for m in matrices):
        yield "column permutation", [permute_columns(rng, m) for m in matrices]
    if procedure in KERNEL:
        operation = row_operation(rng, rows)
        yield "row operation", [operation(m) for m in matrices]
    if procedure == "doubly_kpr":
        yield "swapped pair", matrices[::-1]
    if procedure == "is_ipr":
        (m,) = matrices
        i, at = rng.randrange(rows), rng.randint(0, rows)
        yield "duplicated row", [m[:at] + [m[i]] + m[at:]]


def test_golden_verdicts_survive_the_metamorphic_relations():
    rng = random.Random(1806)
    checked, changed, decisions = Counter(), [], 0
    for procedure, matrices, verdict in golden_decisions():
        decisions += 1
        for relation, changed_matrices in changes(rng, procedure, matrices):
            checked[procedure, relation] += 1
            if decide(procedure, changed_matrices) != verdict:
                changed.append((procedure, relation, matrices, changed_matrices))
    assert not changed, f"{len(changed)} verdicts changed, first: {changed[0]}"
    assert dict(checked) == {
        ("is_kpr", "row permutation"): 588,
        ("is_kpr", "row operation"): 1228,
        ("is_kpr", "column permutation"): 1228,
        ("doubly_kpr", "row permutation"): 460,
        ("doubly_kpr", "row operation"): 700,
        ("doubly_kpr", "column permutation"): 700,
        ("doubly_kpr", "swapped pair"): 700,
        ("multiply_kpr", "row permutation"): 300,
        ("multiply_kpr", "row operation"): 300,
        ("multiply_kpr", "column permutation"): 300,
        ("is_ipr", "row permutation"): 380,
        ("is_ipr", "column permutation"): 540,
        ("is_ipr", "duplicated row"): 540,
        ("doubly_ipr", "row permutation"): 380,
        ("doubly_ipr", "column permutation"): 560,
    }
    assert decisions == 3328 and sum(checked.values()) == 8904
