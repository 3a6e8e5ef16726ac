"""Decision procedures against brute force over every ordered partition.

The partitions come from the independent generator in conftest, so a NO
from the closure search is checked for completeness, not only a YES for
soundness.  Matrices are seeded and random, with at most 6 combined columns.
"""

import functools
import random

from conftest import brute_force_ordered_partitions, random_matrix, random_rational
from partreg import (
    NO,
    OrderedPartition,
    QMatrix,
    ScalarSet,
    YES,
    build_system,
    check_partition,
    doubly_ipr,
    doubly_ipr_template,
    doubly_kpr,
    enumerate_feasible_scalars,
    feasible_positive,
    is_ipr,
    is_ipr_template,
    is_kpr,
    multiply_kpr,
    multiply_kpr_template,
    scalar_union_over_partitions,
    verify_certificate,
)
from partreg.decisions import column_parts

@functools.cache
def all_partitions(v: int) -> tuple[OrderedPartition, ...]:
    return tuple(OrderedPartition(p) for p in sorted(brute_force_ordered_partitions(v)))


def brute_force_feasible(template) -> bool:
    return any(
        feasible_positive(build_system(template, p)) is not None
        for p in all_partitions(template.matrix.cols)
    )


def assert_decided_like_brute_force(decision, expected_yes: bool, template=None) -> None:
    assert decision.verdict == (YES if expected_yes else NO)
    if expected_yes:
        assert all(value > 0 for _, value in decision.scalars)
        assert verify_certificate(decision.assembled, decision.certificate)
        if template is not None:
            # the scalars solve the whole system of the certified partition
            system = build_system(template, decision.certificate.partition)
            assert tuple(v for _, v in decision.scalars) == feasible_positive(system).assignment


def test_is_kpr_matches_brute_force():
    rng = random.Random(101)
    verdicts = {YES: 0, NO: 0}
    for _ in range(60):
        M = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 6), max_num=2, max_den=1)
        expected = any(check_partition(M, p) is not None for p in all_partitions(M.cols))
        decision = is_kpr(M)
        assert_decided_like_brute_force(decision, expected)
        verdicts[decision.verdict] += 1
    assert min(verdicts.values()) >= 10, verdicts

    # Rational entries: the search clears denominators before it projects.
    rng = random.Random(109)
    verdicts = {YES: 0, NO: 0}
    fractional = 0
    for _ in range(60):
        M = random_matrix(
            rng, rng.randint(1, 3), rng.randint(1, 6), max_num=2, max_den=rng.randint(2, 3)
        )
        fractional += not M.is_integral()
        expected = any(check_partition(M, p) is not None for p in all_partitions(M.cols))
        decision = is_kpr(M)
        assert_decided_like_brute_force(decision, expected)
        verdicts[decision.verdict] += 1
    assert min(verdicts.values()) >= 10, verdicts
    assert fractional >= 40, fractional


def test_scaled_procedures_match_brute_force():
    rng = random.Random(103)
    verdicts = {YES: 0, NO: 0}
    for round_ in range(40):
        kind = round_ % 4
        rows = rng.randint(1, 2)
        combined = rng.choice((3, 4, 4, 5, 5, 6))  # 6 columns: 4683 partitions each
        if kind == 0:
            A = random_matrix(rng, rows, max(1, combined - rows), max_num=3, max_den=2)
            decision, template = doubly_ipr(A), doubly_ipr_template(A)
        elif kind == 1:
            A = random_matrix(rng, rows, max(1, combined - rows), max_num=3, max_den=2)
            decision, template = is_ipr(A), is_ipr_template(A)
        elif kind == 2:
            cols_a = rng.randint(1, combined - 1)
            A = random_matrix(rng, rows, cols_a, max_num=3, max_den=2)
            B = random_matrix(rng, rows, combined - cols_a, max_num=3, max_den=2)
            decision, template = doubly_kpr(A, B), multiply_kpr_template((A, B))
        else:
            matrices = [random_matrix(rng, rows, c, max_num=3, max_den=2) for c in (1, 1, combined - 2)]
            decision, template = multiply_kpr(matrices), multiply_kpr_template(matrices)
        assert_decided_like_brute_force(decision, brute_force_feasible(template), template)
        verdicts[decision.verdict] += 1
    assert min(verdicts.values()) >= 10, verdicts


def random_split_matrix(rng) -> QMatrix:
    """One or two one-row blocks of 1-2 columns on the diagonal, maybe with a
    zero column inserted; its doubly-IPR template has at most 5 columns."""
    while True:
        widths = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
        zero = rng.random() < 0.5
        if len(widths) + sum(widths) + zero <= 5:
            break
    rows = []
    for i, w in enumerate(widths):
        rows.append([0] * sum(widths[:i]) + [random_rational(rng, 3, 2) for _ in range(w)])
        rows[-1] += [0] * (sum(widths) - len(rows[-1]))
    if zero:
        at = rng.randint(0, sum(widths))
        rows = [row[:at] + [0] + row[at:] for row in rows]
    return QMatrix.of(rows)


def test_scalar_union_matches_brute_force():
    rng = random.Random(107)
    kinds, split = set(), [0, 0]
    # dense A split only where zero entries cut them, so the last 25 inputs
    # are block-diagonal
    for draw in range(50):
        if draw < 25:
            rows = rng.randint(1, 2)
            A = random_matrix(rng, rows, rng.randint(1, 5 - rows), max_num=3, max_den=2)
        else:
            A = random_split_matrix(rng)
        template = doubly_ipr_template(A)
        split[draw >= 25] += len(column_parts(template.matrix)) > 1
        expected = ScalarSet.empty()
        for p in all_partitions(template.matrix.cols):
            expected = expected.union(enumerate_feasible_scalars(template, p))
        union = scalar_union_over_partitions(template)
        assert union == expected, A
        kinds.add(union.kind)
    assert {"empty", "finite"} <= kinds, kinds
    assert split == [8, 20], split
