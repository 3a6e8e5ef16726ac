"""Decisions on templates whose column matroid splits into parts.

A matrix that is a direct sum, up to row operations, satisfies the columns
condition exactly when each part does, and a scalar shared by the parts
must suit all of them.  The inputs are seeded direct sums of two random
integer blocks with their rows mixed by unit-triangular transforms, so the
split is visible only after row reduction.  Verdicts are checked against
the parts decided alone, the scalar unions of the parts and of the whole
template, and the brute force over ordered partitions in conftest: up to 6
columns for is_kpr, and up to 4 template columns for the scaled
procedures, whose brute force solves one positive system per partition.
"""

import functools
import random
from fractions import Fraction

import pytest

from conftest import brute_force_ordered_partitions
from partreg import (
    FIXED_ONE,
    NO,
    OrderedPartition,
    PartitionCapExceeded,
    QMatrix,
    ScalarSet,
    ScalingTemplate,
    UNDECIDED,
    YES,
    build_system,
    check_partition,
    decide_columns_condition,
    doubly_ipr,
    doubly_ipr_template,
    doubly_kpr,
    feasible_positive,
    is_ipr,
    is_ipr_template,
    is_kpr,
    multiply_kpr,
    multiply_kpr_template,
    scalar_union_over_partitions,
    verify_certificate,
)
from partreg import decisions
from partreg.decisions import column_parts


@functools.cache
def all_partitions(v):
    return tuple(OrderedPartition(p) for p in sorted(brute_force_ordered_partitions(v)))


def brute_force_kpr(M):
    return any(check_partition(M, p) is not None for p in all_partitions(M.cols))


def brute_force_feasible(template):
    return any(
        feasible_positive(build_system(template, p)) is not None
        for p in all_partitions(template.matrix.cols)
    )


def admits_positive(scalar_set):
    return scalar_set.kind in ("all", "all_except") or any(v > 0 for v in scalar_set.values)


def direct_sum(first, second):
    c1, c2 = len(first[0]), len(second[0])
    return [row + [0] * c2 for row in first] + [[0] * c1 + row for row in second]


def mix_rows(rng, rows):
    # T @ rows for a random unit lower-triangular T, which keeps the row space
    mixed = [list(row) for row in rows]
    for i in range(1, len(rows)):
        for k in range(i):
            f = rng.randint(-2, 2)
            mixed[i] = [x + f * y for x, y in zip(mixed[i], rows[k])]
    return mixed


def random_block(rng, rows, cols):
    block = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
    if cols > 1 and rng.random() < 0.5:
        # all columns sum to zero, so the block is KPR in one block
        for row in block:
            row[-1] = -sum(row[:-1])
    return block


def diag(*d):
    return QMatrix.of([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))])


def clusters_of(template):
    return decisions._clusters(template, column_parts(template.matrix))


def part_rows(template, columns):
    return tuple(zip(*decisions._part_template(template, columns)[0].integer_columns))


def assert_certified(decision):
    assert all(value > 0 for _, value in decision.scalars)
    assert verify_certificate(decision.assembled, decision.certificate)


def test_column_parts_are_read_after_row_reduction():
    mixed = QMatrix.of([[1, 1, 0, 0, 0], [2, 2, 1, -1, 0]])
    assert column_parts(mixed) == [(0, 1), (2, 3), (4,)]
    # each part is searched on the input rows that do not vanish on it
    template = ScalingTemplate(mixed, (FIXED_ONE,) * 5, 0)
    assert [part_rows(template, c) for c in column_parts(mixed)] == [((1, 1), (2, 2)), ((1, -1),), ()]
    template = doubly_ipr_template(diag(1, 2, 3))
    assert [len(part_rows(template, c)) for c in column_parts(template.matrix)] == [1, 1, 1]
    # one row: the non-zero columns are one part, each zero column another
    assert column_parts(QMatrix.of([[0, 2, -1, 0]])) == [(0,), (1, 2), (3,)]
    assert column_parts(QMatrix.of([[1, 2, 3], [4, 5, 6]])) == [(0, 1, 2)]
    # independent columns are coloops: each is a part of its own
    assert column_parts(QMatrix.of([[1, 2], [3, 4]])) == [(0,), (1,)]


def test_one_row_and_identity_block_parts_need_no_elimination(monkeypatch):
    # A one-row matrix, or a template whose rows each own a column (the -I
    # of doubly_ipr's template), is already reduced: column_parts reads its
    # rows as they are.  Any other matrix pays one extend.
    extended = []
    extend = decisions.EqualityEchelon.extend
    monkeypatch.setattr(
        decisions.EqualityEchelon, "extend", lambda echelon, rows: extended.append(rows) or extend(echelon, rows)
    )
    assert column_parts(doubly_ipr_template(diag(1, 2, 3))) == [(0, 3), (1, 4), (2, 5)]
    assert column_parts(QMatrix.of([[1, -2, 3, 0]])) == [(0, 1, 2), (3,)]
    assert extended == []
    assert column_parts(QMatrix.of([[1, 2], [3, 4]])) == [(0,), (1,)]
    assert len(extended) == 1


def test_direct_sums_decide_like_their_parts_and_the_brute_force():
    rng = random.Random(211)
    counts = {"kpr": {YES: 0, NO: 0}, "brute": 0, "scaled_brute": 0, "scaled_yes": 0, "split": 0}
    for _ in range(200):
        first = random_block(rng, rng.randint(1, 2), rng.randint(1, 4))
        second = random_block(rng, rng.randint(1, 2), rng.randint(1, 4))
        plain = direct_sum(first, second)
        # B = B1 + B2 gives (A  cB) the parts (A_i  cB_i), which share c;
        # one transform mixes the rows of both
        B = direct_sum(random_block(rng, len(first), 1), random_block(rng, len(second), 1))
        mixed = mix_rows(rng, [a + b for a, b in zip(plain, B)])
        M = QMatrix.of([row[:-2] for row in mixed])
        counts["split"] += len(column_parts(M)) >= 2

        decision = is_kpr(M)
        alone = is_kpr(QMatrix.of(first)).is_yes and is_kpr(QMatrix.of(second)).is_yes
        assert decision.verdict == (YES if alone else NO)
        counts["kpr"][decision.verdict] += 1
        if decision.is_yes:
            assert_certified(decision)
        # the columns-condition certificate is is_kpr's
        certificate = decide_columns_condition(M)
        assert certificate == decision.certificate
        assert certificate is None or verify_certificate(M, certificate)
        if M.cols <= 6:
            assert decision.is_yes == brute_force_kpr(M)
            counts["brute"] += 1

        # (A  -bI) splits with A, so the image questions take A unmixed.
        # The scalar unions split the same way, and intersect their parts.
        A = QMatrix.of(plain)
        decision = doubly_ipr(A)
        assert decision.is_yes == admits_positive(scalar_union_over_partitions(doubly_ipr_template(A)))
        if decision.is_yes:
            assert_certified(decision)
            b = decision.scalar("b")
            for block in (first, second):
                assert scalar_union_over_partitions(doubly_ipr_template(QMatrix.of(block))).contains(b)
            counts["scaled_yes"] += 1
        if A.cols + A.rows <= 4:
            assert decision.is_yes == brute_force_feasible(doubly_ipr_template(A))
            counts["scaled_brute"] += 1

        decision = is_ipr(A)
        assert decision.is_yes == (is_ipr(QMatrix.of(first)).is_yes and is_ipr(QMatrix.of(second)).is_yes)
        if decision.is_yes:
            assert_certified(decision)
            counts["scaled_yes"] += 1
        if A.cols + A.rows <= 4:
            assert decision.is_yes == brute_force_feasible(is_ipr_template(A))
            counts["scaled_brute"] += 1

        pair = (M, QMatrix.of([row[-2:] for row in mixed]))
        decision = doubly_kpr(*pair)
        template = multiply_kpr_template(pair)
        assert decision.is_yes == admits_positive(scalar_union_over_partitions(template))
        if decision.is_yes:
            assert_certified(decision)
            counts["scaled_yes"] += 1
        if template.matrix.cols <= 4:
            assert decision.is_yes == brute_force_feasible(template)
            counts["scaled_brute"] += 1
    assert counts["split"] == 200
    assert min(counts["kpr"].values()) >= 30, counts
    assert counts["brute"] >= 150 and counts["scaled_brute"] >= 30, counts
    assert counts["scaled_yes"] >= 100, counts


def test_shared_scalar_takes_the_first_value_every_part_admits():
    # rows admit b in {2} and {2}: YES at b = 2; the parts' first blocks merge
    decision = doubly_ipr(diag(2, 2))
    assert decision.verdict == YES and decision.scalar("b") == 2
    assert decision.certificate.partition == OrderedPartition.from_one_based([[1, 2, 3, 4]])
    # (1 2) and (2 1) each admit b in {1, 2, 3}; the first part's first
    # block pins b = 3, the second part's first block at b = 3 suits it, and
    # the merged chain is the one block of all six columns
    assert scalar_union_over_partitions(doubly_ipr_template(QMatrix.of([[1, 2]]))).values == (1, 2, 3)
    decision = doubly_ipr(QMatrix.of([[1, 2, 0, 0], [0, 0, 2, 1]]))
    assert decision.verdict == YES and decision.scalar("b") == 3
    assert decision.certificate.partition == OrderedPartition.from_one_based([[1, 2, 3, 4, 5, 6]])
    assert_certified(decision)
    # (1 1 / 0 1) is one part and the row (1) another; both admit b = 1
    A = QMatrix.of([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    decision = doubly_ipr(A)
    assert decision.verdict == YES
    assert_certified(decision)
    union = scalar_union_over_partitions(doubly_ipr_template(QMatrix.of([[1, 1], [0, 1]])))
    assert union.contains(decision.scalar("b")) and decision.scalar("b") == 1


def test_a_yes_stops_every_shared_scalar_part_at_its_first_hit():
    # (1 ... 1 -b) has 2^13 - 1 root blocks, and its first, all 13 columns,
    # pins b = 12 as the part (12 -b) does: a YES within a small cap
    A = QMatrix.of([[1] * 12 + [0], [0] * 12 + [12]])
    decision = doubly_ipr(A, cap=1000)
    assert decision.verdict == YES and decision.scalar("b") == 12
    assert_certified(decision)
    twice = QMatrix.of([[1] * 12 + [0] * 12, [0] * 12 + [1] * 12])
    decision = doubly_ipr(twice, cap=1000)
    assert decision.verdict == YES and decision.scalar("b") == 12
    assert decision.certificate.partition.block_count == 1
    # a value that a later part refuses sends the first part on: (1 2 -b)
    # pins b = 3 first, which (1 1 -b) refuses, and b = 1 next, which it admits
    decision = doubly_ipr(QMatrix.of([[1, 2, 0, 0], [0, 0, 1, 1]]))
    assert decision.verdict == YES and decision.scalar("b") == 1
    assert_certified(decision)


def test_parts_sharing_two_scalars_stay_one_search():
    # (1 0 / 0 1), c_2 (-1 / 0) and c_3 (0 / -1): each scalar joins one row's
    # part, and the parts share none, so each takes its first hit
    matrices = [QMatrix.of([[1, 0], [0, 1]]), QMatrix.of([[-1], [0]]), QMatrix.of([[0], [-1]])]
    assert [len(c) for c in clusters_of(multiply_kpr_template(matrices))] == [1, 1]
    decision = multiply_kpr(matrices)
    assert decision.verdict == YES and decision.scalars == (("c_2", 1), ("c_3", 1))
    assert_certified(decision)
    # with -I under both scalars, both rows carry c_2 and c_3: one search
    minus = QMatrix.of([[-1, 0], [0, -1]])
    matrices = [QMatrix.of([[1, 0], [0, 2]]), minus, minus]
    clusters = clusters_of(multiply_kpr_template(matrices))
    assert clusters == [[(0, 1, 2, 3, 4, 5)]]
    decision = multiply_kpr(matrices)
    assert decision.verdict == YES
    assert_certified(decision)


def test_a_lone_two_scalar_part_takes_its_first_hit_beside_another_cluster():
    # (0 1 1 / 0 1 0), c_2 (-2 / 1) and c_3 (-2 / -1): the zero column is a
    # cluster of its own, and the other four columns are one part under both
    # scalars, whose echelon pins no single value to read
    matrices = [QMatrix.of([[0, 1, 1], [0, 1, 0]]), QMatrix.of([[-2], [1]]), QMatrix.of([[-2], [-1]])]
    template = multiply_kpr_template(matrices)
    assert clusters_of(template) == [[(0,)], [(1, 2, 3, 4)]]
    assert decisions._part_template(template, (1, 2, 3, 4))[1] == [0, 1]
    decision = multiply_kpr(matrices)
    assert decision.verdict == YES and decision.scalars == (("c_2", 1), ("c_3", 1))
    assert decision.certificate.partition == OrderedPartition.from_one_based([[1, 2, 3, 5], [4]])
    assert_certified(decision)


def test_later_parts_solve_only_the_value_the_first_part_pins(monkeypatch):
    # Row 1 admits b = 1, and its b = 0 block, raw row (1, 0), is refuted by
    # its signs before any positivity check; no later row checks a system
    # for a value outside {1}.
    checked = []
    has_positive_solution = decisions.has_positive_solution

    def recording(echelon):
        checked.append(echelon.rows)
        return has_positive_solution(echelon)

    monkeypatch.setattr(decisions, "has_positive_solution", recording)
    assert doubly_ipr(diag(*range(1, 9))).verdict == NO
    assert checked == [((1, -1),)]


def test_diagonal_doubly_ipr_is_no_within_a_small_cap():
    # Row i admits only b = i.  Unsplit, the search stays UNDECIDED at a cap
    # of 2000 candidate blocks; split, two 2-column parts settle it.
    assert doubly_ipr(diag(*range(1, 13)), cap=200).verdict == NO
    assert doubly_ipr(diag(*range(1, 21)), cap=200).verdict == NO


def test_row_mixed_ones_is_no_within_a_small_cap():
    # ones(8) + ones(8) with the second row mixed into the first: unsplit,
    # the root level alone has 2^16 - 1 candidate blocks
    M = QMatrix.of([[1] * 8 + [0] * 8, [1] * 16])
    assert is_kpr(M, cap=1000).verdict == NO
    # each part is exhausted against the one cap: 255 blocks do not fit in 200
    decision = is_kpr(M, cap=200)
    assert decision.verdict == UNDECIDED and decision.cap == 200


def test_parts_draw_on_one_cap():
    # (1 1 1 1 1 1 -1) reaches its first hit, {1, 7}, at the 106th block
    row = [1, 1, 1, 1, 1, 1, -1]
    assert is_kpr(QMatrix.of([row]), cap=106).verdict == YES
    assert is_kpr(QMatrix.of([row]), cap=105).verdict == UNDECIDED
    twice = QMatrix.of([row + [0] * 7, [0] * 7 + row])
    assert is_kpr(twice, cap=211).verdict == UNDECIDED
    assert is_kpr(twice, cap=212).verdict == YES


def test_scalar_union_is_searched_part_by_part():
    # Each row (i  -b) of (diag(1..k)  -bI) admits only b = i, in 3 blocks,
    # so the non-zero values are gone after two parts.  The value 0 is asked
    # of the fixed columns diag(1..k), split into one-column parts, and its
    # first part, the column (1 0 ... 0), has no zero-sum block: 6 + 1
    # blocks at every k.  A first hit on the whole of (diag(1..k) | 0)
    # charges about (4^k + C(2k, k))/2 blocks, over the default cap from
    # k = 13.
    for k in (8, 13, 20):
        template = doubly_ipr_template(diag(*range(1, k + 1)))
        assert scalar_union_over_partitions(template) == ScalarSet.empty()
        assert scalar_union_over_partitions(template, cap=7) == ScalarSet.empty()
        with pytest.raises(PartitionCapExceeded):
            scalar_union_over_partitions(template, cap=6)


def test_scalar_union_admits_zero_exactly_when_the_matrix_is_kpr():
    # (A | 0) satisfies the columns condition exactly when A does, since
    # the zero columns join the first block; is_kpr decides A on its own.
    rng = random.Random(2323)
    kinds = [0, 0]
    for draw in range(120):
        if draw % 2:
            first = random_block(rng, rng.randint(1, 3), rng.randint(1, 3))
            second = random_block(rng, rng.randint(1, 3), rng.randint(1, 3))
            A = QMatrix.of(mix_rows(rng, direct_sum(first, second)))
        else:
            rows = rng.randint(1, 3)
            A = QMatrix.of(random_block(rng, rows, rng.randint(1, 12 - rows)))
        kpr = is_kpr(A).is_yes
        assert scalar_union_over_partitions(doubly_ipr_template(A)).contains(0) == kpr
        kinds[kpr] += 1
    assert min(kinds) >= 20  # both answers are drawn


def test_scalar_union_decides_zero_like_the_matrix_scaled_by_zero():
    # The union decides 0 on the fixed columns alone; the reference scales
    # every scaled column by 0 and asks is_kpr of the whole matrix.  Drawn
    # on doubly-IPR templates, one-scalar pairs (A B) with fixed columns
    # that are sometimes zero, and templates with every column scaled.
    rng = random.Random(4242)
    admitted = [0, 0, 0]  # per kind of template, 50 draws each
    for draw in range(150):
        rows = rng.randint(1, 3)
        A = random_block(rng, rows, rng.randint(1, 7 - rows))
        if draw % 3 == 0:
            template = doubly_ipr_template(QMatrix.of(mix_rows(rng, A)))
        elif draw % 3 == 1:
            if rng.random() < 0.25:
                for row in A:
                    row[0] = 0
            B = random_block(rng, rows, rng.randint(1, 3))
            template = multiply_kpr_template((QMatrix.of(A), QMatrix.of(B)))
        else:
            M = QMatrix.of(A)
            template = ScalingTemplate(M, (0,) * M.cols, 1)
        union = scalar_union_over_partitions(template)
        zero = is_kpr(template.scaled_matrix([Fraction(0)])).is_yes
        assert union.contains(0) == zero, (template, union)
        admitted[draw % 3] += zero
    assert 10 <= admitted[0] <= 40 and 10 <= admitted[1] <= 40  # both answers are drawn
    assert admitted[2] == 50  # scaled by 0, every column is zero
