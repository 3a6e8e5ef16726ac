"""Search levels settled without a full scan, against the reference level scan.

A level whose unplaced columns carry no scalar takes its first zero-sum
block from meet-in-the-middle subset sums and charges the blocks a scan
would have examined.  A scaled level of a search for positive scalars
skips the blocks that signs refute, or all of them at once by a row of one
strict sign.  The reference in closure_reference.py is the scan, so
verdicts, chains, block counts and caps must all match it exactly.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from closure_reference import reference_closure_search, reference_zero_column_subset
from conftest import brute_force_ordered_partitions
from partreg import (
    DEFAULT_PARTITION_CAP,
    NO,
    UNDECIDED,
    YES,
    OrderedPartition,
    PartitionCapExceeded,
    QMatrix,
    ScalarSet,
    doubly_ipr_template,
    doubly_kpr,
    enumerate_feasible_scalars,
    is_ipr_template,
    is_kpr,
    multiply_kpr_template,
    rational,
    scalar_union_over_partitions,
    zero_column_subset_exists,
)
from partreg.columns import FIXED_ONE, BlockCounter, ScalingTemplate, closure_search
from partreg.feasibility import has_positive_solution
from partreg.linalg import EqualityEchelon


def ones(n: int) -> QMatrix:
    return QMatrix.of([[1] * n])


def test_all_ones_rows_charge_every_block():
    # no block of 1x n sums to zero, so the NO examines all 2^n - 1 blocks
    assert is_kpr(ones(20)).verdict == NO
    assert is_kpr(ones(24), cap=2**24 - 1).verdict == NO
    for cap in (2**24 - 2, DEFAULT_PARTITION_CAP):
        decision = is_kpr(ones(24), cap=cap)
        assert decision.verdict == UNDECIDED and decision.cap == cap
    assert is_kpr(ones(30), cap=2**30 - 1).verdict == NO


def test_first_zero_sum_block_is_the_last_complement_across_halves():
    # The level total is 5.  Six complements of size 3 sum to it, taking
    # three, two or one column from the lower half {1, 2, 3}; the
    # lexicographically last, {3, 4, 5}, leaves the scan's first zero-sum
    # block {1, 2, 6}, its 26th: 1 + 6 + 15 larger blocks and 4 of size 3.
    A = QMatrix.of([[2, 2, 1, 2, 2, -4]])
    decision = is_kpr(A, cap=27)
    assert decision.verdict == YES
    assert decision.certificate.partition == OrderedPartition.from_one_based([[1, 2, 6], [3, 4, 5]])
    assert is_kpr(A, cap=26).verdict == UNDECIDED


def _outcome(search, template, cap, feasible=None):
    """The search's yields, then ("cap", c) when it was cut, and its block count.

    With a `feasible`, closure_search is told that it accepts only echelons
    with a positive point.
    """
    if search is closure_search:
        counter = BlockCounter(cap)
        results = search(template, feasible, counter=counter, positive=feasible is not None)
        count = lambda: counter.spent
    else:
        counter = itertools.count()
        results = search(template, feasible, cap=cap, counter=counter)
        count = lambda: next(counter)
    found = []
    try:
        for partition, echelon in results:
            found.append((partition, echelon.rows))
    except PartitionCapExceeded as exceeded:
        return found + [("cap", exceeded.cap)], None
    return found, count()


def _assert_same_as_reference(template, rng, feasible=None):
    expected, blocks = _outcome(reference_closure_search, template, DEFAULT_PARTITION_CAP, feasible)
    assert _outcome(closure_search, template, DEFAULT_PARTITION_CAP, feasible) == (expected, blocks)
    for cap in (blocks, blocks - 1, rng.randint(1, blocks)):
        if cap >= 1:
            assert _outcome(closure_search, template, cap, feasible) == _outcome(
                reference_closure_search, template, cap, feasible
            )


def test_unscaled_search_matches_the_level_scan():
    rng = random.Random(18)
    for _ in range(150):
        rows, cols = rng.randint(1, 3), rng.randint(6, 11)
        A = QMatrix.of([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        _assert_same_as_reference(ScalingTemplate(A, (FIXED_ONE,) * cols, 0), rng)


def test_scaled_search_matches_the_level_scan():
    # Scaled templates mix scanned levels with levels whose scaled columns
    # are all placed, and the two kinds draw on one counter.
    rng = random.Random(1018)
    for _ in range(60):
        rows, cols = rng.randint(1, 2), rng.randint(2, 6)
        A = QMatrix.of([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        width = rng.randint(1, 2)
        B = QMatrix.of([[rng.randint(-3, 3) for _ in range(width)] for _ in range(rows)])
        _assert_same_as_reference(multiply_kpr_template([A, B]), rng)
        _assert_same_as_reference(doubly_ipr_template(A), rng)


def _signed_row(rng, width, kind):
    # "strict": one strict sign; "weak": one sign with at least one zero
    sign = rng.choice((1, -1))
    if kind == "strict":
        return [sign * rng.randint(1, 3) for _ in range(width)]
    if kind == "weak":
        row = [sign * rng.randint(0, 3) for _ in range(width)]
        row[rng.randrange(width)] = 0
        return row
    return [rng.randint(-3, 3) for _ in range(width)]


def test_positive_search_matches_the_level_scan(monkeypatch):
    # Rows of one strict sign let a scaled level refute every block at once;
    # rows of one sign with zeros do not, so their blocks are refuted one by
    # one.  The reference scans every block and refutes by the positivity
    # check alone.  Counting eliminations shows that signs spare some
    # searches every elimination, and others only some.
    extends = [0]
    extend = EqualityEchelon.extend

    def counting(self, rows):
        extends[0] += 1
        return extend(self, rows)

    monkeypatch.setattr(EqualityEchelon, "extend", counting)
    rng = random.Random(2626)
    unscanned = skipped = 0
    for _ in range(40):
        rows = rng.randint(1, 2)
        widths = [rng.randint(1, 4), rng.randint(1, 3)] + [rng.randint(1, 2)] * rng.randint(0, 1)
        grid = [_signed_row(rng, sum(widths), rng.choice(("strict", "weak", "mixed"))) for _ in range(rows)]
        ends = list(itertools.accumulate(widths))
        matrices = [QMatrix.of([row[end - w:end] for row in grid]) for w, end in zip(widths, ends)]
        A = matrices[0]
        small = QMatrix.of([row[:3] for row in A.entries])
        for template in (multiply_kpr_template(matrices), doubly_ipr_template(A), is_ipr_template(small)):
            start = extends[0]
            _outcome(reference_closure_search, template, DEFAULT_PARTITION_CAP, has_positive_solution)
            by_scan = extends[0] - start
            _outcome(closure_search, template, DEFAULT_PARTITION_CAP, has_positive_solution)
            by_signs = extends[0] - start - by_scan
            assert by_signs <= by_scan
            unscanned += by_signs == 0 < by_scan
            skipped += 0 < by_signs < by_scan
            _assert_same_as_reference(template, rng, has_positive_solution)
    assert unscanned >= 40 and skipped >= 50, (unscanned, skipped)


def test_one_signed_levels_are_refuted_without_a_scan(monkeypatch):
    # ones(1 x n) beside c ones(1 x n): the root row is positive at every
    # column, so a NO charges all 2^(2n) - 1 root blocks at once
    assert doubly_kpr(ones(10), ones(10)).verdict == NO
    charges = []
    charge = BlockCounter.charge

    def recording(self, blocks=1):
        charges.append(blocks)
        charge(self, blocks)

    monkeypatch.setattr(BlockCounter, "charge", recording)
    assert doubly_kpr(ones(12), ones(12), cap=2**24 - 1).verdict == NO
    assert charges == [2**24 - 1]
    for cap in (2**24 - 2, DEFAULT_PARTITION_CAP):
        decision = doubly_kpr(ones(12), ones(12), cap=cap)
        assert decision.verdict == UNDECIDED and decision.cap == cap


def test_one_signed_unscaled_levels_are_refuted_without_positivity(monkeypatch):
    # No block of ones(1 x n) sums to zero, whatever the scalars: one charge
    # of all 2^n - 1 blocks, also for a search not told that they are positive.
    charges = []
    charge = BlockCounter.charge

    def recording(self, blocks=1):
        charges.append(blocks)
        charge(self, blocks)

    monkeypatch.setattr(BlockCounter, "charge", recording)
    assert is_kpr(ones(12)).verdict == NO
    assert charges == [2**12 - 1]
    charges.clear()
    template = ScalingTemplate(ones(12), (FIXED_ONE,) * 12, 0)
    assert list(closure_search(template, counter=BlockCounter(2**12 - 1))) == []
    assert charges == [2**12 - 1]


def test_scalar_union_takes_no_sign_rule():
    # (1 1 c c) admits only negative values, which the sign rules would
    # refute: the union, which asks for every value, scans its blocks.
    template = multiply_kpr_template([ones(2), ones(2)])
    expected = ScalarSet.empty()
    for blocks in sorted(brute_force_ordered_partitions(4)):
        expected = expected.union(enumerate_feasible_scalars(template, OrderedPartition(blocks)))
    assert expected == ScalarSet.finite((F(-2), F(-1), F(-1, 2)))
    assert scalar_union_over_partitions(template) == expected


def test_zero_column_subset_matches_the_subset_scan():
    rng = random.Random(301)
    values = [0, 0, 1, -1, 2, -2, 3, F(1, 2), F(-1, 2), F(3, 2), F(-2, 3)]
    for _ in range(300):
        rows, cols = rng.randint(1, 3), rng.randint(1, 10)
        A = QMatrix.of([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
        assert zero_column_subset_exists(A) == reference_zero_column_subset(A)


def test_rational_returns_a_fraction_as_it_is():
    value = F(3, 4)
    assert rational(value) is value
    with pytest.raises(TypeError):
        rational(0.75)
