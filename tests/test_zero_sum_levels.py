"""Search levels settled by subset sums, against the reference level scan.

A level whose unplaced columns carry no scalar takes its first zero-sum
block from meet-in-the-middle subset sums and charges the blocks a scan
would have examined.  The reference in closure_reference.py is that scan,
so verdicts, chains, block counts and caps must all match it exactly.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from closure_reference import reference_closure_search, reference_zero_column_subset
from partreg import (
    DEFAULT_PARTITION_CAP,
    NO,
    UNDECIDED,
    YES,
    OrderedPartition,
    PartitionCapExceeded,
    QMatrix,
    doubly_ipr_template,
    is_kpr,
    multiply_kpr_template,
    rational,
    zero_column_subset_exists,
)
from partreg.columns import FIXED_ONE, BlockCounter, ScalingTemplate, closure_search


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


def _outcome(search, template, cap):
    """The search's yields, then ("cap", c) when it was cut, and its block count."""
    if search is closure_search:
        counter = BlockCounter(cap)
        results = search(template, counter=counter)
        count = lambda: counter.spent
    else:
        counter = itertools.count()
        results = search(template, cap=cap, counter=counter)
        count = lambda: next(counter)
    found = []
    try:
        for partition, echelon in results:
            found.append((partition, echelon.rows))
    except PartitionCapExceeded as exceeded:
        return found + [("cap", exceeded.cap)], None
    return found, count()


def _assert_same_as_reference(template, rng):
    expected, blocks = _outcome(reference_closure_search, template, DEFAULT_PARTITION_CAP)
    assert _outcome(closure_search, template, DEFAULT_PARTITION_CAP) == (expected, blocks)
    for cap in (blocks, blocks - 1, rng.randint(1, blocks)):
        if cap >= 1:
            assert _outcome(closure_search, template, cap) == _outcome(reference_closure_search, template, cap)


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
