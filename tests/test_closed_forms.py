"""Rado's single-equation theorem as an anchor past brute force.

One row a is kernel partition regular exactly when some non-empty set of
its entries sums to zero (Rado 1933; Graham, Rothschild and Spencer,
Ramsey Theory, ch. 3).  With a positive scalar c, the row (a  c b) has
such a set for some c exactly when a or b has one, or a and b hold entries
of opposite signs: a sum from a plus c times a sum from b vanishes only
when the two sums have opposite signs.  For rows a_1, ..., a_k of non-zero
entries, k >= 2, with a positive scalar on each row after the first, that
reads: some entries of both signs appear among them.  Two of opposite
signs in different rows cancel at one ratio of their scalars, and a row
holding both signs has one opposite to an entry of any other row.  Neither
form runs a search, so they pin verdicts at widths where the brute-force
references cannot run.
The same reading gives the one-row forms of the scaled procedures: the
scalar union of (a  -b) is every rational when a has a zero-sum set and
otherwise the non-empty subset sums of a; doubly_ipr(a) is YES exactly
when a has a zero-sum set or a positive entry; is_ipr(a) exactly when a
has a positive entry.  Each verdict must equal the closed form or be
UNDECIDED (for the union, reach the cap), and the number of UNDECIDED
cases is pinned exactly: a change to the search's budget moves it.
"""

import random

from partreg import (
    NO,
    UNDECIDED,
    PartitionCapExceeded,
    QMatrix,
    ScalarSet,
    doubly_ipr,
    doubly_ipr_template,
    doubly_kpr,
    is_ipr,
    is_kpr,
    multiply_kpr,
    scalar_union_over_partitions,
    verify_certificate,
)


def subset_sums(entries) -> set[int]:
    # every sum of a non-empty subset, grown one entry at a time
    sums: set[int] = set()
    for x in entries:
        sums |= {x} | {s + x for s in sums}
    return sums


def zero_sum_subset(entries) -> bool:
    return 0 in subset_sums(entries)


def opposite_signs(a, b) -> bool:
    return (max(a) > 0 and min(b) < 0) or (min(a) < 0 and max(b) > 0)


def _row(rng, width):
    """Non-zero entries: mixed signs, one sign, or multiples of 5 beside a few -1s."""
    kind = rng.choice(("mixed", "one-signed", "residue"))
    if kind == "mixed":
        row = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(width)]
    elif kind == "one-signed":
        row = [rng.randint(1, 9) for _ in range(width)]
    else:  # a zero sum needs five -1s and a 5
        ones = min(width - 1, rng.randint(1, 5))
        row = [-1] * ones + [5 * rng.randint(1, 9) for _ in range(width - ones)]
        rng.shuffle(row)
    return [-x for x in row] if rng.random() < 0.5 else row


def _decided(decision, expected: bool) -> bool:
    """Whether the decision has a verdict, which must then be the closed form's."""
    if decision.verdict == UNDECIDED:
        return False
    assert decision.is_yes == expected
    assert not decision.is_yes or verify_certificate(decision.assembled, decision.certificate)
    return True


def test_one_row_is_kpr_is_a_zero_sum_subset():
    # a one-signed row past 23 columns is charged its 2^r - 1 > 10^7 blocks at once
    rng = random.Random(41)
    undecided = 0
    for _ in range(200):
        a = _row(rng, rng.randint(1, 30))
        undecided += not _decided(is_kpr(QMatrix.of([a])), zero_sum_subset(a))
    assert undecided == 26


def test_one_row_doubly_kpr_is_rados_form_for_a_pair():
    rng = random.Random(4141)
    undecided = 0
    for _ in range(150):
        a, b = _row(rng, rng.randint(1, 10)), _row(rng, rng.randint(1, 10))
        decision = doubly_kpr(QMatrix.of([a]), QMatrix.of([b]))
        expected = zero_sum_subset(a) or zero_sum_subset(b) or opposite_signs(a, b)
        undecided += not _decided(decision, expected)
    assert undecided == 0


def test_one_signed_pairs_are_settled_by_the_row_rule():
    # no zero sum and no opposite signs: NO, charged all 2^(n+m) - 1 blocks
    # in one call, so UNDECIDED exactly when that passes the 10^7 cap
    rng = random.Random(414141)
    undecided = 0
    for _ in range(100):
        sign = rng.choice((1, -1))
        a, b = ([sign * rng.randint(1, 9) for _ in range(rng.randint(1, 20))] for _ in range(2))
        decision = doubly_kpr(QMatrix.of([a]), QMatrix.of([b]))
        assert (decision.verdict == NO) == (len(a) + len(b) < 24)
        undecided += not _decided(decision, False)
    assert undecided == 45


def test_one_row_multiply_kpr_is_both_signs_among_the_rows():
    # k = 2..4 rows, some made one-signed; a one-signed set of 24 or more
    # columns is charged its 2^n - 1 blocks at once and so is UNDECIDED
    rng = random.Random(43)
    undecided = yes = 0
    for _ in range(150):
        rows = [_row(rng, rng.randint(1, 8)) for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.4:
            sign = rng.choice((1, -1))
            rows = [[sign * abs(x) for x in row] for row in rows]
        entries = [x for row in rows for x in row]
        expected = max(entries) > 0 > min(entries)
        undecided += not _decided(multiply_kpr([QMatrix.of([row]) for row in rows]), expected)
        yes += expected
    assert undecided == 4
    assert yes == 84  # of 150, the rest one-signed


def test_one_row_scalar_union_is_its_subset_sums():
    # (a  -b) has a zero-sum set at b != 0 exactly when a has one or b is a
    # sum from a; at b = 0 its last column is zero, so exactly when a has one
    rng = random.Random(42)
    undecided = every = 0
    for _ in range(300):
        a = _row(rng, rng.randint(1, 12))
        try:
            union = scalar_union_over_partitions(doubly_ipr_template(QMatrix.of([a])))
        except PartitionCapExceeded:
            undecided += 1
            continue
        if zero_sum_subset(a):
            assert union == ScalarSet.all_rationals()
            every += 1
        else:
            assert union == ScalarSet.finite(tuple(subset_sums(a)))
    assert undecided == 0
    assert every == 63  # of 300, the rest finite


def test_one_row_doubly_ipr_is_a_zero_sum_or_a_positive_entry():
    # b > 0 is a sum from a exactly when a has a positive entry
    rng = random.Random(4242)
    undecided = 0
    for _ in range(200):
        a = _row(rng, rng.randint(1, 12))
        expected = zero_sum_subset(a) or max(a) > 0
        undecided += not _decided(doubly_ipr(QMatrix.of([a])), expected)
    assert undecided == 0


def test_one_row_is_ipr_is_a_positive_entry():
    # sum(a_j e_j) = 1 over a set of columns has a positive solution e
    # exactly when the set holds a positive entry, and a one-signed
    # negative row has no zero-sum set with the -1 column either
    rng = random.Random(424242)
    undecided = 0
    for _ in range(200):
        a = _row(rng, rng.randint(1, 12))
        undecided += not _decided(is_ipr(QMatrix.of([a])), max(a) > 0)
    assert undecided == 0
