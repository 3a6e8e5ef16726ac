"""Rado's single-equation theorem as an anchor past brute force.

One row a is kernel partition regular exactly when some non-empty set of
its entries sums to zero (Rado 1933; Graham, Rothschild and Spencer,
Ramsey Theory, ch. 3).  With a positive scalar c, the row (a  c b) has
such a set for some c exactly when a or b has one, or a and b hold entries
of opposite signs: a sum from a plus c times a sum from b vanishes only
when the two sums have opposite signs.  Neither form runs a search, so
they pin verdicts at widths where the brute-force references cannot run.
Each verdict must equal the closed form or be UNDECIDED, and the number of
UNDECIDED cases is pinned exactly: a change to the search's budget moves it.
"""

import random

from partreg import NO, UNDECIDED, QMatrix, doubly_kpr, is_kpr, verify_certificate


def zero_sum_subset(entries) -> bool:
    # every sum of a non-empty subset, grown one entry at a time
    sums: set[int] = set()
    for x in entries:
        sums |= {x} | {s + x for s in sums}
    return 0 in sums


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
