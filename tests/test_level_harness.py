"""Each level of the closure search against a ten-line reference scan.

columns._level settles one level of closure_search.  It yields, in scan
order, each block that keeps the echelon consistent, ends with the first
block that the echelon already implies, and charges what a scan charges.
reference_level below is that scan with no rule: every block, largest
first and then lexicographically, one charge each.  closure_reference.py
is the reference for whole searches; this is the reference for one level.

Levels are drawn at random: unscaled, under one scalar and under several,
with `positive` off and on.  For `positive` the echelon always has a
positive point, as every echelon a positive search reaches does.  Each
level is compared at the reference's exact charge, at one fewer and at a
random cap in between.  With `positive`, the pairs that have no positive
point are dropped from both sides first; the level must still yield every
other pair of the reference, and it may skip only blocks whose equalities
have a non-zero row of one sign.
"""

import itertools
import random

from partreg.columns import BlockCounter, PartitionCapExceeded, _level
from partreg.feasibility import has_positive_solution
from partreg.linalg import EqualityEchelon


def reference_level(rest, projected, slot, echelon, cap):
    """The scan's (block, extension, equalities) up to its first implied block, and its charge."""
    found, spent, nvars = [], 0, echelon.nvars
    for size in range(len(rest), 0, -1):
        for block in itertools.combinations(rest, size):
            if spent == cap:
                return found + [("cap", cap, None)], None
            spent += 1
            sums = [[sum(x for j, x in zip(rest, row) if j in block and slot[j] == s) for s in range(nvars + 1)]
                    for row in zip(*(projected[j] for j in rest))]
            extended = echelon.extend(sums)
            if extended is not None:
                found.append((block, extended, sums))
                if extended is echelon:
                    return found, spent
    return found, spent


def _one_signed(sums) -> bool:
    return any(any(row) and (min(row) >= 0 or max(row) <= 0) for row in sums)


class RecordingCounter(BlockCounter):
    __slots__ = ("charges",)

    def __init__(self, cap: int):
        super().__init__(cap)
        self.charges: list[int] = []

    def charge(self, blocks: int = 1) -> None:
        self.charges.append(blocks)
        super().charge(blocks)


def _run(level, positive, cap):
    """The level's (block, extension) yields, then ("cap", cap) if it was cut, and its counter."""
    counter, found = RecordingCounter(cap), []
    try:
        for block, extended in _level(*level, counter, positive):
            found.append((block, extended))
    except PartitionCapExceeded as exceeded:
        found.append(("cap", exceeded.cap))
    return found, counter


def _shown(found, echelon, keep=lambda extended: True):
    # an extension as its rows, and whether it is the level's echelon itself
    return [
        (block, extended) if block == "cap" else (block, extended.rows, extended is echelon)
        for block, extended, *_ in found
        if block == "cap" or keep(extended)
    ]


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


def _draw_level(rng, nvars, positive, kinds=("strict", "weak", "mixed", "mixed", "mixed")):
    """(rest, projected, slot, echelon) of a level over `nvars` scalars."""
    width = rng.randint(1, 9 if not nvars else 6)
    rest = sorted(rng.sample(range(width + 2), width))
    grid = [_signed_row(rng, width, rng.choice(kinds)) for _ in range(rng.randint(1, 3))]
    projected = {j: list(column) for j, column in zip(rest, zip(*grid))}
    slot = [rng.randint(0, nvars) for _ in range(width + 2)]
    while True:
        equalities = [[rng.randint(-2, 2) for _ in range(nvars + 1)] for _ in range(rng.randint(0, nvars))]
        echelon = EqualityEchelon(nvars).extend(equalities)
        if echelon is not None and (not positive or has_positive_solution(echelon)):
            return rest, projected, slot, echelon


def test_levels_match_the_reference_scan():
    rng = random.Random(22)
    seen = dict.fromkeys(("implied", "branch", "refuted", "sign-skipped", "pointless"), 0)
    for nvars in (0, 1, 2, 3):
        for positive in (False, True):
            for _ in range(200):
                level = _draw_level(rng, nvars, positive)
                echelon = level[3]
                expected, spent = reference_level(*level, cap=None)
                for cap in {spent, spent - 1, rng.randint(1, spent)} - {0}:
                    reference = reference_level(*level, cap=cap)[0]
                    found, counter = _run(level, positive, cap)
                    assert (found[-1:] == [("cap", cap)]) == (cap < spent)
                    assert cap < spent or counter.spent == spent
                    if positive:
                        assert _shown(found, echelon, has_positive_solution) == _shown(
                            reference, echelon, has_positive_solution
                        )
                        unsigned = [item for item in reference if item[0] == "cap" or not _one_signed(item[2])]
                        assert _shown(found, echelon) == _shown(unsigned, echelon)
                    else:
                        assert _shown(found, echelon) == _shown(reference, echelon)
                seen["implied"] += any(extended is echelon for _, extended, _ in expected)
                seen["branch"] += any(extended is not echelon for _, extended, _ in expected)
                seen["refuted"] += not expected
                if positive:
                    kept = [extended for _, extended, sums in expected if not _one_signed(sums)]
                    seen["sign-skipped"] += len(kept) < len(expected)
                    seen["pointless"] += not all(map(has_positive_solution, kept))
    assert min(seen.values()) >= 10, str(seen)


def test_a_row_of_one_strict_sign_is_one_charge():
    # Such a row refutes every block at once when no column carries a scalar,
    # or when only positive scalars count; otherwise the level is scanned.
    rng = random.Random(2222)
    for nvars in (0, 1, 2):
        for positive in (False, True):
            for _ in range(30):
                rest, projected, slot, echelon = _draw_level(rng, nvars, positive, kinds=("strict",))
                if nvars:
                    slot[rest[0]] = 0  # a scaled column, so no subset sums settle the level
                found, counter = _run((rest, projected, slot, echelon), positive, 2 ** len(rest) - 1)
                if positive or not nvars:
                    assert found == [] and counter.charges == [2 ** len(rest) - 1]
                else:
                    assert set(counter.charges) == {1}
