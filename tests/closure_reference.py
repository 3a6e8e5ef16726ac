"""Reference closure search: every level scans its 2^r - 1 candidate blocks.

This is the whole-search reference.  It is the search partreg shipped
before columns._level settled levels by subset sums and sign rules, kept
here, outside the package, so that the differential tests can compare the
two: both must yield the same partitions and echelons, count the same
candidate blocks and stop at the same cap.  Each candidate block takes one
value of `counter`, an itertools.count, so after a search next(counter)
is the number of blocks it examined.  The reference for one level is
reference_level in test_level_harness.py.  reference_zero_column_subset is
the subset scan that columns.zero_column_subset_exists replaced.
"""

from __future__ import annotations

import itertools

from partreg.columns import (
    DEFAULT_PARTITION_CAP,
    OrderedPartition,
    PartitionCapExceeded,
    ScalingTemplate,
)
from partreg.linalg import EqualityEchelon, integer_kernel


def reference_closure_search(template: ScalingTemplate, feasible=None, cap=DEFAULT_PARTITION_CAP, counter=None):
    integral = template.matrix.integer_columns
    dim, nvars = template.matrix.rows, template.nvars
    full = frozenset(range(template.matrix.cols))
    slot = [nvars if g is None else g for g in template.group_of]
    explored: set[tuple] = set()
    counter = itertools.count() if counter is None else counter

    def block_equalities(placed, rest):
        if placed:
            span = EqualityEchelon(dim).extend(integral[i] + (0,) for i in placed)
            functionals = integer_kernel(span)
            projected = {
                j: [sum(f * x for f, x in zip(row, integral[j])) for row in functionals]
                for j in rest
            }
        else:
            projected = {j: integral[j] for j in rest}
        k = len(projected[rest[0]])

        def equalities(block):
            sums = [[0] * (nvars + 1) for _ in range(k)]
            for j in block:
                at = slot[j]
                for row, x in zip(sums, projected[j]):
                    row[at] += x
            return sums

        return equalities

    def explore(placed, echelon, chain):
        explored.add(echelon.rows)
        while placed != full:
            rest = sorted(full - placed)
            equalities = block_equalities(placed, rest)
            taken = None
            for size in range(len(rest), 0, -1):
                for block in itertools.combinations(rest, size):
                    if next(counter) >= cap:
                        raise PartitionCapExceeded(cap)
                    extended = echelon.extend(equalities(block))
                    if extended is None:
                        continue
                    if extended is echelon:
                        taken = block
                        break
                    if extended.rows in explored:
                        continue
                    if feasible is not None and not feasible(extended):
                        explored.add(extended.rows)
                        continue
                    yield from explore(placed.union(block), extended, chain + (block,))
                if taken is not None:
                    break
            if taken is None:
                return
            placed = placed.union(taken)
            chain += (taken,)
        yield OrderedPartition(chain), echelon

    return explore(frozenset(), EqualityEchelon(nvars), ())


def reference_zero_column_subset(A):
    """The first column set summing to zero, by increasing size, then lexicographically."""
    cols = A.integer_columns
    for size in range(1, A.cols + 1):
        for subset in itertools.combinations(range(A.cols), size):
            if not any(map(sum, zip(*(cols[i] for i in subset)))):
                return subset
    return None
