"""Reference certificate builder: the clause solve in Fraction arithmetic.

This is how partreg built certificates before the clause solves moved to a
matrix's integer columns: each clause is a Fraction Gauss-Jordan elimination
of the augmented matrix [earlier columns | block sum], with the witness read
off the reduced rows and free coefficients pinned to zero.  The first-entries
matrix G is assembled from a certificate in Fractions.  Both are kept here,
outside the package, so that the differential tests can require identical
certificates and identical G.
"""

from __future__ import annotations

from fractions import Fraction

from partreg.columns import ColumnsConditionCertificate, OrderedPartition
from partreg.linalg import QMatrix


def _reduced_rows(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination: reduced rows with pivot 1, and their pivot columns."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def reference_span_membership(
    basis: list[list[Fraction]], target: list[Fraction]
) -> list[Fraction] | None:
    """Coefficients with sum(coeff_i * basis_i) == target, free ones 0, or None."""
    n = len(basis)
    augmented = [[b[r] for b in basis] + [target[r]] for r in range(len(target))]
    reduced, pivots = _reduced_rows(augmented, n + 1)
    if n in pivots:
        return None
    coeffs = [Fraction(0)] * n
    for row, p in zip(reduced, pivots):
        coeffs[p] = row[n]
    return coeffs


def reference_check_partition(
    A: QMatrix, partition: OrderedPartition
) -> ColumnsConditionCertificate | None:
    cols = [list(A.column(j).entries) for j in range(A.cols)]

    def block_sum(block: tuple[int, ...]) -> list[Fraction]:
        return [sum((cols[i][r] for i in block), Fraction(0)) for r in range(A.rows)]

    if any(block_sum(partition.blocks[0])):
        return None
    witnesses = []
    earlier = sorted(partition.blocks[0])
    for block in partition.blocks[1:]:
        coeffs = reference_span_membership([cols[i] for i in earlier], block_sum(block))
        if coeffs is None:
            return None
        witnesses.append(tuple(zip(earlier, coeffs)))
        earlier = sorted(earlier + list(block))
    return ColumnsConditionCertificate(partition, tuple(witnesses))


def reference_first_entries(A: QMatrix, certificate: ColumnsConditionCertificate) -> QMatrix:
    """G with 1 at each block's rows in its column and the negated witnesses."""
    m = certificate.partition.block_count
    grid = [[Fraction(0)] * m for _ in range(A.cols)]
    for t, block in enumerate(certificate.partition.blocks):
        for i in block:
            grid[i][t] = Fraction(1)
    for t, terms in enumerate(certificate.witnesses, start=1):
        for i, coeff in terms:
            grid[i][t] = -coeff
    return QMatrix(A.cols, m, tuple(tuple(row) for row in grid))
