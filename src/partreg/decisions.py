"""User-facing decision procedures for partition regularity questions.

Every decision reduces to one search: stack the candidate matrices into a
scaling template (some columns fixed at 1, the rest under unknown positive
scalars), then run the closure search of the columns module, which places
blocks largest first and enters a branch only while the scalar equalities
gathered so far keep a strictly positive solution.  All five procedures go
through _decide_scaled; is_kpr is the template with no scalars.  YES
verdicts carry the scalars, the assembled scaled matrix and a certificate
that re-verifies independently; NO verdicts are issued only after the
search was exhausted.  Every search runs under `cap` candidate blocks, and
one that reaches it is reported UNDECIDED, never guessed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .columns import (
    ColumnsConditionCertificate,
    DEFAULT_PARTITION_CAP,
    FIXED_ONE,
    PartitionCapExceeded,
    ScalingTemplate,
    check_partition,
    closure_search,
)
from .feasibility import PositiveSolution, solve_positive_echelon
from .linalg import EqualityEchelon, Q, QMatrix

YES = "YES"
NO = "NO"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class Decision:
    """Outcome of a decision procedure.

    verdict is YES, NO or UNDECIDED.  YES decisions carry the scalar
    assignment (possibly empty), the scaled assembled matrix, and a
    certificate valid for it; UNDECIDED carries the cap, a number of
    candidate blocks examined, that truncated the search.
    """

    verdict: str
    scalars: tuple[tuple[str, Fraction], ...] = ()
    certificate: ColumnsConditionCertificate | None = None
    assembled: QMatrix | None = None
    cap: int | None = None

    @property
    def is_yes(self) -> bool:
        return self.verdict == YES

    def scalar(self, name: str) -> Fraction:
        for key, value in self.scalars:
            if key == name:
                return value
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "scalars": {name: str(value) for name, value in self.scalars},
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "assembled": [
                [str(x) for x in row] for row in self.assembled.entries
            ] if self.assembled else None,
            "cap": self.cap,
        }


def _decide_scaled(
    template: ScalingTemplate, scalar_names: Sequence[str], cap: int
) -> Decision:
    # The root echelon has no rows, and stage 4 of the positive solver would
    # return the all-ones point for it, so it is taken without a solve.
    solved = {(): PositiveSolution((Q(1),) * template.nvars)}

    def feasible(echelon: EqualityEchelon) -> bool:
        # The search's echelon is already reduced and consistent: no stage 1.
        solution, _ = solve_positive_echelon(echelon, echelon.nvars, range(echelon.nvars))
        if solution is not None:
            solved[echelon.rows] = solution
        return solution is not None

    try:
        found = next(closure_search(template, feasible, cap), None)
    except PartitionCapExceeded as exceeded:
        return Decision(UNDECIDED, cap=exceeded.cap)
    if found is None:
        return Decision(NO)
    partition, echelon = found
    # The echelon is the reduced form of build_system(template, partition),
    # so its solution gives the same scalars without restating the
    # redundant rows.
    solution = solved[echelon.rows]
    assembled = template.scaled_matrix(solution.assignment)
    certificate = check_partition(assembled, partition)
    assert certificate is not None, "feasible partition must certify"
    scalars = tuple(zip(scalar_names, solution.assignment))
    return Decision(YES, scalars, certificate, assembled)


def is_kpr(A: QMatrix, cap: int = DEFAULT_PARTITION_CAP) -> Decision:
    """Kernel partition regularity of A: the template with no scalars.

    The search and the certificate share A's integer view, and a YES
    decision's assembled matrix is A itself.
    """
    return _decide_scaled(ScalingTemplate(A, (FIXED_ONE,) * A.cols, 0), (), cap)


def multiply_kpr_template(matrices: Sequence[QMatrix]) -> ScalingTemplate:
    """Columns of (A_1 A_2 ... A_k) with A_1 fixed and one scalar per later block."""
    if len(matrices) < 2:
        raise ValueError("need at least two matrices")
    groups = tuple(
        FIXED_ONE if t == 0 else t - 1 for t, M in enumerate(matrices) for _ in range(M.cols)
    )
    return ScalingTemplate(QMatrix.hstack(matrices), groups, len(matrices) - 1)


def multiply_kpr(
    matrices: Sequence[QMatrix], cap: int = DEFAULT_PARTITION_CAP
) -> Decision:
    """Whether the tuple admits positive scalars making the assembly KPR.

    Fixing the first matrix's scalar at 1 is lossless: scaling a matrix's
    kernel question by a positive rational changes nothing.
    """
    template = multiply_kpr_template(matrices)
    names = tuple(f"c_{t}" for t in range(2, len(matrices) + 1))
    return _decide_scaled(template, names, cap)


def doubly_kpr(A: QMatrix, B: QMatrix, cap: int = DEFAULT_PARTITION_CAP) -> Decision:
    """multiply_kpr specialised to a pair."""
    return multiply_kpr((A, B), cap)


def doubly_ipr_template(A: QMatrix) -> ScalingTemplate:
    """Columns of (A  -b*I) with A fixed and the identity block under one scalar."""
    return multiply_kpr_template((A, QMatrix.identity(A.rows).scale(-1)))


def doubly_ipr(A: QMatrix, cap: int = DEFAULT_PARTITION_CAP) -> Decision:
    """Doubly image partition regularity: is (A  -b*I) KPR for some b > 0?"""
    return _decide_scaled(doubly_ipr_template(A), ("b",), cap)


def is_ipr_template(A: QMatrix) -> ScalingTemplate:
    """Columns of (A*diag(e)  -I) with one scalar per A-column, identity fixed."""
    matrix = QMatrix.hstack([A, QMatrix.identity(A.rows).scale(-1)])
    return ScalingTemplate(matrix, tuple(range(A.cols)) + (FIXED_ONE,) * A.rows, A.cols)


def is_ipr(A: QMatrix, cap: int = DEFAULT_PARTITION_CAP) -> Decision:
    """Image partition regularity via per-column positive rescaling.

    YES iff (A*diag(e) - I) is KPR for some strictly positive e_1..e_v; the
    kernel vectors of that assembly are exactly the pairs (w, A*diag(e)*w),
    which is what makes the reduction to a kernel question work.  NO
    verdicts additionally lean on the classical per-column characterisation
    of image partition regularity.  Nothing in the package cross-checks them
    at finite scale: the oracle colours every block of a kernel vector,
    while image partition regularity asks only that Ax be monochromatic.
    """
    template = is_ipr_template(A)
    names = tuple(f"e_{j}" for j in range(1, A.cols + 1))
    return _decide_scaled(template, names, cap)


def zero_column_subset_exists(A: QMatrix) -> tuple[int, ...] | None:
    """Some non-empty set of columns summing exactly to zero, if any.

    Subsets are scanned by increasing size, then lexicographically, so the
    returned witness is canonical.  The sums run on A's integer columns.
    """
    cols = A.integer_columns
    for size in range(1, A.cols + 1):
        for subset in itertools.combinations(range(A.cols), size):
            if not any(map(sum, zip(*(cols[i] for i in subset)))):
                return subset
    return None


@dataclass(frozen=True)
class IntegerScalarReport:
    """Outcome of the integrality analysis for integer doubly-IPR matrices.

    When the matrix is doubly IPR and no column subset sums to zero, the
    first block of any certificate must use an identity column, and reading
    clause one along that row forces b to equal an integer row sum of A.
    """

    verdict: str
    zero_subset: tuple[int, ...] | None
    hypothesis_holds: bool | None
    b: Fraction | None
    b_is_positive_integer: bool | None
    identity_row: int | None
    identity_sum: Fraction | None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "zero_subset": list(self.zero_subset) if self.zero_subset else None,
            "hypothesis_holds": self.hypothesis_holds,
            "b": str(self.b) if self.b is not None else None,
            "b_is_positive_integer": self.b_is_positive_integer,
            "identity_row": self.identity_row + 1 if self.identity_row is not None else None,
            "identity_sum": str(self.identity_sum) if self.identity_sum is not None else None,
        }


def integer_b_analysis(
    A: QMatrix, cap: int = DEFAULT_PARTITION_CAP
) -> IntegerScalarReport:
    """Integrality report for the doubly-IPR scalar of an integer matrix."""
    if not A.is_integral():
        raise ValueError("integer matrices only")
    decision = doubly_ipr(A, cap)
    zero_subset = zero_column_subset_exists(A)
    if not decision.is_yes:
        return IntegerScalarReport(decision.verdict, zero_subset, None, None, None, None, None)
    b = decision.scalar("b")
    if zero_subset is not None:
        return IntegerScalarReport(decision.verdict, zero_subset, False, b, None, None, None)
    v = A.cols
    first_block = decision.certificate.partition.blocks[0]
    identity_row = next((i - v for i in first_block if i >= v), None)
    assert identity_row is not None, (
        "no zero-sum column subset, so the first block must use an identity column"
    )
    identity_sum = sum((A.entries[identity_row][j] for j in first_block if j < v), Q(0))
    return IntegerScalarReport(
        decision.verdict,
        None,
        True,
        b,
        b > 0 and b.denominator == 1,
        identity_row,
        identity_sum,
    )
