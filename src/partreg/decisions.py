"""User-facing decision procedures for partition regularity questions.

Every decision reduces to one search: stack the candidate matrices into a
scaling template (some columns fixed at 1, the rest under unknown positive
scalars), then run the closure search of the columns module, which places
blocks largest first and enters a branch only while the scalar equalities
gathered so far keep a strictly positive solution.  The search is told
that only positive scalars count, so it refutes blocks by their signs
before elimination wherever it can.  All five procedures go
through _decide_scaled; is_kpr is the template with no scalars.  YES
verdicts carry the scalars, the assembled scaled matrix and a certificate
that re-verifies independently; NO verdicts are issued only after the
search was exhausted.  Every search runs under `cap` candidate blocks, and
one that reaches it is reported UNDECIDED, never guessed.

column_parts splits a template's columns into the connected components
of its column matroid.  Columns of different parts span independent
subspaces, so the matrix is a direct sum up to row operations, and the
direct-sum lemma holds: the matrix satisfies the columns condition exactly
when every part does.  Merging the parts' chains block by block gives a
chain of the whole, since a union of zero-sum first blocks sums to zero and
each later merged block's sum lies in the span of the earlier columns.
Restricting a chain of the whole to one part gives a chain of the part,
since a sum vanishes, or lies in a span, part by part.  Non-zero scalars
keep the parts, so the lemma holds for a scaled template at any given
scalar values.

So a template that splits is searched part by part, and every part's
blocks count against the one cap.  A part that shares no scalar with
another needs only its first hit, and any part without one makes the
answer NO.  Parts that share one scalar, such as the rows of (diag(d) -bI),
need a hit at a common value (_shared_hits); parts that share two or more
are joined into one part.  A YES merges the parts' chains block by block
and solves their merged equalities once; check_partition re-certifies it.
scalar_union_over_partitions asks for every value of one scalar: it
exhausts each part's search and keeps the non-zero values all parts admit,
and decides 0 by _search_parts on the fixed columns alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

from .columns import (
    BlockCounter,
    ColumnsConditionCertificate,
    DEFAULT_PARTITION_CAP,
    FIXED_ONE,
    OrderedPartition,
    PartitionCapExceeded,
    ScalingTemplate,
    check_partition,
    closure_search,
    zero_column_subset_exists,
)
from .feasibility import ScalarSet, has_positive_solution, solve_positive_echelon
from .linalg import MINUS_ONE, ZERO, EqualityEchelon, Q, QMatrix

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
    # Verdicts by (variable count, echelon rows), so no system is decided
    # twice, not even by two parts.
    decided = {}

    def feasible(echelon: EqualityEchelon) -> bool:
        # The search's echelon is already reduced and consistent: no stage 1.
        key = (echelon.nvars, echelon.rows)
        if key not in decided:
            decided[key] = has_positive_solution(echelon)
        return decided[key]

    try:
        found = _search_parts(template, feasible, BlockCounter(cap))
    except PartitionCapExceeded as exceeded:
        return Decision(UNDECIDED, cap=exceeded.cap)
    if found is None:
        return Decision(NO)
    partition, echelon = found
    # The echelon is the reduced form of build_system(template, partition),
    # so one solve of it gives the scalars without restating the redundant
    # rows.  An echelon without rows gets the all-ones point, and is_kpr,
    # which has no scalars, the empty one.
    solution = solve_positive_echelon(echelon, echelon.nvars, range(echelon.nvars))[0]
    assembled = template.scaled_matrix(solution.assignment)
    certificate = check_partition(assembled, partition)
    assert certificate is not None, "feasible partition must certify"
    scalars = tuple(zip(scalar_names, solution.assignment))
    return Decision(YES, scalars, certificate, assembled)


def _search_parts(
    template: ScalingTemplate | SimpleNamespace,
    feasible: Callable[[EqualityEchelon], bool] | None,
    counter: BlockCounter,
) -> tuple[OrderedPartition, EqualityEchelon] | None:
    """The template's first certificate and its echelon, found part by part.

    `feasible` is the decision's positivity check, and None only without
    scalars to share.  Either way every scalar is positive, so each search
    may refute blocks by their signs.
    """
    parts = column_parts(template)
    if len(parts) == 1:
        return next(closure_search(template, feasible, counter=counter, positive=True), None)
    chains = []
    for cluster in sorted(_clusters(template, parts), key=lambda c: sum(map(len, c))):
        cluster = sorted(cluster, key=lambda columns: (len(columns), columns))
        templates = [_part_template(template, columns) for columns in cluster]
        hits = _shared_hits([part for part, _ in templates], feasible, counter)
        if hits is None:
            return None
        chains += [(columns, scalars, found) for columns, (_, scalars), found in zip(cluster, templates, hits)]
    blocks = tuple(
        tuple(sorted(
            columns[i] for columns, _, (partition, _) in chains
            if t < partition.block_count for i in partition.blocks[t]
        ))
        for t in range(max(found[0].block_count for _, _, found in chains))
    )
    lifted = []
    for _, scalars, (_, echelon) in chains:
        for row in echelon.rows:
            lifted.append([0] * template.nvars + [row[-1]])
            for k, g in enumerate(scalars):
                lifted[-1][g] = row[k]
    return OrderedPartition(blocks), EqualityEchelon(template.nvars).extend(lifted)


def _shared_hits(
    parts: list[SimpleNamespace],
    feasible: Callable[[EqualityEchelon], bool],
    counter: BlockCounter,
) -> list[tuple[OrderedPartition, EqualityEchelon]] | None:
    """A first hit of each part at one common value of their one scalar.

    The parts' values are taken one at a time in search order, and every
    later part stops at its first hit at that value, so only a NO exhausts
    a part.  A part whose hit leaves the scalar free suits every value, and
    the answer is then the later parts'.  The last part, alone or after
    parts that leave the scalar free, takes its first hit.  A later part's
    echelons are compared as rows with the value's one primitive row; that
    value is positive, and a search asks `feasible` only of echelons with rows.
    """
    hits = []  # first hits of the leading parts that leave the scalar free
    for i, part in enumerate(parts[:-1]):
        # The search explores each echelon once, and so yields each value once.
        for found in closure_search(part, feasible, counter=counter, positive=True):
            pinned = found[1].rows
            if not pinned:
                hits.append(found)
                break
            at_value = lambda e, pinned=pinned: e.rows == pinned
            later = []
            for other in parts[i + 1:]:
                later.append(next(closure_search(other, at_value, counter=counter, positive=True), None))
                if later[-1] is None:
                    break
            else:
                return hits + [found] + later
        else:
            return None
    found = next(closure_search(parts[-1], feasible, counter=counter, positive=True), None)
    return None if found is None else hits + [found]


def _clusters(template: ScalingTemplate, parts: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """The template's column parts, grouped by the scalars they share.

    A group whose parts share two or more scalars is joined into one part.
    """
    scalars = ({template.group_of[j] for j in columns} - {FIXED_ONE} for columns in parts)
    return [
        [parts[k] for k in members] if len(shared) < 2
        else [tuple(sorted(j for k in members for j in parts[k]))]
        for shared, members in _joined(scalars)
    ]


def _part_template(template: ScalingTemplate | SimpleNamespace, columns) -> tuple[SimpleNamespace, list[int]]:
    """The template on one part's columns, and its scalars' global ids.

    The part holds only what closure_search and column_parts read:
    integer_columns, group_of and nvars.  Its columns are the parent's
    integer columns restricted to the part, less the rows that vanish there:
    no Fraction matrix, no validation.  The input is T times its reduced
    rows for an injective T, so the restricted columns meet exactly the
    linear relations of the reduced rows restricted to them.  The parent's
    view is the part's columns times one positive multiplier, and primitive
    echelon rows, sign rules and subset-sum levels do not change under such
    a scaling: chains, echelons and charges are the same.
    """
    scalars = sorted({template.group_of[j] for j in columns} - {FIXED_ONE})
    local = {g: k for k, g in enumerate(scalars)}
    rows = [row for row in zip(*(template.integer_columns[j] for j in columns)) if any(row)]
    groups = tuple(local.get(template.group_of[j]) for j in columns)
    integer_columns = tuple(zip(*rows)) if rows else ((),) * len(columns)
    return SimpleNamespace(integer_columns=integer_columns, group_of=groups, nvars=len(scalars)), scalars


def column_parts(matrix: QMatrix | ScalingTemplate | SimpleNamespace) -> list[tuple[int, ...]]:
    """The connected components of the column matroid of matrix.integer_columns.

    Rows that each have a column of their own, non-zero in no other row,
    are reduced with respect to those columns, a basis; so one-row matrices
    and templates with an identity block skip the elimination, and other
    matrices take their fully reduced form from EqualityEchelon.  Two
    columns are joined when some reduced row is non-zero at both, which is
    where fundamental circuits meet (Oxley, Matroid Theory), and a zero
    column is a part of its own.  Each part is its columns in increasing
    order, and parts are ordered by their first column.
    """
    cols = matrix.integer_columns
    n, u = len(cols), len(cols[0])
    if u == 1 or len({i for c in cols if c.count(0) == u - 1 for i, x in enumerate(c) if x}) == u:
        rows = [row for row in zip(*cols) if any(row)]
    else:
        echelon = EqualityEchelon(n).extend(row + (0,) for row in zip(*cols))
        rows = [row[:-1] for row in echelon.rows]
        cols = list(zip(*rows)) if rows else [()] * n
    if all(map(any, cols)) and any(map(all, cols)):
        return [tuple(range(n))]  # one column joins every row
    supports = [{j for j, x in enumerate(row) if x} for row in rows] + [{j} for j in range(n)]
    return sorted(tuple(sorted(joint)) for joint, _ in _joined(supports))


def _joined(sets: Iterable[set]) -> list[tuple[set, list[int]]]:
    """The sets joined wherever two meet: each union, with its members' positions."""
    classes: list[tuple[set, list[int]]] = []
    for k, joint in enumerate(map(set, sets)):
        members = [k]
        for meeting in [c for c in classes if not joint.isdisjoint(c[0])]:
            classes.remove(meeting)
            joint |= meeting[0]
            members += meeting[1]
        classes.append((joint, members))
    return classes


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
    minus_identity = tuple(tuple(MINUS_ONE if i == j else ZERO for j in range(A.rows)) for i in range(A.rows))
    return multiply_kpr_template((A, QMatrix(A.rows, A.rows, minus_identity)))


def doubly_ipr(A: QMatrix, cap: int = DEFAULT_PARTITION_CAP) -> Decision:
    """Doubly image partition regularity: is (A  -b*I) KPR for some b > 0?"""
    return _decide_scaled(doubly_ipr_template(A), ("b",), cap)


def scalar_union_over_partitions(
    template: ScalingTemplate, cap: int = DEFAULT_PARTITION_CAP
) -> ScalarSet:
    """Union of enumerate_feasible_scalars over every ordered partition.

    Computed part by part, without walking the partitions: by the direct-sum
    lemma a non-zero value qualifies exactly when every part admits it.  A
    part's closure search, run to exhaustion, yields each value its
    certificates pin, or stops at one that leaves the scalar free.  The
    value 0 can shrink spans, so it is decided apart.  Scaled by 0, every
    scaled column is zero: it joins any first block and changes no span,
    and a chain less its zero columns is still a chain.  So by Rado's
    columns condition 0 qualifies exactly when the fixed columns alone
    satisfy it, and always when there are none; they are searched part by
    part, as a template without scalars.  All searches
    share one budget of `cap` candidate blocks; reaching it raises
    PartitionCapExceeded, since a partial union would be silently wrong.
    """
    if template.nvars > 1:
        raise ValueError("scalar union handles at most one variable")
    counter = BlockCounter(cap)
    parts = column_parts(template)
    allowed = None  # every value but 0, whose row (a, c) of a*x + c == 0 is (1, 0), until a part pins some
    for part in [template] if len(parts) == 1 else [_part_template(template, c)[0] for c in parts]:
        pinned = set()
        for _, echelon in closure_search(part, lambda e: e.rows != ((1, 0),), counter=counter):
            if not echelon.rows:
                break
            pinned.add(echelon.rows[0])
        else:
            allowed = pinned if allowed is None else allowed & pinned
            if not allowed:
                break
    result = (ScalarSet.all_except((Q(0),)) if allowed is None
              else ScalarSet.finite([Q(-c, a) for a, c in allowed]))
    fixed = [j for j, g in enumerate(template.group_of) if g is FIXED_ONE]
    if not fixed or _search_parts(_part_template(template, fixed)[0], None, counter) is not None:
        result = result.union(ScalarSet.finite((Q(0),)))
    return result


def is_ipr_template(A: QMatrix) -> ScalingTemplate:
    """Columns of (A*diag(e)  -I) with one scalar per A-column, identity fixed."""
    return ScalingTemplate(doubly_ipr_template(A).matrix, tuple(range(A.cols)) + (FIXED_ONE,) * A.rows, A.cols)


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


@dataclass(frozen=True)
class IntegerScalarReport:
    """Outcome of the integrality analysis for integer doubly-IPR matrices.

    When the matrix is doubly IPR and no column subset sums to zero, the
    first block of any certificate must use an identity column, and reading
    clause one along that row forces b to equal an integer row sum of A.
    """

    verdict: str
    zero_subset: tuple[int, ...] | None = None
    b: Fraction | None = None
    identity_row: int | None = None
    identity_sum: Fraction | None = None

    @property
    def hypothesis_holds(self) -> bool | None:
        """No column subset sums to zero; None unless the verdict is YES."""
        return self.zero_subset is None if self.verdict == YES else None

    @property
    def b_is_positive_integer(self) -> bool | None:
        """None unless the hypothesis holds."""
        return self.b > 0 and self.b.denominator == 1 if self.hypothesis_holds else None


def integer_b_analysis(
    A: QMatrix, cap: int = DEFAULT_PARTITION_CAP
) -> IntegerScalarReport:
    """Integrality report for the doubly-IPR scalar of an integer matrix."""
    if not A.is_integral():
        raise ValueError("integer matrices only")
    decision = doubly_ipr(A, cap)
    zero_subset = zero_column_subset_exists(A)
    if not decision.is_yes:
        return IntegerScalarReport(decision.verdict, zero_subset)
    b = decision.scalar("b")
    if zero_subset is not None:
        return IntegerScalarReport(decision.verdict, zero_subset, b)
    v = A.cols
    first_block = decision.certificate.partition.blocks[0]
    identity_row = next((i - v for i in first_block if i >= v), None)
    assert identity_row is not None, (
        "no zero-sum column subset, so the first block must use an identity column"
    )
    identity_sum = sum((A.entries[identity_row][j] for j in first_block if j < v), Q(0))
    return IntegerScalarReport(decision.verdict, None, b, identity_row, identity_sum)
