"""Columns-condition certificates: check, search, decide, verify.

An ordered partition (I_1, ..., I_m) of a matrix's column indices witnesses
Rado's columns condition when the I_1 columns sum to zero exactly and each
later block's column sum is a linear combination of all earlier columns.  By
Rado's theorem this decides kernel partition regularity, so the search here
is the core decision procedure; everything is exact, rational at the API and
integer in the search's equalities.  Building a certificate, verifying it
and turning it into a first-entries matrix all run on the matrix's cached
integer view (QMatrix.integer_columns), so a matrix is scaled to integers
once for the whole audit round trip.

The search (closure_search) takes one input, a ScalingTemplate: a matrix
whose columns are grouped under unknown scalars or fixed at 1.  Plain
kernel partition regularity is the template with no scalars: is_kpr's
search, whose certificate decide_columns_condition returns.  The search
reads the matrix's integer view, the same one the certificate steps use,
and it never walks ordered partitions.  Call a column set reachable when
some chain of blocks covers it.  Reachable sets are closed under union:
append the second chain's blocks minus what is already placed; each
leftover sum is a block sum minus placed columns, so it stays in the larger
span.  So the search state is the set of placed columns plus the
equalities that the unknown scalars of a scaled matrix must meet so far,
kept in linalg's EqualityEchelon, the package's one elimination kernel.
Each state is explored once, and _level settles the blocks of one state.
enumerate_ordered_partitions remains as the brute-force reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .linalg import (
    ONE,
    ZERO,
    EqualityEchelon,
    QMatrix,
    integer_kernel,
    integer_row,
    rational,
    span_coefficients,
)

DEFAULT_PARTITION_CAP = 10_000_000  # candidate blocks one search may examine
FIXED_ONE = None  # group tag for columns that carry no scalar


def _column_index(value) -> int:
    # JSON numbers like 1.5 and bools must not be truncated into indices.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"column index must be an integer, got {value!r}")
    return value


def _coefficient(value) -> Fraction:
    # JSON true and false must not be read as 1 and 0
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"coefficient must be an integer or a string p/q, got {value!r}")
    return rational(value)


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered list of disjoint, non-empty blocks of column indices."""

    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(blocks: Iterable[Iterable[int]], base: int = 0) -> "OrderedPartition":
        """Validated blocks of `base`-based column indices, stored 0-based.

        Error messages quote the indices as given, so a 1-based document is
        told about its own column numbers.
        """
        cleaned = tuple(tuple(sorted(_column_index(i) for i in block)) for block in blocks)
        if not cleaned or any(not block for block in cleaned):
            raise ValueError("blocks must be non-empty")
        seen: set[int] = set()
        for block in cleaned:
            for i in block:
                if i < base:
                    raise ValueError(f"column indices start at {base}, got {i}")
                if i in seen:
                    raise ValueError(f"column {i} appears more than once")
                seen.add(i)
        return OrderedPartition(tuple(tuple(i - base for i in block) for block in cleaned))

    @staticmethod
    def from_one_based(blocks: Iterable[Iterable[int]]) -> "OrderedPartition":
        return OrderedPartition.of(blocks, base=1)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def universe(self) -> frozenset[int]:
        return frozenset(i for block in self.blocks for i in block)

    def covers(self, v: int) -> bool:
        return self.universe() == frozenset(range(v))

    def to_one_based(self) -> list[list[int]]:
        return [[i + 1 for i in block] for block in self.blocks]

    def __str__(self) -> str:
        return " | ".join("{" + ",".join(str(i + 1) for i in block) + "}" for block in self.blocks)


WitnessTerms = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class ColumnsConditionCertificate:
    """Ordered partition plus explicit rational witnesses.

    witnesses[t-1] belongs to block t (0-based t >= 1) and gives coefficients
    c_i over the columns i of the earlier blocks such that the block-t column
    sum equals sum(c_i * column_i).  partreg writes every earlier column in
    increasing order; a reader counts an earlier column that is not listed as
    0, and a repeated column or one that is not earlier invalidates it.
    """

    partition: OrderedPartition
    witnesses: tuple[WitnessTerms, ...]

    def to_json_dict(self) -> dict:
        return {
            "partition": self.partition.to_one_based(),
            "witnesses": [
                [{"column": i + 1, "coeff": str(c)} for i, c in terms]
                for terms in self.witnesses
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ColumnsConditionCertificate":
        """Inverse of to_json_dict; ValueError naming the field at fault.

        A witness's field is named by the 1-based block it belongs to and
        the 1-based position of the term in it.
        """
        if not isinstance(data, dict):
            raise ValueError("malformed certificate: not a JSON object")
        field = "partition"
        try:
            partition = OrderedPartition.from_one_based(data["partition"])
            field = "witnesses"
            witnesses = []
            for block, terms in enumerate(data.get("witnesses", []), start=2):
                field = f"witnesses, block {block}"
                clause = []
                for k, term in enumerate(terms, start=1):
                    field = f"witnesses, block {block}, term {k}"
                    clause.append((_column_index(term["column"]) - 1, _coefficient(term["coeff"])))
                witnesses.append(tuple(clause))
        except KeyError as err:
            raise ValueError(f"malformed certificate: {field}: missing {err}") from None
        except (TypeError, ValueError) as err:
            raise ValueError(f"malformed certificate: {field}: {err}") from None
        return ColumnsConditionCertificate(partition, tuple(witnesses))


class PartitionCapExceeded(Exception):
    """Raised when a search or enumeration reaches its cap with work remaining."""

    def __init__(self, cap: int):
        super().__init__(f"search capped at {cap}")
        self.cap = cap


class BlockCounter:
    """Candidate blocks examined so far, against the cap of the searches sharing it."""

    __slots__ = ("cap", "spent")

    def __init__(self, cap: int):
        self.cap, self.spent = cap, 0

    def charge(self, blocks: int = 1) -> None:
        """Count `blocks` more; PartitionCapExceeded if that passes the cap."""
        if self.spent + blocks > self.cap:
            raise PartitionCapExceeded(self.cap)
        self.spent += blocks


def _set_partitions(
    v: int, i: int = 0, blocks: tuple[tuple[int, ...], ...] = ()
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Set partitions of {0,...,v-1} extending `blocks`, which hold 0..i-1.

    Element i joins each open block in turn, then opens a new one, so the
    order is the lexicographic order of restricted-growth strings.
    """
    if i == v:
        yield blocks
        return
    for b in range(len(blocks)):
        yield from _set_partitions(v, i + 1, blocks[:b] + (blocks[b] + (i,),) + blocks[b + 1:])
    yield from _set_partitions(v, i + 1, blocks + ((i,),))


def enumerate_ordered_partitions(
    v: int, cap: int | None = None
) -> Iterator[OrderedPartition]:
    """Yield every ordered set partition of {0,...,v-1} exactly once.

    Order: set partitions come from restricted-growth strings in
    lexicographic order, and each is expanded by permuting its blocks, with
    permutations in lexicographic order.  Once `cap` partitions have been
    yielded and more remain, PartitionCapExceeded is raised, so truncation is
    always explicit.  This is the brute-force reference; the decision
    procedures use closure_search instead.
    """
    if v < 1:
        raise ValueError("need at least one column index")
    produced = 0
    for blocks in _set_partitions(v):
        for perm in itertools.permutations(range(len(blocks))):
            if cap is not None and produced >= cap:
                raise PartitionCapExceeded(cap)
            produced += 1
            yield OrderedPartition(tuple(blocks[i] for i in perm))


def check_partition(
    A: QMatrix, partition: OrderedPartition
) -> ColumnsConditionCertificate | None:
    """Certificate for `partition` witnessing the columns condition, or None.

    Witness coefficients come from the canonical exact solve against the
    earlier columns in increasing index order (free coefficients pinned to
    zero); certificates are not unique, only validity is contractual.  The
    solves run on A's integer columns.
    """
    if not partition.covers(A.cols):
        raise ValueError("partition does not cover the matrix's column indices")
    cols = A.integer_columns
    if any(_combination(cols, ((i, 1) for i in partition.blocks[0]))):
        return None
    witnesses: list[WitnessTerms] = []
    earlier: list[int] = sorted(partition.blocks[0])
    for t in range(1, partition.block_count):
        target = _combination(cols, ((i, 1) for i in partition.blocks[t]))
        coeffs = span_coefficients([cols[i] for i in earlier], target)
        if coeffs is None:
            return None
        witnesses.append(tuple(zip(earlier, coeffs)))
        earlier = sorted(earlier + list(partition.blocks[t]))
    return ColumnsConditionCertificate(partition, tuple(witnesses))


def _combination(columns: Sequence[Sequence[int]], terms: Iterable[tuple[int, int]]) -> list[int]:
    terms = [(columns[i], m) for i, m in terms if m]
    return [sum([m * column[r] for column, m in terms]) for r in range(len(columns[0]))]


def _annihilates(columns: Sequence[Sequence[int]], terms: Sequence[tuple[int, Fraction | int]]) -> bool:
    # sum(c_i * column_i) == 0, checked with the coefficients scaled to integers
    return not any(_combination(columns, zip([i for i, _ in terms], integer_row([c for _, c in terms]))))


def verify_certificate(A: QMatrix, certificate: ColumnsConditionCertificate) -> bool:
    """Exact re-check of every certificate invariant against A.

    Independent of how the certificate was produced; never raises.  False on
    any structural defect (bad partition, out-of-range or non-earlier witness
    columns) or any arithmetic violation.  The check runs on A's columns
    scaled to integers: a clause whose coefficients have denominator lcm d
    holds exactly when d times its block sum equals the integer combination.
    """
    try:
        partition = certificate.partition
        if not partition.covers(A.cols):
            return False
        if len(certificate.witnesses) != partition.block_count - 1:
            return False
        cols = A.integer_columns
        if any(_combination(cols, ((i, 1) for i in partition.blocks[0]))):
            return False
        earlier: set[int] = set(partition.blocks[0])
        for t in range(1, partition.block_count):
            terms = [(i, rational(c)) for i, c in certificate.witnesses[t - 1]]
            used = [i for i, _ in terms]
            if len(set(used)) != len(used) or any(i not in earlier for i in used):
                return False
            if not _annihilates(cols, terms + [(i, -1) for i in partition.blocks[t]]):
                return False
            earlier.update(partition.blocks[t])
        return True
    except Exception:
        return False


@dataclass(frozen=True)
class ScalingTemplate:
    """An assembled matrix whose columns are grouped under scalar variables.

    group_of[j] is the variable id scaling column j, or FIXED_ONE (None) for
    columns fixed at 1.  Columns sharing a variable are scaled together.  A
    template with no variables asks for the columns condition of the matrix
    itself.
    """

    matrix: QMatrix
    group_of: tuple[int | None, ...]
    nvars: int

    def __post_init__(self) -> None:
        if len(self.group_of) != self.matrix.cols:
            raise ValueError("one group tag per column required")
        used = {g for g in self.group_of if g is not None}
        if used != set(range(self.nvars)):
            raise ValueError("every variable id in 0..nvars-1 must scale some column")

    @property
    def integer_columns(self) -> tuple[tuple[int, ...], ...]:
        return self.matrix.integer_columns  # the view closure_search and column_parts read

    def scaled_matrix(self, assignment: Sequence[Fraction]) -> QMatrix:
        """The matrix with each column multiplied by its scalar."""
        if len(assignment) != self.nvars:
            raise ValueError("assignment size does not match variable count")
        if not self.nvars:
            return self.matrix
        scales = [None if g is None else assignment[g] for g in self.group_of]
        grid = tuple(
            tuple(x if c is None else c * x for c, x in zip(scales, row))
            for row in self.matrix.entries
        )
        return QMatrix(self.matrix.rows, self.matrix.cols, grid)


def closure_search(
    template: ScalingTemplate,
    feasible: Callable[[EqualityEchelon], bool] | None = None,
    *,
    counter: BlockCounter,
    positive: bool = False,
) -> Iterator[tuple[OrderedPartition, EqualityEchelon]]:
    """Yield ordered partitions that witness the template's scaled columns condition.

    Column j is scaled by variable group_of[j], or fixed at 1 when that is
    FIXED_ONE.  Each yielded partition comes with the echelon of its
    equalities: the scalars, all non-zero, for which it is a certificate.
    For non-zero scalars the scaled and unscaled earlier columns span the
    same space, so a later block's condition is linear: the annihilators of
    the unscaled earlier columns kill its scaled sum.

    The state is (placed columns, echelon).  A block whose equalities are
    already implied is taken without branching; by the union lemma this
    loses nothing.  A block that adds equalities is a branch, entered only
    when `feasible` accepts the new echelon (None accepts all).  Which
    scalars succeed depends on the echelon alone, so each echelon is
    explored once: the first partition is found by the first next(), and
    exhausting the iterator finds every echelon that succeeds.  _level
    settles each state's blocks; `positive` says that `feasible` accepts
    only echelons with a strictly positive point.  Every candidate block is
    charged to `counter`, a BlockCounter, and reaching its cap with blocks
    left raises PartitionCapExceeded.  Searches given one counter draw on
    its cap together.  It reads only integer_columns, group_of and nvars.
    """
    integral = template.integer_columns
    dim, nvars = len(integral[0]), template.nvars
    full = frozenset(range(len(integral)))
    slot = [nvars if g is None else g for g in template.group_of]
    explored: set[tuple] = set()

    def explore(placed: frozenset[int], echelon: EqualityEchelon, chain: tuple):
        explored.add(echelon.rows)
        while placed != full:
            rest = sorted(full - placed)
            if placed:  # one integer equality per annihilator row of the placed columns
                span = EqualityEchelon(dim).extend(integral[i] + (0,) for i in placed)
                functionals = integer_kernel(span)
                projected = {
                    j: [sum(f * x for f, x in zip(row, integral[j])) for row in functionals]
                    for j in rest
                }
            else:
                projected = {j: integral[j] for j in rest}
            for block, extended in _level(rest, projected, slot, echelon, counter, positive):
                if extended is echelon:
                    break
                if extended.rows in explored:
                    continue
                if feasible is not None and not feasible(extended):
                    explored.add(extended.rows)
                    continue
                yield from explore(placed.union(block), extended, chain + (block,))
            else:
                return
            placed = placed.union(block)
            chain += (block,)
        yield OrderedPartition(chain), echelon

    try:
        yield from explore(frozenset(), EqualityEchelon(nvars), ())
    finally:
        del explore  # it holds itself through its closure: no cycle left for the collector


def _level(
    rest: list[int],
    projected: dict[int, Sequence[int]],
    slot: Sequence[int],
    echelon: EqualityEchelon,
    counter: BlockCounter,
    positive: bool,
) -> Iterator[tuple[tuple[int, ...], EqualityEchelon]]:
    """Yield (block, extension) for each block of `rest` that keeps `echelon` consistent.

    A block is a non-empty set of the unplaced columns `rest`.  Its
    equalities hold one row per row of `projected`, column j's image under
    the placed columns' annihilators: the sum, at slot[j], of its columns'
    entries, where slot nvars is the constant of the columns fixed at 1.
    Blocks run largest first, then lexicographically.  Each is charged to
    `counter`, and the first that `echelon` already implies is yielded with
    `echelon` itself and ends the level.  Every rule below charges what
    that scan charges, so a cap falls at the same block:
    - A row of `projected` of one strict sign at every column is non-zero
      in every block's equalities, when no column carries a scalar or, for
      `positive`, at every positive point.  The level yields nothing and is
      charged its 2^r - 1 blocks in one call.
    - When no column carries a scalar, a block is implied when its sum is
      zero and contradicts `echelon` otherwise.  The first zero-sum block
      is the complement of the lexicographically last of the smallest
      position sets that sum to the level's total (_zero_sum_complements).
      Every block of a larger size is charged, then those of its size up
      to it, or all 2^r - 1 without a hit.  Each size's first block is
      charged before that size is searched, so a search at its cap builds
      no further tables.
    - Otherwise each block is scanned.  When `positive`, a block whose
      equalities have a non-zero row of one sign, the constant included, is
      skipped before elimination: that row is non-zero at every positive
      point, and `echelon`, which has one, never implies such a block.
    """
    r, nvars = len(rest), echelon.nvars
    vectors = [projected[j] for j in rest]
    unscaled = min(map(slot.__getitem__, rest)) == nvars
    if (positive or unscaled) and any(min(row) > 0 or max(row) < 0 for row in zip(*vectors)):
        counter.charge(2**r - 1)
        return
    if unscaled:
        last = _zero_sum_complements(vectors)
        for c in range(r):
            counter.charge()
            kept = last(c)
            if c:  # c = 0 has the one block just charged
                # kept's lexicographic rank among its size counts the blocks
                # after the hit, since complements run in the opposite order
                counter.charge(math.comb(r, c) - 1 - (0 if kept is None else _lex_rank(kept, r)))
            if kept is not None:
                yield tuple(j for p, j in enumerate(rest) if p not in kept), echelon
                return
        return
    k = len(vectors[0])
    for size in range(r, 0, -1):
        for block in itertools.combinations(rest, size):
            counter.charge()
            sums = [[0] * (nvars + 1) for _ in range(k)]
            for j in block:
                at = slot[j]
                for row, x in zip(sums, projected[j]):
                    row[at] += x
            if positive and any(any(row) and (min(row) >= 0 or max(row) <= 0) for row in sums):
                continue
            extended = echelon.extend(sums)
            if extended is echelon:
                yield block, echelon
                return
            if extended is not None:
                yield block, extended


def _zero_sum_complements(
    vectors: Sequence[Sequence[int]],
) -> Callable[[int], tuple[int, ...] | None]:
    """last(c): the lexicographically last c positions whose complement sums to zero.

    None when there are no such c positions.  They are the c positions whose
    vectors sum to the total of all.  Meet in the middle (Horowitz and Sahni
    1974): each half's position sets are tabled one size at a time, and a
    size-c answer joins a lower-half set to an upper-half one through one
    dict lookup per entry of the lower half's tables.  A set is a bit mask
    whose first position is its highest bit, so among sets of one size the
    lexicographically last has the smallest mask, and each table maps a sum
    to the smallest mask with that sum.  A table grows by adding positions
    before a set's first: dropping the first position of a smallest mask
    leaves the smallest mask of its size and sum, so nothing is lost.  Vectors
    are read as the digits of one integer in a base that exceeds twice any
    entry of a subset sum, which keeps distinct sums distinct.  The empty
    set, c = 0, is answered from the total alone, so the packing and the
    tables are set up only when a larger c is asked for.
    """
    n, h = len(vectors), len(vectors) // 2
    halves: list[tuple[list[int], list[dict[int, int]]]] = []  # set up on the first c > 0

    def last(c: int) -> tuple[int, ...] | None:
        if not c:
            return None if any(map(sum, zip(*vectors))) else ()
        if not halves:
            entries = list(zip(*vectors))
            base = 2 * max([sum(map(abs, row)) for row in entries], default=0) + 1
            packed = [0] * n
            for row in entries:
                packed = [total * base + x for total, x in zip(packed, row)]
            halves.extend(((packed[:h], [{0: 0}]), (packed[h:], [{0: 0}])))
        for values, tables in halves:
            m = len(values)
            while len(tables) <= min(c, m):
                grown: dict[int, int] = {}
                for total, mask in tables[-1].items():
                    for p in range(m - mask.bit_length()):
                        key, bits = total + values[p], mask | 1 << (m - 1 - p)
                        if bits < grown.get(key, bits + 1):
                            grown[key] = bits
                tables.append(grown)
        (low_values, lows), (high_values, highs) = halves
        target, best = sum(low_values) + sum(high_values), None
        for a in range(max(0, c - n + h), min(c, h) + 1):
            high = highs[c - a]
            for total, bits in lows[a].items():
                upper = high.get(target - total)
                if upper is not None and (best is None or bits << (n - h) | upper < best):
                    best = bits << (n - h) | upper
        return None if best is None else tuple(p for p in range(n) if best >> (n - 1 - p) & 1)

    return last


def zero_column_subset_exists(A: QMatrix) -> tuple[int, ...] | None:
    """Some non-empty set of columns summing exactly to zero, if any.

    The witness is canonical: the first such set by increasing size, then
    lexicographically.  Its complement is the lexicographically last of the
    largest column sets that sum to the total of all columns, which the
    meet-in-the-middle subset sums above find.  The sums run on A's integer
    columns.
    """
    last = _zero_sum_complements(A.integer_columns)
    for size in range(1, A.cols + 1):
        kept = last(A.cols - size)
        if kept is not None:
            return tuple(j for j in range(A.cols) if j not in kept)
    return None


def _lex_rank(subset: Sequence[int], n: int) -> int:
    """How many sets of range(n) of subset's size precede it lexicographically."""
    # Sets that agree with subset before its t-th position and hold a smaller
    # v there number sum(comb(n - 1 - v, size - 1 - t)) over low < v < p,
    # which telescopes (the hockey-stick identity).
    rank, low, size = 0, -1, len(subset)
    for t, p in enumerate(subset):
        rank += math.comb(n - 1 - low, size - t) - math.comb(n - p, size - t)
        low = p
    return rank


def decide_columns_condition(
    A: QMatrix, cap: int = DEFAULT_PARTITION_CAP
) -> ColumnsConditionCertificate | None:
    """A certificate for the columns condition of A, if one exists.

    This is `decisions.is_kpr`'s certificate: None on NO, and
    PartitionCapExceeded instead of a guess when the search is UNDECIDED.
    """
    from .decisions import UNDECIDED, is_kpr  # decisions imports this module

    decision = is_kpr(A, cap)
    if decision.verdict == UNDECIDED:
        raise PartitionCapExceeded(decision.cap)
    return decision.certificate


@dataclass(frozen=True)
class FirstEntriesMatrix:
    """Matrix whose rows each start with a positive entry, consistently per column.

    Validated on construction: no zero row, the first non-zero entry of each
    row is positive, and first entries sharing a column are equal.  Unital
    means every first entry is 1.
    """

    matrix: QMatrix

    def __post_init__(self) -> None:
        # On the integer view: one positive multiplier keeps every sign and
        # every equality between entries.
        by_column: dict[int, int] = {}
        for row in zip(*self.matrix.integer_columns):
            j = next((k for k, x in enumerate(row) if x), None)
            if j is None:
                raise ValueError("first-entries matrix cannot have a zero row")
            if row[j] < 0:
                raise ValueError("first entries must be positive")
            if by_column.setdefault(j, row[j]) != row[j]:
                raise ValueError("first entries in one column must agree")

    @property
    def unital(self) -> bool:
        for row in self.matrix.entries:
            first = next(x for x in row if x != 0)
            if first != 1:
                return False
        return True


def first_entries_from_certificate(
    A: QMatrix, certificate: ColumnsConditionCertificate
) -> FirstEntriesMatrix:
    """Unital first-entries matrix G with A @ G == 0, built from a certificate.

    Column t of G places 1 at the rows of block t and the negated witness
    coefficients of every later block at the rows they reference, so each
    column reproduces one clause of the certificate.  Invalid certificates
    are rejected.
    """
    if not verify_certificate(A, certificate):
        raise ValueError("certificate fails verification against the matrix")
    blocks = certificate.partition.blocks
    witnesses = [[(i, rational(c)) for i, c in terms] for terms in certificate.witnesses]
    d = math.lcm(*(c.denominator for terms in witnesses for _, c in terms))
    grid = [[ZERO] * len(blocks) for _ in range(A.cols)]
    view = [[0] * A.cols for _ in blocks]  # G's columns times d, the lcm of its denominators
    for t, block in enumerate(blocks):
        for i in block:
            grid[i][t], view[t][i] = ONE, d
    for t, terms in enumerate(witnesses, start=1):
        for i, c in terms:
            grid[i][t], view[t][i] = -c, -c.numerator * (d // c.denominator)
    G = QMatrix(A.cols, len(blocks), tuple(map(tuple, grid)))
    # the integer view G would compute, for this check and FirstEntriesMatrix's
    G.__dict__["integer_columns"] = view = tuple(map(tuple, view))
    cols = A.integer_columns
    for column in view:
        assert not any(_combination(cols, enumerate(column))), "construction violated A @ G == 0"
    return FirstEntriesMatrix(G)
