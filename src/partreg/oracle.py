"""Finite-scale colouring oracles for partition regularity claims.

This module validates decisions independently of the certificate machinery:
rule-based colourings of the positive integers, bounded search for
monochromatic solutions, and backtracking search for witness colourings
that admit no bounded solution.  The sweep over all r-colourings of an
initial segment is that witness search: every colouring admits a solution
exactly when no witness exists.

The bounded solution search never walks the full v-fold product space: the
kernel of the assembled matrix is parametrised by its nullspace basis, one
vector per free column with 1 there and 0 at the other free columns, so the
free coordinates are literal entries of the solution vector.  Ranging those
over [1..N] and checking every derived entry with exact integer arithmetic
is therefore complete within the bound.  Nor does it scan [1..N] value by
value: every colouring splits [1..N] into colour pieces that are arithmetic
progressions, and the values an entry a*t may take are intersections of
progressions, merged lazily in increasing order, so time and memory follow
the number of colour pieces rather than N.  Negative results are evidence
up to their bound, never proofs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby, repeat
from math import gcd, lcm
from typing import Hashable, Iterator, Sequence

from .linalg import Q, QMatrix, nullspace_basis

COLOURING_SWEEP_LIMIT = 10_000_000


def leading_exponent(x: int, base: int) -> int:
    """Largest t with base**t <= x: the start position of x written in `base`."""
    if x < 1:
        raise ValueError("defined for positive integers only")
    if base < 2:
        raise ValueError("base must be at least 2")
    if base == 2:
        return x.bit_length() - 1
    t = 0
    power = base
    while power <= x:
        t += 1
        power *= base
    return t


def digit_at(x: int, base: int, position: int) -> int:
    """Digit of x at `position` in base `base` (0 beyond the leading digit)."""
    if position < 0:
        return 0
    return (x // base**position) % base


def gamma_colour(x: int, base: int = 10) -> tuple[int, int, int]:
    """(start parity, leading digit, second digit) of x in `base`.

    Single-digit numbers get second digit 0, consistent with reading missing
    digits as zero.
    """
    g = leading_exponent(x, base)
    return (g % 2, digit_at(x, base, g), digit_at(x, base, g - 1))


_EMPTY = range(1, 1)


def _progression(a: int, r: range) -> range:
    """The t >= 1 with a*t in the progression r (r has a positive step)."""
    if a < 1 or not r:
        return _EMPTY
    g = gcd(a, r.step)
    if r.start % g:
        return _EMPTY
    step = r.step // g
    residue = r.start // g * pow(a // g, -1, step) % step
    low = max(1, -(-r.start // a))
    return range(low + (residue - low) % step, r[-1] // a + 1, step)


def _intersect(x: range, y: range) -> range:
    """Common members of two progressions with positive steps (Chinese remainders)."""
    if not x or not y:
        return _EMPTY
    g = gcd(x.step, y.step)
    gap = y.start - x.start
    if gap % g:
        return _EMPTY
    ny = y.step // g
    first = x.start + x.step * (gap // g * pow(x.step // g, -1, ny) % ny)
    step = x.step * ny
    low = max(x.start, y.start)
    return range(low + (first - low) % step, min(x[-1], y[-1]) + 1, step)


def _exponent_bands(base: int, bound: int):
    """(t, base**t) for every exponent t with base**t <= bound."""
    t, power = 0, 1
    while power <= bound:
        yield t, power
        t, power = t + 1, power * base


@dataclass(frozen=True)
class Colouring:
    """Deterministic colouring of the positive integers.

    Kinds: "mod" (residue classes), "gamma" (start parity plus two leading
    digits, at most 2*base*(base-1) colours), "start_parity" (start position
    of the base expansion, mod 2), "table" (explicit colours for 1..N).
    """

    kind: str
    param: int = 0
    table_data: tuple[int, ...] = ()

    @staticmethod
    def mod(m: int) -> "Colouring":
        if m < 1:
            raise ValueError("modulus must be positive")
        return Colouring("mod", m)

    @staticmethod
    def gamma(base: int = 10) -> "Colouring":
        if base < 2:
            raise ValueError("base must be at least 2")
        return Colouring("gamma", base)

    @staticmethod
    def start_parity(base: int = 2) -> "Colouring":
        if base < 2:
            raise ValueError("base must be at least 2")
        return Colouring("start_parity", base)

    @staticmethod
    def table(colours: Sequence[int]) -> "Colouring":
        data = tuple(int(c) for c in colours)
        if not data:
            raise ValueError("table colouring needs at least one entry")
        return Colouring("table", 0, data)

    def colour(self, x: int) -> Hashable:
        if x < 1:
            raise ValueError("colourings are defined on positive integers")
        if self.kind == "mod":
            return x % self.param
        if self.kind == "gamma":
            return gamma_colour(x, self.param)
        if self.kind == "start_parity":
            return leading_exponent(x, self.param) % 2
        if self.kind == "table":
            if x > len(self.table_data):
                raise ValueError(f"table colouring undefined at {x}")
            return self.table_data[x - 1]
        raise ValueError(f"unknown colouring kind {self.kind!r}")

    def pieces(self, bound: int) -> list[tuple[Hashable, range]]:
        """Split [1..bound] into (colour, progression) pairs.

        Every integer in [1..bound] lies in exactly one pair, and every
        member of a pair has that pair's colour.  Residue classes for "mod",
        one interval per exponent band for "start_parity", per exponent and
        two leading digits for "gamma", per run of equal colours for "table".
        """
        b = self.param
        if self.kind == "mod":
            return [(r % b, range(r, bound + 1, b)) for r in range(1, min(b, bound) + 1)]
        if self.kind == "start_parity":
            return [
                (t % 2, range(power, min(power * b, bound + 1)))
                for t, power in _exponent_bands(b, bound)
            ]
        if self.kind == "gamma":
            out = [((0, d, 0), range(d, d + 1)) for d in range(1, min(b - 1, bound) + 1)]
            for t, power in _exponent_bands(b, bound):
                if t == 0:
                    continue  # single digits, listed above
                step = power // b
                for lead in range(b, b * b):  # the two leading digits
                    low = lead * step
                    if low > bound:
                        break
                    out.append(
                        ((t % 2, lead // b, lead % b), range(low, min(low + step, bound + 1)))
                    )
            return out
        if self.kind == "table":
            if bound > len(self.table_data):
                raise ValueError(f"table colouring undefined at {len(self.table_data) + 1}")
            out, start = [], 1
            for colour, run in groupby(self.table_data[:bound]):
                end = start + len(list(run))
                out.append((colour, range(start, end)))
                start = end
            return out
        raise ValueError(f"unknown colouring kind {self.kind!r}")


class _DilatedColouring:
    """colour(x) = base colouring of factor*x; the pullback used by dilation."""

    def __init__(self, base: Colouring, factor: int):
        self.base = base
        self.factor = factor

    def colour(self, x: int) -> Hashable:
        return self.base.colour(self.factor * x)

    def pieces(self, bound: int) -> list[tuple[Hashable, range]]:
        out = []
        for colour, r in self.base.pieces(self.factor * bound):
            pulled = _progression(self.factor, r)
            if pulled:
                out.append((colour, pulled))
        return out


@dataclass(frozen=True)
class SolutionWitness:
    """Concrete monochromatic solution: one positive vector per matrix."""

    vectors: tuple[tuple[int, ...], ...]
    colours: tuple[Hashable, ...]

    def verify(self, matrices: Sequence[QMatrix], colouring) -> bool:
        """Exact re-check: entries positive, sums vanish, blocks monochromatic."""
        if len(self.vectors) != len(matrices) or len(self.colours) != len(matrices):
            return False
        rows = matrices[0].rows
        total = [Q(0)] * rows
        for M, vec, col in zip(matrices, self.vectors, self.colours):
            if M.rows != rows or len(vec) != M.cols:
                return False
            if any(x < 1 for x in vec):
                return False
            if any(colouring.colour(x) != col for x in vec):
                return False
            for r in range(rows):
                total[r] += sum(
                    (M.entries[r][j] * vec[j] for j in range(M.cols)), Q(0)
                )
        return all(t == 0 for t in total)


@dataclass(frozen=True)
class WitnessColouring:
    """Colouring of [1..bound] admitting no bounded monochromatic solution."""

    bound: int
    colours: int
    table: tuple[int, ...]

    def as_colouring(self) -> Colouring:
        return Colouring.table(self.table)

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "colours": self.colours,
            "table": list(self.table),
        }

    def to_text(self) -> str:
        return "\n".join(f"{i + 1} {c}" for i, c in enumerate(self.table)) + "\n"


class _KernelSearch:
    """Backtracking over the free coordinates of the assembled kernel.

    At depth d the free coordinate is written scale[d]*t with t a positive
    integer, where scale[d] clears the denominators of the entries that
    depend on this coordinate alone; each such unary entry is then a*t with
    a an integer.  Its admissible t form, per colour piece, an arithmetic
    progression, so the candidates are groups (t-progression, colours of
    the blocks they fix) built by intersecting progressions, never by
    scanning [1..N], and merged lazily in increasing t.  A group whose
    colours leave the next depth with no candidates is dropped: fixing more
    colours only shrinks a candidate set.
    Entries depending on several coordinates are one integer denominator
    over integer numerators, checked per candidate.  Values are tried in
    increasing order and free columns in increasing index order, so the
    first hit is canonical.
    """

    def __init__(self, matrices: Sequence[QMatrix], bound: int, colouring):
        if bound < 1:
            raise ValueError("bound must be at least 1")
        if not matrices:
            raise ValueError("need at least one matrix")
        rows = matrices[0].rows
        if any(M.rows != rows for M in matrices):
            raise ValueError("matrices must share their row count")
        self.bound = bound
        self.colouring = colouring
        combined = QMatrix.hstack(list(matrices))
        self.n = combined.cols
        offsets = [0]
        for M in matrices:
            offsets.append(offsets[-1] + M.cols)
        self.offsets = offsets
        self.block_of = [
            t for t, M in enumerate(matrices) for _ in range(M.cols)
        ]
        self.k = len(matrices)

        basis = nullspace_basis(combined)
        # basis[d] is 1 at the d-th free column and 0 at the others
        exprs = [
            {d: vector.entries[e] for d, vector in enumerate(basis) if vector.entries[e]}
            for e in range(self.n)
        ]
        self.results: list[tuple[tuple[tuple[int, ...], ...], tuple[Hashable, ...]]] = []
        self.depths = depths = len(basis)
        self.viable = bool(basis) and all(exprs)
        if not self.viable:
            return

        unary: list[list[tuple[int, Q]]] = [[] for _ in range(depths)]
        for e, expr in enumerate(exprs):
            if len(expr) == 1:
                ((d, c),) = expr.items()
                unary[d].append((e, c))
        # the free value at depth d is scale[d] * t, so each unary entry is a * t
        scale = [lcm(*(c.denominator for _, c in entries)) for entries in unary]
        self.unary_at = [
            [(e, (c * L).numerator) for e, c in entries]
            for entries, L in zip(unary, scale)
        ]
        self.multi_at: list[list[tuple[int, int, tuple[tuple[int, int], ...]]]] = [
            [] for _ in range(depths)
        ]
        for e, expr in enumerate(exprs):
            if len(expr) > 1:
                terms = {d: c * scale[d] for d, c in expr.items()}
                den = lcm(*(c.denominator for c in terms.values()))
                numerators = tuple((d, (c * den).numerator) for d, c in terms.items())
                self.multi_at[max(terms)].append((e, den, numerators))
        # the blocks whose colours a depth's candidates depend on
        self.key_blocks = [
            tuple(sorted({self.block_of[e] for e, _ in entries}))
            for entries in self.unary_at
        ]
        pieces = (
            [(None, range(1, bound + 1))] if colouring is None
            else colouring.pieces(bound)
        )
        # per depth and unary entry: its key-block slot and colour -> t-progressions
        self.entry_pieces: list[list[tuple[int, dict[Hashable, list[range]]]]] = []
        for entries, blocks in zip(self.unary_at, self.key_blocks):
            per_entry = []
            for e, a in entries:
                by_colour: dict[Hashable, list[range]] = {}
                for colour, r in pieces:
                    progression = _progression(a, r)
                    if progression:
                        by_colour.setdefault(colour, []).append(progression)
                per_entry.append((blocks.index(self.block_of[e]), by_colour))
            self.entry_pieces.append(per_entry)

        self.values = [0] * self.n
        self.ts = [0] * depths
        self.colour_state: list[Hashable | None] = [None] * self.k
        self.group_cache: dict[tuple, list[tuple[range, tuple]]] = {}

    def _groups(self, depth: int, key: tuple) -> list[tuple[range, tuple]]:
        """(t-progression, key-block colours) groups at `depth` under colours `key`."""
        cached = self.group_cache.get((depth, key))
        if cached is not None:
            return cached
        groups = [(range(1, self.bound + 1), key)]
        for slot, by_colour in self.entry_pieces[depth]:
            refined = []
            for progression, colours in groups:
                required = colours[slot]
                if required is None:
                    options = by_colour.items()
                else:
                    options = ((required, by_colour.get(required, ())),)
                for colour, pieces in options:
                    fixed = colours[:slot] + (colour,) + colours[slot + 1:]
                    for piece in pieces:
                        common = _intersect(progression, piece)
                        if common:
                            refined.append((common, fixed))
            groups = refined
        if depth + 1 < self.depths:
            blocks = self.key_blocks[depth]
            after = self.key_blocks[depth + 1]
            groups = [
                group for group in groups
                if self._groups(depth + 1, tuple(
                    group[1][blocks.index(b)] if b in blocks else None for b in after
                ))
            ]
        self.group_cache[(depth, key)] = groups
        return groups

    def _candidates(self, depth: int) -> Iterator[tuple[int, tuple]]:
        """(t, key-block colours) at `depth` in increasing t, merged lazily."""
        key = tuple(self.colour_state[b] for b in self.key_blocks[depth])
        streams = [
            zip(progression, repeat(colours))
            for progression, colours in self._groups(depth, key)
        ]
        # groups are disjoint, so no two candidates share a t; one group
        # skips the merge's per-candidate generator step
        return streams[0] if len(streams) == 1 else heapq.merge(*streams)

    def run(self, find_all: bool = False):
        if self.viable:
            self._dfs(0, find_all)
        return self.results

    def _dfs(self, depth: int, find_all: bool) -> bool:
        if depth == self.depths:
            vectors = tuple(
                tuple(self.values[self.offsets[t]:self.offsets[t + 1]])
                for t in range(self.k)
            )
            self.results.append((vectors, tuple(self.colour_state)))
            return not find_all
        state = self.colour_state
        blocks = self.key_blocks[depth]
        for t, colours in self._candidates(depth):
            self.ts[depth] = t
            for e, a in self.unary_at[depth]:
                self.values[e] = a * t
            set_blocks = [b for b in blocks if state[b] is None]
            for b, colour in zip(blocks, colours):
                state[b] = colour
            ok = True
            for e, den, numerators in self.multi_at[depth]:
                w, rem = divmod(sum(c * self.ts[d] for d, c in numerators), den)
                if rem or w < 1 or w > self.bound:
                    ok = False
                    break
                self.values[e] = w
                if self.colouring is not None:
                    b = self.block_of[e]
                    col = self.colouring.colour(w)
                    if state[b] is None:
                        state[b] = col
                        set_blocks.append(b)
                    elif state[b] != col:
                        ok = False
                        break
            if ok and self._dfs(depth + 1, find_all):
                return True
            for b in set_blocks:
                state[b] = None
        return False


def find_monochromatic_solution(
    matrices: Sequence[QMatrix], colouring, bound: int
) -> SolutionWitness | None:
    """First bounded solution with each block monochromatic, or None.

    Blocks may carry different colours.  Absence says nothing beyond the
    bound.  The colouring provides colour(x) and pieces(bound), as
    Colouring does.
    """
    search = _KernelSearch(matrices, bound, colouring)
    results = search.run(find_all=False)
    if not results:
        return None
    vectors, colours = results[0]
    witness = SolutionWitness(vectors, colours)
    assert witness.verify(matrices, colouring)
    return witness


def enumerate_bounded_solutions(
    matrices: Sequence[QMatrix], bound: int
) -> list[tuple[tuple[int, ...], ...]]:
    """Every solution with all entries in [1..bound], colour-blind."""
    search = _KernelSearch(matrices, bound, None)
    return [vectors for vectors, _ in search.run(find_all=True)]


def _distinct_blocks(
    solutions: list[tuple[tuple[int, ...], ...]]
) -> list[tuple[tuple[int, ...], ...]]:
    seen = set()
    out = []
    for vectors in solutions:
        key = tuple(tuple(sorted(set(vec))) for vec in vectors)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _guard_sweep_size(colours: int, bound: int) -> None:
    if colours < 1 or bound < 1:
        raise ValueError("need at least one colour and a positive bound")
    # the limit is below 2**64, so capping the exponent keeps the verdict
    if colours ** min(bound, 64) > COLOURING_SWEEP_LIMIT:
        raise ValueError(
            f"{colours}^{bound} colourings exceed the sweep limit of {COLOURING_SWEEP_LIMIT}"
        )


def verify_all_colourings(
    matrices: Sequence[QMatrix], colours: int, bound: int
) -> bool:
    """True iff every `colours`-colouring of [1..bound] admits a bounded solution.

    The same question as search_witness_colouring finding no witness, and
    answered by it; oversized instances are rejected up front.
    """
    return search_witness_colouring(matrices, colours, bound) is None


def search_witness_colouring(
    matrices: Sequence[QMatrix], colours: int, bound: int
) -> WitnessColouring | None:
    """Colouring of [1..bound] admitting no bounded monochromatic solution.

    Backtracking in increasing integer order on an explicit stack, so the
    bound is not limited by the recursion depth, with the colour of 1 fixed
    to 0 (colour names are interchangeable).  Before colouring n, every solution
    whose largest value is n and whose other values are already consistently
    coloured forbids the colour that would complete it; a solution forcing
    every colour kills the branch.  Absence means every colouring of
    [1..bound] admits a bounded solution.
    """
    _guard_sweep_size(colours, bound)
    solutions = _distinct_blocks(enumerate_bounded_solutions(matrices, bound))
    by_max: list[list[tuple[tuple[int, ...], ...]]] = [[] for _ in range(bound + 1)]
    for sol in solutions:
        by_max[max(max(block) for block in sol)].append(sol)
    table = [0] * bound

    def forbidden_for(n: int) -> set[int] | None:
        forbidden: set[int] = set()
        for sol in by_max[n]:
            required: set[int] = set()
            safe = False
            for block in sol:
                if n in block:
                    others = {table[x - 1] for x in block if x != n}
                    if len(others) > 1:
                        safe = True
                        break
                    required |= others
                else:
                    if len({table[x - 1] for x in block}) > 1:
                        safe = True
                        break
            if safe or len(required) > 1:
                continue
            if not required:
                return None  # any colour of n completes this solution
            forbidden.add(required.pop())
            if len(forbidden) == colours:
                return None
        return forbidden

    def untried(n: int) -> list[int]:
        """n's allowed colours, largest first, so that pop() takes the smallest."""
        forbidden = forbidden_for(n)
        if forbidden is None:
            return []
        return [c for c in range(0 if n == 1 else colours - 1, -1, -1) if c not in forbidden]

    stack = [untried(1)]  # stack[n - 1]: the colours of n still to try
    while stack:
        if not stack[-1]:
            stack.pop()
            continue
        n = len(stack)
        table[n - 1] = stack[-1].pop()
        if n == bound:
            return WitnessColouring(bound, colours, tuple(table))
        stack.append(untried(n + 1))
    return None


def dilation_check(
    matrix: QMatrix, colouring: Colouring, factor: int, bound: int
) -> bool:
    """Mechanical check of the dilation property of kernel solutions.

    Search under the pullback colouring x -> colour(factor*x); any witness,
    multiplied through by the factor, must again be a monochromatic solution
    under the original colouring.  Vacuously true when the pullback search
    finds nothing within the bound.
    """
    if factor < 1:
        raise ValueError("factor must be a positive integer")
    pulled_back = _DilatedColouring(colouring, factor)
    witness = find_monochromatic_solution([matrix], pulled_back, bound)
    if witness is None:
        return True
    scaled_vectors = tuple(
        tuple(factor * x for x in vec) for vec in witness.vectors
    )
    scaled_colours = tuple(
        colouring.colour(vec[0]) for vec in scaled_vectors
    )
    scaled = SolutionWitness(scaled_vectors, scaled_colours)
    return scaled.verify([matrix], colouring)
