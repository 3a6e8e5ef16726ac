"""Finite-scale colouring oracles for partition regularity claims.

This module validates decisions independently of the certificate machinery:
rule-based colourings of the positive integers, bounded search for
monochromatic solutions, and backtracking search for witness colourings
that admit no bounded solution.  That search checks forward: a value may not
take the colour that completes a solution whose other values are coloured.
The sweep over all r-colourings of an initial segment is that witness
search: every colouring admits a solution exactly when no witness exists.

The bounded solution search never walks the full v-fold product space: the
kernel of the assembled matrix is parametrised by its integer basis, one
vector per free column, 0 at the other free columns and divided by its entry
there, so the free coordinates are literal entries of the solution vector.
Ranging those over [1..N] and checking every derived entry with exact integer
arithmetic is therefore complete within the bound.  Nor does it scan [1..N]
value by value: every colouring splits [1..N] into colour pieces that are
arithmetic progressions.  Each entry is (a*t + offset)/den in the free value
t chosen last, the offset being fixed by the earlier ones, so the t that put
it in a piece form a progression too; candidates are intersections of these,
found through an index of the pieces by residue and start, filed per colour
on first use, and merged lazily in increasing order, so time and memory
grow linearly with the colour pieces, not with N.  The bounds prune too: each
free value is clipped to the window where the entries it fixes lie in [1..N],
and a group of candidates is dropped, once the merge reaches it, if the next
free value has no place left in its own window.  Negative results are
evidence up to their bound, never proofs.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby, repeat
from math import gcd, lcm
from operator import mul
from typing import Hashable, Iterator, Sequence

from .linalg import EqualityEchelon, QMatrix, integer_kernel, integer_row

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


def _progression(a: int, r: range, offset: int, den: int) -> range:
    """The t >= 1 with (a*t + offset)/den in the progression r.

    a is nonzero, den positive and r has a positive step.  a*t must run over
    den*r - offset, reflected when a < 0 so that t still increases.
    """
    if not r:
        return _EMPTY
    low, high, step = den * r.start - offset, den * r[-1] - offset, den * r.step
    if a < 0:
        a, low, high = -a, -high, -low
    g = gcd(a, step)
    if low % g:
        return _EMPTY
    step //= g
    residue = low // g * pow(a // g, -1, step) % step
    first = max(1, -(-low // a))
    return range(first + (residue - first) % step, high // a + 1, step)


def _affine_image(r: range, a: int, b: int, d: int) -> range:
    """The (a*x + b)/d for x in r, increasing, where d > 0 divides every a*x + b."""
    ends = (a * r.start + b) // d, (a * r[-1] + b) // d
    return range(min(ends), max(ends) + 1, abs(a) * r.step // d)


def _intersect(x: range, y: range) -> range:
    """Common members of two non-empty progressions with positive steps (Chinese remainders).

    An interval x, as [1..bound] and the leading-digit groups are, only clips y.
    """
    if x.step == 1:
        return _clip(y, x.start, x[-1])
    g = gcd(x.step, y.step)
    gap = y.start - x.start
    if gap % g:
        return _EMPTY
    ny = y.step // g
    first = x.start + x.step * (gap // g * pow(x.step // g, -1, ny) % ny)
    step = x.step * ny
    low = max(x.start, y.start)
    return range(low + (first - low) % step, min(x[-1], y[-1]) + 1, step)


def _clip(r: range, low: int, high: int) -> range:
    """The members of r, a progression with a positive step, in [low..high]."""
    start, step = r.start, r.step
    first = (low - start - 1) // step + 1 if low > start else 0
    return r[first:(high - start) // step + 1 if high >= start else 0]


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
            raise ValueError("empty colour table")
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


@dataclass(frozen=True)
class SolutionWitness:
    """Concrete monochromatic solution: one positive vector per matrix."""

    vectors: tuple[tuple[int, ...], ...]
    colours: tuple[Hashable, ...]

    def verify(self, matrices: Sequence[QMatrix], colouring) -> bool:
        """Exact re-check in integers: entries positive, sums vanish, blocks monochromatic."""
        if not matrices or len(self.vectors) != len(matrices) or len(self.colours) != len(matrices):
            return False
        for M, vec, col in zip(matrices, self.vectors, self.colours):
            if M.rows != matrices[0].rows or len(vec) != M.cols:
                return False
            if any(x < 1 for x in vec):
                return False
            if any(colouring.colour(x) != col for x in vec):
                return False
        values = [x for vec in self.vectors for x in vec]
        # each row, across the blocks, times the lcm of its denominators
        return all(
            sum(map(mul, integer_row([x for M in matrices for x in M.entries[r]]), values)) == 0
            for r in range(matrices[0].rows)
        )


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


class _PieceIndex:
    """The colour pieces of [1..bound], found by the values they can meet.

    Grouped by colour and sorted by start at set-up (all under None), as a
    depth's own entry x = t takes them; for any other entry a colour's pieces
    are filed when `meeting` first asks, by residue modulo the gcd of the
    piece steps and by start: intervals (start parity, gamma, table runs) are
    found by bisection on a span, residue classes ("mod") by residue.  `lasts`
    holds running maxima, so bisection stays complete if spans interleave.
    """

    def __init__(self, pieces: list[tuple[Hashable, range]]):
        pieces = sorted((piece for piece in pieces if piece[1]), key=lambda piece: piece[1].start)
        self.modulus = gcd(*(r.step for _, r in pieces))
        self.pieces: dict[Hashable, list[tuple[Hashable, range]]] = {}
        for piece in pieces:
            self.pieces.setdefault(piece[0], []).append(piece)
        self.pieces[None] = pieces  # after grouping: colour-blind, the one piece is None's
        self.tables: dict[Hashable, dict[int, tuple[list, list, list]]] = {}

    def meeting(self, colour: Hashable, values: range) -> Iterator[tuple[Hashable, range]]:
        """The (colour, piece) pairs of `colour`, or any when None, that may meet `values`."""
        table = self.tables.get(colour)
        if table is None:
            table = self.tables[colour] = {}
            for c, r in self.pieces.get(colour, ()):
                starts, lasts, found = table.setdefault(r.start % self.modulus, ([], [], []))
                starts.append(r.start)
                lasts.append(max(r[-1], lasts[-1]) if lasts else r[-1])
                found.append((c, r))
        g = gcd(values.step, self.modulus)
        reached = range(values.start % g, self.modulus, g)  # the residues of `values`
        for residue in reached if len(reached) <= len(table) else table:
            if residue in table and residue % g == values.start % g:
                starts, lasts, found = table[residue]
                yield from found[bisect_left(lasts, values.start):bisect_right(starts, values[-1])]


class _KernelSearch:
    """Backtracking over the free coordinates of the assembled kernel.

    At depth d the free value t is chosen, and each entry whose last free
    coordinate is d is (a*t + offset)/den, integers with a != 0 and the
    offset fixed by the earlier free values.  Per colour piece its t form a
    progression, so the candidates are groups (t-progression, colours of
    the blocks they fix) built by intersecting progressions, never by
    scanning [1..N], and merged lazily in increasing t.  The free column's
    own entry, x = t, takes its colour's pieces as they are; any other entry
    splits a group only along the pieces its values there can meet
    (_PieceIndex), so the work follows the pieces, not their square:
    offset-free entries once per depth and colours (cached), the others per
    offset.  The t are first clipped to the
    depth's window, where every offset entry lies in [1..bound].  A group is
    dropped when the next depth can place no value: against the next depth's
    window over the group's t-range, lazily as the merge reaches the group,
    where the next depth has offset entries (_merged), and otherwise once per
    depth and colours.  Each entry's value is fixed once, at
    its own depth, from the offset the candidates were refined by; the last
    depth yields each solution in place, so a solution costs no generator and
    no recomputed entry.  Values are tried in increasing order and free columns
    in increasing index order, so solutions() yields (vectors, block colours)
    in canonical order, lazily: callers take the first with next or read the
    stream in full.  A search serves one stream.
    """

    def __init__(self, matrices: Sequence[QMatrix], bound: int, colouring):
        if bound < 1:
            raise ValueError("bound must be at least 1")
        if len({M.rows for M in matrices}) != 1:
            raise ValueError("need one matrix or more, all with one row count")
        self.bound = bound
        self.n = sum(M.cols for M in matrices)
        offsets = [0]
        for M in matrices:
            offsets.append(offsets[-1] + M.cols)
        self.block_of = [
            t for t, M in enumerate(matrices) for _ in range(M.cols)
        ]
        self.k = len(matrices)
        # the block slices of a solution vector, None for one block
        self.cuts = [slice(*offsets[b:b + 2]) for b in range(self.k)] if self.k > 1 else None

        # the combined matrix's rows, in integers, as homogeneous equalities
        echelon = EqualityEchelon(self.n).extend(
            integer_row([x for row in parts for x in row] + [0])
            for parts in zip(*(M.entries for M in matrices))
        )
        # kernel[d] is positive at the d-th free column and 0 at the others
        kernel = integer_kernel(echelon)
        self.depths = depths = len(kernel)
        self.viable = all(any(v[e] for v in kernel) for e in range(self.n))
        if not self.viable:
            return

        self.index = _PieceIndex(
            [(None, range(1, bound + 1))] if colouring is None else colouring.pieces(bound)
        )
        # entry e is the sum of t_d * kernel[d][e] / kernel[d][frees[d]], in
        # lowest terms; it joins the depth of its last free coordinate as
        # (a*t + offset)/den, den the lcm of the denominators
        frees = sorted(set(range(self.n)) - set(echelon.pivots))
        at_depth: list[list[tuple]] = [[] for _ in range(depths)]
        for e in range(self.n):
            terms = [(d, v[e] // g, v[f] // g) for d, (f, v) in enumerate(zip(frees, kernel))
                     if v[e] for g in [gcd(v[e], v[f])]]
            den = lcm(*(q for _, _, q in terms))
            *earlier, (d, a) = [(d, p * (den // q)) for d, p, q in terms]
            at_depth[d].append((e, a, den, tuple(earlier)))
        # per depth: its key blocks (whose colours its candidates depend on),
        # its offset-free entries as (key-block slot, a, den), its offset
        # entries as (column, slot, a, den, earlier (depth, coefficient)
        # terms) and the (column, a, den) of every entry its t fixes; no piece
        # is pulled back before a group asks for it
        self.levels = []
        for f, entries in zip(frees, at_depth):
            blocks = tuple(sorted({self.block_of[e] for e, *_ in entries}))
            plain, offsets = [], []
            for e, a, den, earlier in entries:
                slot = blocks.index(self.block_of[e])
                if earlier:
                    offsets.append((e, slot, a, den, earlier))
                elif e == f:  # the free column's own entry, x = t, goes first
                    plain.insert(0, (slot, a, den))
                else:
                    plain.append((slot, a, den))
            fix = [(e, a, den) for e, a, den, _ in entries]
            self.levels.append((blocks, plain, offsets, fix))
        # per depth whose next depth has offset entries, what its look-ahead
        # reads: each next key block as (its slot here or None, block), or
        # None when the key blocks agree, and each next offset entry as (a,
        # den, den*bound, its terms before this depth, its coefficient here)
        self.ahead = [None] * depths
        for d in range(depths - 1):
            blocks, (after, _, offsets, _) = self.levels[d][0], self.levels[d + 1]
            if offsets:
                slots = None if after == blocks else [
                    (blocks.index(b) if b in blocks else None, b) for b in after
                ]
                self.ahead[d] = slots, [
                    (a, den, den * bound, [term for term in earlier if term[0] < d],
                     dict(earlier).get(d, 0))
                    for _, _, a, den, earlier in offsets
                ]
        self.blind = colouring is None
        self.ts = [0] * depths
        self.values = [0] * self.n
        # per column, its offset under the current earlier free values, as
        # _candidates computed it (0 for an offset-free entry)
        self.shift = [0] * self.n
        self.colour_state: list[Hashable | None] = [None] * self.k
        self.group_cache: dict[tuple, list[tuple[range, tuple]]] = {}

    def _refine(self, groups: list, slot: int, a: int, offset: int, den: int) -> list:
        """Split (t-progression, colours) groups by the colour of (a*t + offset)/den.

        A colour fixed at `slot` is kept, an unfixed one becomes each colour
        met; only the pieces that a group's values can meet are pulled back.
        """
        sign = 1 if a > 0 else -1
        same = a == den == 1 and not offset  # x = t: a column equal to a free one
        refined = []
        for progression, colours in groups:
            # the integer values x = (a*t + offset)/den of the group, increasing
            if den == 1:
                values = progression if same else _affine_image(progression, a, offset, 1)
            elif not (values := _progression(sign * den, progression, -sign * offset, sign * a)):
                continue
            for colour, piece in self.index.meeting(colours[slot], values):
                if common := _intersect(values, piece):
                    if not same:
                        common = _affine_image(common, sign * den, -sign * offset, sign * a)
                    refined.append((common, colours[:slot] + (colour,) + colours[slot + 1:]))
        return refined

    def _groups(self, depth: int, key: tuple) -> list[tuple[range, tuple]]:
        """Groups at `depth` under colours `key`, from its offset-free entries.

        The first, x = t, gives the pieces of its colour (all while unfixed).
        Sorted by start where this depth or the next has offset entries;
        otherwise a group is dropped here when the next depth's offset-free
        entries leave it no candidates, as fixing more colours only shrinks them.
        """
        cached = self.group_cache.get((depth, key))
        if cached is not None:
            return cached
        blocks, ((slot, _, _), *plain), offsets, _ = self.levels[depth]
        groups = [(r, key[:slot] + (c,) + key[slot + 1:])
                  for c, r in self.index.pieces.get(key[slot], ())]
        for slot, a, den in plain:
            groups = self._refine(groups, slot, a, 0, den)
        if depth + 1 < self.depths and not self.ahead[depth]:
            after = self.levels[depth + 1][0]
            groups = [
                group for group in groups
                if self._groups(depth + 1, tuple(
                    group[1][blocks.index(b)] if b in blocks else None for b in after
                ))
            ]
        if (self.ahead[depth] or offsets) and len(groups) > 1:
            groups.sort(key=lambda group: group[0].start)
        self.group_cache[(depth, key)] = groups
        return groups

    def _candidates(self, depth: int) -> Iterator[tuple[int, tuple]]:
        """(t, key-block colours) at `depth` in increasing t, merged lazily.

        Groups are clipped to the window where every offset entry lies in
        [1..bound], so colour-blind an integral entry (den 1) needs no refinement.
        """
        blocks, _, offsets, _ = self.levels[depth]
        ahead = self.ahead[depth]
        groups = self._groups(depth, tuple(self.colour_state[b] for b in blocks))
        if offsets:
            ts, shift, bound = self.ts, self.shift, self.bound
            low, high = 1, bound
            for e, _, a, den, earlier in offsets:
                offset = shift[e] = sum(c * ts[d] for d, c in earlier)
                # a*t lies in [den - offset, den*bound - offset]
                small, big = den - offset, den * bound - offset
                if a < 0:
                    small, big = big, small
                small, big = -(-small // a), big // a
                if small > low:
                    low = small
                if big < high:
                    high = big
            clipped = []
            for progression, colours in groups:  # by start
                if progression.start > high:
                    break
                if progression := _clip(progression, low, high):
                    clipped.append((progression, colours))
            groups = clipped
            for e, slot, a, den, _ in offsets:
                if not groups:
                    break
                if den > 1 or not self.blind:
                    groups = self._refine(groups, slot, a, shift[e], den)
            if ahead:
                groups.sort(key=lambda group: group[0].start)
        if ahead:
            return self._merged(depth, groups)
        streams = [zip(progression, repeat(colours)) for progression, colours in groups]
        # groups are disjoint, so no two candidates share a t; one group
        # skips the merge's per-candidate generator step
        return streams[0] if len(streams) == 1 else heapq.merge(*streams)

    def _merged(self, depth: int, groups: list) -> Iterator[tuple[int, tuple]]:
        """The candidates of `groups`, sorted by start, with a lazy look-ahead.

        A group joins the merge only when the merge reaches its start, and
        only if some offset-free group of the next depth, under its colours,
        meets the next depth's window over the group's t-range, an offset
        term from this depth being bounded by its least and largest value on
        that range.  Every solution through the group passes both tests, so
        dropping a group loses none, and the candidates keep their order.
        """
        slots, entries = self.ahead[depth]
        ts, state, bound = self.ts, self.colour_state, self.bound
        terms = []
        for a, den, top, before, c in entries:
            fixed = sum(c * ts[d] for d, c in before) if before else 0
            terms.append((a, den - fixed, top - fixed, c))
        heap: list[list] = []  # [next t, rest of its group, colours]
        for progression, colours in [*groups, (None, None)]:
            first = progression.start if progression else bound + 1
            while heap and heap[0][0] < first:
                entry = heap[0]
                yield entry[0], entry[2]
                entry[0] = next(entry[1], None)
                if entry[0] is None:
                    heapq.heappop(heap)
                else:
                    heapq.heapreplace(heap, entry)
            if progression is None:
                return
            last = progression[-1]
            low, high = 1, bound
            for a, small, big, c in terms:
                # a*t lies in [den - largest offset, den*bound - least offset]
                if c > 0:
                    small, big = small - c * last, big - c * first
                else:
                    small, big = small - c * first, big - c * last
                if a < 0:
                    small, big = big, small
                small, big = -(-small // a), big // a
                if small > low:
                    low = small
                if big < high:
                    high = big
            key = colours if slots is None else tuple(
                [state[b] if s is None else colours[s] for s, b in slots]
            )
            for r, _ in self._groups(depth + 1, key):  # by start
                if r.start > high:
                    break
                if r.start >= low or _clip(r, low, high):
                    rest = iter(progression)
                    heapq.heappush(heap, [next(rest), rest, colours])
                    break

    def solutions(self) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[Hashable, ...]]]:
        return self._dfs(0) if self.viable else iter(())

    def _dfs(self, depth: int):
        ts, state, values, shift, cuts = self.ts, self.colour_state, self.values, self.shift, self.cuts
        blocks, _, _, fix = self.levels[depth]
        last = depth + 1 == self.depths
        unset = [b for b in blocks if state[b] is None]
        for t, colours in self._candidates(depth):
            ts[depth] = t
            for e, a, den in fix:
                values[e] = (a * t + shift[e]) // den
            for b, colour in zip(blocks, colours):
                state[b] = colour
            if last:
                vectors = tuple([tuple(values[cut]) for cut in cuts]) if cuts else (tuple(values),)
                yield vectors, tuple(state)
            else:
                yield from self._dfs(depth + 1)
        for b in unset:
            state[b] = None


def find_monochromatic_solution(
    matrices: Sequence[QMatrix], colouring, bound: int
) -> SolutionWitness | None:
    """First bounded solution with each block monochromatic, or None.

    Blocks may carry different colours.  Absence says nothing beyond the
    bound.  The colouring provides colour(x) and pieces(bound), as
    Colouring does.
    """
    first = next(_KernelSearch(matrices, bound, colouring).solutions(), None)
    if first is None:
        return None
    witness = SolutionWitness(*first)
    assert witness.verify(matrices, colouring)
    return witness


def enumerate_bounded_solutions(
    matrices: Sequence[QMatrix], bound: int
) -> list[tuple[tuple[int, ...], ...]]:
    """Every solution with all entries in [1..bound], colour-blind."""
    return [vectors for vectors, _ in _KernelSearch(matrices, bound, None).solutions()]


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

    Oversized instances are rejected up front.  One colour asks only whether
    a bounded solution exists, which one kernel search under `mod:1` answers
    without building a colour table, and search_witness_colouring reads its
    one-colour witness from that answer; otherwise this is
    search_witness_colouring finding no witness, so its forward checking
    prunes the sweep too.
    """
    if colours == 1:
        _guard_sweep_size(colours, bound)
        return find_monochromatic_solution(matrices, Colouring.mod(1), bound) is not None
    return search_witness_colouring(matrices, colours, bound) is None


def search_witness_colouring(
    matrices: Sequence[QMatrix], colours: int, bound: int
) -> WitnessColouring | None:
    """Colouring of [1..bound] admitting no bounded monochromatic solution.

    Backtracking in increasing integer order on an explicit stack, so the
    bound is not limited by the recursion depth.  Colour names are
    interchangeable, so n may take at most one colour above the largest used
    on 1..n-1, and 1 takes colour 0: relabelling a witness by order of first
    use gives a witness that is lexicographically no larger, so the first
    witness found is still the lexicographically first of all.  Forward
    checking: once a solution's values below its largest m are coloured, it
    is skipped if a block without m is not monochromatic or the blocks with m
    need different colours, and otherwise forbids m the colour that would
    complete it (every colour if those blocks hold only m).  Each distinct
    check is filed once, from the list of enumerate_bounded_solutions; a
    one-block solution has no blocks without m, so its check is read off its
    sorted distinct values.  Forbidden-colour masks are undone on backtrack,
    and a branch dies when an open value has every colour forbidden, so only
    dead subtrees are cut.  With one colour
    the all-zero table is the witness exactly when verify_all_colourings
    finds no bounded solution.  Absence means every colouring of [1..bound]
    admits a bounded solution.
    """
    if colours == 1:
        return None if verify_all_colourings(matrices, 1, bound) else WitnessColouring(bound, 1, (0,) * bound)
    _guard_sweep_size(colours, bound)
    # each distinct solution as (m, the other values of its blocks with m, its
    # blocks without m of two values or more), filed under the largest value
    # that reads: its second-largest distinct value or below, 0 for none
    checks_at: list[dict[tuple, None]] = [{} for _ in range(bound + 1)]
    for vectors in enumerate_bounded_solutions(matrices, bound):
        if len(vectors) == 1:  # no blocks without m
            *beside, m = sorted({*vectors[0]})
            read, apart = beside[-1] if beside else 0, ()
        else:
            m = max(map(max, vectors))
            beside, apart = set(), set()
            for vec in vectors:
                if m in vec:
                    beside.update(vec)
                elif min(vec) < max(vec):
                    apart.add(frozenset(vec))
            beside.discard(m)
            read = max(beside.union(*apart), default=0)
            beside, apart = sorted(beside), frozenset(apart)
        checks_at[read][m, tuple(beside), apart] = None
    if checks_at[0]:
        return None  # every block holds one value: monochromatic under every colouring
    colour = [0] * (bound + 1)  # colour[x] for x in 1..bound
    forbidden = [0] * (bound + 1)  # per value, a bit mask of the colours it may not take
    every = (1 << colours) - 1

    def forward(n: int, changed: list[tuple[int, int]]) -> bool:
        """Forbid what n's colour forces, logging (value, old mask); False if the branch dies."""
        for m, beside, apart in checks_at[n]:
            c = colour[beside[0]] if beside else None
            for x in beside:
                if colour[x] != c:
                    break
            else:  # every value beside m has colour c
                if apart and any(len({colour[x] for x in block}) > 1 for block in apart):
                    continue
                if c is None:
                    return False  # every colour of m completes this solution
                bit = 1 << c
                if not forbidden[m] & bit:
                    changed.append((m, forbidden[m]))
                    forbidden[m] |= bit
                    if forbidden[m] == every:
                        return False
        return True

    def untried(n: int, top: int) -> list[int]:
        """n's allowed colours, largest first for pop(); `top` is the largest on 1..n-1 or -1."""
        return [c for c in range(min(top + 1, colours - 1), -1, -1) if not forbidden[n] >> c & 1]

    # stack[n - 1]: the largest colour on 1..n-1, the colours of n still to
    # try, and the masks that n's current colour changed
    stack = [(-1, untried(1, -1), [])]
    while stack:
        top, options, changed = stack[-1]
        for m, mask in reversed(changed):
            forbidden[m] = mask
        changed.clear()
        if not options:
            stack.pop()
            continue
        n = len(stack)
        colour[n] = options.pop()
        if not forward(n, changed):
            continue
        if n == bound:
            return WitnessColouring(bound, colours, tuple(colour[1:]))
        top = max(top, colour[n])
        stack.append((top, untried(n + 1, top), []))
    return None

