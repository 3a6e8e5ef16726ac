"""Finite-scale colouring oracles for partition regularity claims.

This module validates decisions independently of the certificate machinery:
rule-based colourings of the positive integers, bounded search for
monochromatic solutions, and backtracking search for witness colourings
that admit no bounded solution.  The sweep over all r-colourings of an
initial segment is that witness search: every colouring admits a solution
exactly when no witness exists.

The bounded solution search never walks the full v-fold product space: the
kernel of the assembled matrix is parametrised through its reduced row
echelon form, whose free coordinates are literal entries of the solution
vector.  Ranging those over [1..N] and checking every derived entry with
exact arithmetic is therefore complete within the bound.  Negative results
are evidence up to their bound, never proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Sequence

from .linalg import Q, QMatrix, rref

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

    def spec_string(self) -> str:
        if self.kind == "mod":
            return f"mod:{self.param}"
        if self.kind == "gamma":
            return f"gamma:{self.param}"
        if self.kind == "start_parity":
            return f"startparity:{self.param}"
        return f"table[{len(self.table_data)}]"


class _DilatedColouring:
    """colour(x) = base colouring of factor*x; the pullback used by dilation."""

    def __init__(self, base: Colouring, factor: int):
        self.base = base
        self.factor = factor

    def colour(self, x: int) -> Hashable:
        return self.base.colour(self.factor * x)


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

    Entries whose expression touches a single free coordinate are filtered
    through cached per-colour-state domains, so huge bounds stay tractable
    when the per-coordinate constraints already clash (the interesting
    negative cases).  Values are tried in increasing order and free columns
    in increasing index order, so the first hit is canonical.
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

        R, pivots, _ = rref(combined)
        pivot_set = set(pivots)
        self.free = [c for c in range(self.n) if c not in pivot_set]
        exprs: list[dict[int, Fraction]] = [{} for _ in range(self.n)]
        for f in self.free:
            exprs[f] = {f: Q(1)}
        for ri, p in enumerate(pivots):
            row = R.entries[ri]
            exprs[p] = {f: -row[f] for f in self.free if row[f] != 0}
        self.exprs = exprs
        self.viable = bool(self.free) and all(exprs[e] for e in range(self.n))

        depth_of = {f: d for d, f in enumerate(self.free)}
        self.unary_at: list[list[tuple[int, Fraction]]] = [[] for _ in self.free]
        self.multi_at: list[list[int]] = [[] for _ in self.free]
        if self.viable:
            for e in range(self.n):
                support = list(exprs[e])
                d = max(depth_of[f] for f in support)
                if len(support) == 1:
                    self.unary_at[d].append((e, exprs[e][support[0]]))
                else:
                    self.multi_at[d].append(e)

        self.values = [0] * self.n
        self.free_vals: dict[int, int] = {}
        self.colour_state: list[Hashable | None] = [None] * self.k
        self.cand_cache: dict[tuple, list[int]] = {}
        self.results: list[tuple[tuple[tuple[int, ...], ...], tuple[Hashable, ...]]] = []

    def _candidates(self, depth: int) -> list[int]:
        unary = self.unary_at[depth]
        key_blocks = tuple(sorted({self.block_of[e] for e, _ in unary}))
        key = (depth, tuple(self.colour_state[b] for b in key_blocks))
        cached = self.cand_cache.get(key)
        if cached is not None:
            return cached
        preset = {b: self.colour_state[b] for b in key_blocks}
        out: list[int] = []
        for val in range(1, self.bound + 1):
            local: dict[int, Hashable] = {}
            ok = True
            for e, coeff in unary:
                w = coeff * val
                if w.denominator != 1:
                    ok = False
                    break
                wi = int(w)
                if wi < 1 or wi > self.bound:
                    ok = False
                    break
                if self.colouring is not None:
                    b = self.block_of[e]
                    required = local.get(b, preset[b])
                    col = self.colouring.colour(wi)
                    if required is None:
                        local[b] = col
                    elif col != required:
                        ok = False
                        break
            if ok:
                out.append(val)
        self.cand_cache[key] = out
        return out

    def run(self, find_all: bool = False):
        if self.viable:
            self._dfs(0, find_all)
        return self.results

    def _dfs(self, depth: int, find_all: bool) -> bool:
        if depth == len(self.free):
            vectors = tuple(
                tuple(self.values[self.offsets[t]:self.offsets[t + 1]])
                for t in range(self.k)
            )
            self.results.append((vectors, tuple(self.colour_state)))
            return not find_all
        fv = self.free[depth]
        for val in self._candidates(depth):
            self.free_vals[fv] = val
            set_blocks: list[int] = []
            ok = True
            for e, coeff in self.unary_at[depth]:
                wi = int(coeff * val)
                self.values[e] = wi
                if self.colouring is not None:
                    b = self.block_of[e]
                    col = self.colouring.colour(wi)
                    if self.colour_state[b] is None:
                        self.colour_state[b] = col
                        set_blocks.append(b)
                    elif self.colour_state[b] != col:
                        ok = False
                        break
            if ok:
                for e in self.multi_at[depth]:
                    w = sum(
                        (c * self.free_vals[f] for f, c in self.exprs[e].items()),
                        Q(0),
                    )
                    if w.denominator != 1:
                        ok = False
                        break
                    wi = int(w)
                    if wi < 1 or wi > self.bound:
                        ok = False
                        break
                    self.values[e] = wi
                    if self.colouring is not None:
                        b = self.block_of[e]
                        col = self.colouring.colour(wi)
                        if self.colour_state[b] is None:
                            self.colour_state[b] = col
                            set_blocks.append(b)
                        elif self.colour_state[b] != col:
                            ok = False
                            break
            if ok and self._dfs(depth + 1, find_all):
                return True
            for b in set_blocks:
                self.colour_state[b] = None
        self.free_vals.pop(fv, None)
        return False


def find_monochromatic_solution(
    matrices: Sequence[QMatrix], colouring, bound: int
) -> SolutionWitness | None:
    """First bounded solution with each block monochromatic, or None.

    Blocks may carry different colours.  Absence says nothing beyond the
    bound.
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
    if colours**bound > COLOURING_SWEEP_LIMIT:
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

    Backtracking in increasing integer order with the colour of 1 fixed to 0
    (colour names are interchangeable).  Before colouring n, every solution
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

    def dfs(n: int) -> bool:
        if n > bound:
            return True
        forbidden = forbidden_for(n)
        if forbidden is None:
            return False
        for c in range(1 if n == 1 else colours):
            if c in forbidden:
                continue
            table[n - 1] = c
            if dfs(n + 1):
                return True
        return False

    if dfs(1):
        return WitnessColouring(bound, colours, tuple(table))
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
