import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from conftest import diag12, schur, fractional_b_matrix, random_matrix, random_rational, vdw
from partreg import (
    Colouring,
    QMatrix,
    SolutionWitness,
    enumerate_bounded_solutions,
    find_monochromatic_solution,
    gamma_colour,
    leading_exponent,
    search_witness_colouring,
    verify_all_colourings,
)
from partreg import oracle
from partreg.linalg import rref
from partreg.oracle import _KernelSearch, _progression


def minus_identity(n):
    return QMatrix.identity(n).scale(-1)


# ----------------------------------------------------------------- colourings

def test_leading_exponent():
    assert leading_exponent(67100200, 10) == 7
    assert leading_exponent(1, 10) == 0
    assert leading_exponent(1, 2) == 0
    assert leading_exponent(8, 2) == 3
    with pytest.raises(ValueError):
        leading_exponent(0, 10)
    with pytest.raises(ValueError):
        leading_exponent(5, 1)


def test_gamma_colour_worked_digits():
    assert gamma_colour(67100200, 10) == (1, 6, 7)
    assert gamma_colour(3040567, 10) == (0, 3, 0)
    assert gamma_colour(49, 7) == (0, 1, 0)  # exact square of the base
    assert gamma_colour(7, 10) == (0, 7, 0)  # single digit: second digit is 0


def test_gamma_colour_invariant_under_base_squared_dilation():
    rng = random.Random(61)
    for _ in range(200):
        base = rng.randint(2, 11)
        x = rng.randint(1, 10**6)
        assert gamma_colour(base * base * x, base) == gamma_colour(x, base)


def test_gamma_colour_count_is_bounded():
    for base in (2, 3, 5):
        reachable = {gamma_colour(x, base) for x in range(1, 3000)}
        assert len(reachable) <= 2 * base * (base - 1)


def test_colouring_kinds():
    assert Colouring.mod(3).colour(10) == 1
    assert Colouring.start_parity(2).colour(5) == 0  # 4 <= 5 < 8, exponent 2
    assert Colouring.start_parity(2).colour(2) == 1
    assert Colouring.gamma(10).colour(67100200) == (1, 6, 7)
    table = Colouring.table([0, 1, 1, 0])
    assert [table.colour(i) for i in (1, 2, 3, 4)] == [0, 1, 1, 0]
    with pytest.raises(ValueError):
        table.colour(5)
    with pytest.raises(ValueError):
        Colouring.mod(0)
    with pytest.raises(ValueError):
        Colouring.gamma(1)


def every_colouring_kind(rng, bound):
    kinds = [Colouring.mod(m) for m in range(1, 6)]
    kinds += [Colouring.start_parity(b) for b in (2, 3, 4)]
    kinds += [Colouring.gamma(b) for b in (2, 3, 10)]
    kinds.append(Colouring.table([rng.randint(0, 2) for _ in range(4 * bound)]))
    kinds.append(DilatedColouring(Colouring.mod(rng.randint(2, 5)), rng.randint(2, 4)))
    kinds.append(DilatedColouring(Colouring.start_parity(rng.randint(2, 3)), rng.randint(2, 4)))
    return kinds


def test_colour_pieces_partition_the_bound():
    rng = random.Random(73)
    for bound in (1, 2, 9, 10, 11, 100, 1000, rng.randint(2, 3000)):
        for colouring in every_colouring_kind(rng, bound):
            covered = Counter()
            for colour, piece in colouring.pieces(bound):
                covered.update(piece)
                assert all(colouring.colour(x) == colour for x in piece)
            assert covered == Counter(range(1, bound + 1))


def test_gamma_pieces_grow_with_the_exponent_not_the_bound():
    assert len(Colouring.gamma(10).pieces(10**6 - 1)) == 9 + 5 * 90
    assert len(Colouring.start_parity(2).pieces(2**30)) == 31


def test_short_table_has_no_pieces_beyond_it():
    with pytest.raises(ValueError, match="table colouring undefined at 3"):
        Colouring.table([0, 1]).pieces(5)


# ------------------------------------------------------------ bounded search

def test_schur_single_colour_witness():
    witness = find_monochromatic_solution([schur()], Colouring.mod(1), 3)
    assert witness.vectors == ((1, 1, 2),)
    assert witness.verify([schur()], Colouring.mod(1))


def test_diag_pair_has_no_start_parity_witness():
    matrices = [diag12(), minus_identity(2)]
    colouring = Colouring.start_parity(2)
    for bound in (16, 256, 4096, 2**20):  # 2**20 tops the oracle bound ladder
        assert find_monochromatic_solution(matrices, colouring, bound) is None


def test_counterexample_pair_mod_two_witness():
    matrices = [fractional_b_matrix(), minus_identity(2)]
    witness = find_monochromatic_solution(matrices, Colouring.mod(2), 6)
    assert witness is not None
    assert witness.vectors == ((2, 2, 2), (4, 6))
    assert witness.verify(matrices, Colouring.mod(2))


def test_pinned_witnesses():
    witness = find_monochromatic_solution([vdw()], Colouring.gamma(10), 2000)
    assert witness.vectors == ((100, 101, 102, 103, 1),)
    witness = find_monochromatic_solution(
        [diag12(), minus_identity(2)], Colouring.mod(3), 100
    )
    assert witness.vectors == ((3, 3), (3, 6))
    # the blocks take different colours (2 and 1), which the look-ahead from
    # the first free coordinate to the second must keep apart
    witness = find_monochromatic_solution(
        [QMatrix.identity(2), QMatrix.identity(2).scale(-2)], Colouring.mod(3), 10
    )
    assert witness.vectors == ((2, 2), (1, 1))
    # z = x + y has an offset at y's depth: its colour is intersected, not
    # checked per candidate, so the bound does not set the time
    witness = find_monochromatic_solution([schur()], Colouring.mod(3), 3 * 10**6)
    assert witness.vectors == ((3, 3, 6),)


def test_trivial_kernel_has_no_witness():
    assert find_monochromatic_solution([QMatrix.identity(2)], Colouring.mod(1), 10) is None


def test_kernel_search_needs_blocks_with_one_row_count():
    for matrices in ([], [schur(), QMatrix.of([[1], [2]])]):
        with pytest.raises(ValueError, match="all with one row count"):
            find_monochromatic_solution(matrices, Colouring.mod(1), 5)


def test_sign_blocked_kernel_has_no_witness():
    # kernel of (1 1) is spanned by (1, -1): no positive points at all
    assert find_monochromatic_solution([QMatrix.of([[1, 1]])], Colouring.mod(1), 50) is None


def test_bounded_solutions_schur():
    solutions = set(enumerate_bounded_solutions([schur()], 4))
    assert solutions == {
        ((1, 1, 2),),
        ((1, 2, 3),),
        ((2, 1, 3),),
        ((1, 3, 4),),
        ((3, 1, 4),),
        ((2, 2, 4),),
    }


def test_bounded_solutions_with_coprime_denominators():
    # x0 = x2/2 and x1 = x2/3: the free value must run over multiples of 6
    solutions = enumerate_bounded_solutions([QMatrix.of([[2, 0, -1], [0, 3, -1]])], 20)
    assert solutions == [((3, 2, 6),), ((6, 4, 12),), ((9, 6, 18),)]


def test_witness_verify_rejects_tampering():
    witness = find_monochromatic_solution([schur()], Colouring.mod(1), 3)
    broken = SolutionWitness(((1, 1, 3),), witness.colours)
    assert not broken.verify([schur()], Colouring.mod(1))


@pytest.mark.parametrize("vectors, colours", [
    (((1, 1, 2), (1, 1, 2)), (0,)),  # a vector more than matrices
    (((1, 1, 2),), (0, 0)),  # a colour more than matrices
    (((1, 1, 2, 5),), (0,)),  # a vector longer than the matrix is wide
    (((0, 1, 1),), (0,)),  # an entry below 1
], ids=["vectors", "colours", "length", "positive"])
def test_witness_verify_rejects_malformed_witnesses(vectors, colours):
    assert not SolutionWitness(vectors, colours).verify([schur()], Colouring.mod(1))


def test_witness_verify_rejects_an_empty_witness():
    # a witness needs at least one vector
    assert not SolutionWitness((), ()).verify([], Colouring.mod(1))


def test_witness_verify_rejects_an_entry_off_its_colour():
    # 1 + 1 = 2 solves x + y = z, but 2 is not coloured 1 mod 2
    assert not SolutionWitness(((1, 1, 2),), (1,)).verify([schur()], Colouring.mod(2))
    assert SolutionWitness(((2, 2, 4),), (0,)).verify([schur()], Colouring.mod(2))


def fraction_verify(witness, matrices, colouring):
    """The witness check in Fraction arithmetic, summing each row's products exactly."""
    if not matrices or len(witness.vectors) != len(matrices) or len(witness.colours) != len(matrices):
        return False
    rows = matrices[0].rows
    total = [Fraction(0)] * rows
    for M, vec, col in zip(matrices, witness.vectors, witness.colours):
        if M.rows != rows or len(vec) != M.cols:
            return False
        if any(x < 1 for x in vec) or any(colouring.colour(x) != col for x in vec):
            return False
        for r in range(rows):
            total[r] += sum(M.entries[r][j] * vec[j] for j in range(M.cols))
    return all(t == 0 for t in total)


def test_witness_verify_scales_each_row_across_the_blocks():
    # (1/2 1/3 -5/6) beside (1/4), and a second row over fifths, sevenths and 175ths
    matrices = [QMatrix.of([["1/2", "1/3", "-5/6"], ["1/5", "-1/7", "0"]]),
                QMatrix.of([["1/4"], ["-6/175"]])]
    colouring = Colouring.mod(1)
    vectors = ((6, 6, 9), (10,))
    assert SolutionWitness(vectors, (0, 0)).verify(matrices, colouring)
    # a witness off by one in a single entry fails
    for b, vec in enumerate(vectors):
        for j in range(len(vec)):
            for delta in (-1, 1):
                changed = list(map(list, vectors))
                changed[b][j] += delta
                broken = SolutionWitness(tuple(map(tuple, changed)), (0, 0))
                assert not broken.verify(matrices, colouring), changed


def test_witness_verify_matches_the_fraction_check():
    # seeded rational rows made to vanish at a positive vector, then the
    # vector kept, moved by one in one entry, or recoloured
    rng = random.Random(113)
    outcomes = Counter()
    for _ in range(300):
        rows = rng.randint(1, 3)
        widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        x = [rng.randint(1, 6) for _ in range(sum(widths))]
        grid = []
        for _ in range(rows):
            row = [random_rational(rng, max_num=5, max_den=7) for _ in x]
            row[-1] -= sum(c * v for c, v in zip(row, x)) / x[-1]
            grid.append(row)
        cut = list(itertools.accumulate([0] + widths))
        matrices = [QMatrix.of([row[cut[b]:cut[b + 1]] for row in grid]) for b in range(len(widths))]
        e = rng.randrange(len(x))
        x[e] = max(1, x[e] + rng.choice([-1, 0, 0, 1]))
        vectors = tuple(tuple(x[cut[b]:cut[b + 1]]) for b in range(len(widths)))
        colouring = Colouring.mod(rng.randint(1, 2))
        colours = tuple(colouring.colour(vec[0]) for vec in vectors)
        witness = SolutionWitness(vectors, colours)
        expected = fraction_verify(witness, matrices, colouring)
        assert witness.verify(matrices, colouring) is expected
        outcomes[expected] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50


def brute_force_solutions(matrices, bound):
    """Every solution in [1..bound]^n by walking the whole box, in box order."""
    blocks = [M.cols for M in matrices]
    n = sum(blocks)
    rows = [
        [e for M in matrices for e in M.entries[r]] for r in range(matrices[0].rows)
    ]
    out = []
    for x in itertools.product(range(1, bound + 1), repeat=n):
        if all(sum(c * v for c, v in zip(row, x)) == 0 for row in rows):
            cut = [sum(blocks[:t]) for t in range(len(blocks) + 1)]
            out.append(tuple(x[cut[t]:cut[t + 1]] for t in range(len(blocks))))
    return out


def test_kernel_search_matches_brute_force_walk():
    rng = random.Random(79)
    found = 0
    negative_step = fractional_offset = two_earlier = False
    deep_listed = deep_coloured = 0

    def cases():  # drawn lazily, between the colourings each case draws
        for _ in range(60):
            rows = rng.randint(1, 2)
            widths = rng.choice([[2], [3], [4], [1, 1], [2, 1], [1, 2], [2, 2], [1, 1, 1]])
            matrices = [random_matrix(rng, rows, w, max_num=3) for w in widths]
            yield matrices, rng.randint(1, 12 if sum(widths) < 4 else 7)
        # five columns in one or two rows leave three free coordinates or
        # more, so an entry's offset can read two earlier depths
        for rows in (1, 1, 1, 2, 2, 2, 2, 2):
            widths = rng.choice([[5], [2, 3], [3, 2], [1, 2, 2]])
            matrices = [random_matrix(rng, rows, w, max_num=3) for w in widths]
            yield matrices, rng.randint(3, 5)

    for matrices, bound in cases():
        widths = [M.cols for M in matrices]
        solutions = brute_force_solutions(matrices, bound)
        search = _KernelSearch(matrices, bound, None)
        for _, _, offsets, fix in search.levels if search.viable else ():
            negative_step |= any(a < 0 for _, a, _ in fix)
            for _, _, _, den, earlier in offsets:
                fractional_offset |= den > 1
                two_earlier |= len(earlier) > 1
        deep = search.viable and search.depths >= 3
        deep_listed += deep and bool(solutions)

        _, pivots, _ = rref(QMatrix.hstack(matrices))
        free = [c for c in range(sum(widths)) if c not in pivots]

        def free_key(sol):
            flat = [v for vec in sol for v in vec]
            return tuple(flat[f] for f in free)

        # the canonical order: increasing free values, earlier free columns first
        assert enumerate_bounded_solutions(matrices, bound) == sorted(solutions, key=free_key)
        for colouring in every_colouring_kind(rng, bound):
            mono = [
                sol for sol in solutions
                if all(len({colouring.colour(v) for v in vec}) == 1 for vec in sol)
            ]
            witness = find_monochromatic_solution(matrices, colouring, bound)
            if not mono:
                assert witness is None
                continue
            found += 1
            deep_coloured += deep
            assert witness.vectors == min(mono, key=free_key)
            assert witness.colours == tuple(colouring.colour(vec[0]) for vec in witness.vectors)
    assert found > 100
    # entries (a*t + offset)/den with a < 0, with den > 1 and earlier terms,
    # and with an offset of two earlier depths
    assert negative_step and fractional_offset and two_earlier
    # three free coordinates are walked colour-blind and under colourings
    assert deep_listed and deep_coloured


def test_lazy_candidates_match_a_scan_of_the_bound():
    # one block whose depth 0 fixes only its free column x = t, so the groups
    # of depth 0 are the colour pieces, and the look-ahead keeps or drops a
    # piece whole: t is a candidate exactly when, for some t'' of its piece,
    # some t' in [1..N] puts depth 1's offset-free entries in [1..N] as
    # integers of the piece's colour and its offset entries' rational values
    # in [1..N].  Under gamma:10 the 4-AP's x_1 = t - 3t' >= 1 drops t = 21
    rng = random.Random(83)
    bound = 2000
    for matrix in (schur(), vdw()):
        forms = free_forms([matrix])
        assert all(q.denominator == 1 for form in forms for q in form)
        forms = [tuple(map(int, form)) for form in forms]
        plain = [form[1] for form in forms if form[1] and not form[0]]
        offset = [form for form in forms if form[1] and form[0]]
        assert plain and offset
        for colouring in every_colouring_kind(rng, bound):
            search = _KernelSearch([matrix], bound, colouring)
            reach = {}  # per colour, the t' whose offset-free entries have it
            for t1 in range(1, bound + 1):
                values = [q * t1 for q in plain]
                if all(1 <= v <= bound for v in values):
                    colours = {colouring.colour(v) for v in values}
                    if len(colours) == 1:
                        reach.setdefault(colours.pop(), []).append(t1)
            kept = []
            for colour, piece in colouring.pieces(bound):
                if any(
                    all(1 <= form[0] * t + form[1] * t1 <= bound for form in offset)
                    for t1 in reach.get(colour, ()) for t in piece
                ):
                    kept += [(t, (colour,)) for t in piece]
            assert list(search._candidates(0)) == sorted(kept)
            if matrix == vdw() and colouring == Colouring.gamma(10):
                assert 21 not in {t for t, _ in kept}


def test_progression_with_offset_and_denominator():
    def walk(a, r, offset, den):
        # |a*t + offset| <= 4*60 + 20 bounds every t that can land in r
        return [t for t in range(1, 300) if (a * t + offset) % den == 0
                and (a * t + offset) // den in r]

    rng = random.Random(97)
    fixed = [range(5, 5), range(1, 50, 2), range(-40, 61), range(7, 8), range(3, 60, 6)]
    sizes = Counter()
    for a in [s * m for m in range(1, 6) for s in (1, -1)]:
        for den in range(1, 5):
            for offset in range(-20, 21):
                start = rng.randint(-40, 60)
                random_range = range(start, rng.randint(start - 1, 61), rng.randint(1, 7))
                for r in (*fixed, random_range):
                    got = _progression(a, r, offset, den)
                    assert list(got) == walk(a, r, offset, den)
                    assert got.step > 0
                    sizes[bool(got)] += 1
    assert sizes[False] > 1000 and sizes[True] > 1000


class PiecesOnly:
    """A colouring read only through its pieces: colour() raises."""

    def __init__(self, colouring):
        self.colouring = colouring

    def colour(self, x):
        raise AssertionError(f"colour({x}) called")

    def pieces(self, bound):
        return self.colouring.pieces(bound)


def test_kernel_search_reads_colours_only_from_pieces():
    # Schur's z and the vdW entries depend on two free coordinates
    rng = random.Random(89)
    bound = 300
    for matrix in (schur(), vdw()):
        for colouring in every_colouring_kind(rng, bound):
            results = list(islice(_KernelSearch([matrix], bound, PiecesOnly(colouring)).solutions(), 1))
            witness = find_monochromatic_solution([matrix], colouring, bound)
            assert results == ([] if witness is None else [(witness.vectors, witness.colours)])
    # colour-blind, the groups of z = x + y are never cached under an offset
    search = _KernelSearch([schur()], 200, None)
    assert len(list(search.solutions())) == 199 * 200 // 2
    assert set(search.group_cache) == {
        (d, (None,) * len(blocks)) for d, (blocks, *_) in enumerate(search.levels)
    }


def test_candidate_memory_follows_the_pieces_not_the_bound():
    tracemalloc.start()
    try:
        witness = find_monochromatic_solution([schur()], Colouring.mod(1), 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness.vectors == ((1, 1, 2),)
    assert peak < 5 * 2**20


def free_coordinate_walk(matrices, bound):
    """Every kernel solution in [1..bound], walking the free coordinates.

    The free values run over [1..bound] in lexicographic order, earlier free
    columns first, which is the kernel search's canonical order; each pivot
    entry is read off its row of the reduced echelon form, scaled to integers.
    """
    R, pivots, _ = rref(QMatrix.hstack(matrices))
    free = [c for c in range(R.cols) if c not in pivots]
    cut = list(itertools.accumulate([0] + [M.cols for M in matrices]))
    rows = []
    for row, p in zip(R.entries, pivots):
        den = math.lcm(*(row[f].denominator for f in free))
        rows.append((p, den, [-(row[f] * den).numerator for f in free]))
    out = []
    for values in itertools.product(range(1, bound + 1), repeat=len(free)):
        x = [0] * R.cols
        for f, v in zip(free, values):
            x[f] = v
        for p, den, coefficients in rows:
            value, rest = divmod(sum(c * v for c, v in zip(coefficients, values)), den)
            if rest or not 1 <= value <= bound:
                break
            x[p] = value
        else:
            out.append(tuple(tuple(x[cut[b]:cut[b + 1]]) for b in range(len(matrices))))
    return out


def free_forms(matrices):
    """Per column, its coefficients on the free values, earlier free columns first."""
    R, pivots, _ = rref(QMatrix.hstack(matrices))
    free = [c for c in range(R.cols) if c not in pivots]
    forms = [None] * R.cols
    for d, f in enumerate(free):
        forms[f] = tuple(Fraction(int(d == g)) for g in range(len(free)))
    for row, p in zip(R.entries, pivots):
        forms[p] = tuple(-row[f] for f in free)
    return forms


class DilatedColouring:
    """colour(x) = base colouring of factor*x: residue classes of t as pieces."""

    def __init__(self, base, factor):
        self.base = base
        self.factor = factor

    def colour(self, x):
        return self.base.colour(self.factor * x)

    def pieces(self, bound):
        out = []
        for colour, r in self.base.pieces(self.factor * bound):
            pulled = _progression(self.factor, r, 0, 1)
            if pulled:
                out.append((colour, pulled))
        return out


class InterleavedPieces:
    """Pieces of steps 2 and 4 whose spans interleave within one residue mod 2."""

    def colour(self, x):
        return 0 if x % 2 == 0 else 1 if x % 4 == 1 else 2 if x < 40 else 3

    def pieces(self, bound):
        return [(0, range(2, bound + 1, 2)), (1, range(1, bound + 1, 4)),
                (2, range(3, min(40, bound + 1), 4)), (3, range(43, bound + 1, 4))]


def test_piece_index_meets_what_a_filter_of_all_pieces_meets():
    # every colour kind and the interleaving pieces, whose spans need `lasts`'
    # running maximum; one index per colouring answers every query, so each
    # table is filed on its first query and read from then on
    rng = random.Random(127)
    for bound in (1, 9, 60, rng.randint(61, 400)):
        for colouring in [*every_colouring_kind(rng, bound), InterleavedPieces()]:
            pieces = [piece for piece in colouring.pieces(bound) if piece[1]]
            index = oracle._PieceIndex(colouring.pieces(bound))
            colours = [None, *dict.fromkeys(colour for colour, _ in pieces)]
            for _ in range(40):
                start = rng.randint(1, bound)
                values = range(start, rng.randint(start, bound) + 1, rng.randint(1, 12))
                for colour in rng.sample(colours, len(colours)):
                    of_colour = [piece for piece in pieces if colour in (None, piece[0])]
                    met = list(index.meeting(colour, values))
                    assert len(met) == len(set(met)) and set(met) <= set(of_colour)
                    assert set(met) >= {piece for piece in of_colour if set(piece[1]) & set(values)}
            assert set(index.tables) == set(colours)


def test_a_colour_blind_search_files_one_table():
    # the one piece has colour None, the key of all pieces as well, and each
    # depth reads its own entry's groups off the pieces, so no table is filed
    search = _KernelSearch([schur()], 200, None)
    assert len(list(search.solutions())) == 199 * 200 // 2
    assert list(search.index.tables) == []
    # a coloured search files only the colours it asks for: one of 181 keys
    search = _KernelSearch([vdw()], 2000, Colouring.gamma(10))
    assert next(search.solutions())[0] == ((100, 101, 102, 103, 1),)
    assert len(search.index.pieces) == 181
    assert len(search.index.tables) == 1


def test_indexed_pieces_match_a_walk_of_the_free_coordinates():
    # many pieces per colour, so a group meets only a few of them: residue
    # classes of several moduli, gamma intervals, table runs of length 1 to 3,
    # a dilated mod whose pieces are residue classes of t, and pieces that
    # are neither intervals nor residue classes
    rng = random.Random(101)
    diag_pair = [diag12(), minus_identity(2)]
    gamma_pair = [QMatrix.of([[2, -3], [2, 2]]), QMatrix.of([[2, 0], [-2, 1]])]
    cases = [[schur()], diag_pair, gamma_pair]
    cases += [[random_matrix(rng, 1, 1, max_num=3), random_matrix(rng, 1, 2, max_num=3)]
              for _ in range(3)]
    found = streamed = 0
    for matrices in cases:
        bound = rng.randint(60, 200)
        solutions = free_coordinate_walk(matrices, bound)
        table = []
        while len(table) < bound:
            table += [rng.randint(0, 2)] * rng.randint(1, 3)
        colourings = [Colouring.mod(m) for m in (7, 30, 97)]
        colourings += [Colouring.gamma(3), Colouring.table(table[:bound])]
        dilated_mod = Colouring.mod(rng.choice([6, 10, 12]))
        colourings.append(DilatedColouring(dilated_mod, rng.randint(2, 4)))
        colourings.append(InterleavedPieces())
        for colouring in colourings:
            colour = [None] + [colouring.colour(x) for x in range(1, bound + 1)]
            expected = [
                (sol, tuple(colour[vec[0]] for vec in sol)) for sol in solutions
                if all(len({colour[x] for x in vec}) == 1 for vec in sol)
            ]
            assert list(_KernelSearch(matrices, bound, colouring).solutions()) == expected
            witness = find_monochromatic_solution(matrices, colouring, bound)
            first = witness and (witness.vectors, witness.colours)
            assert first == (expected[0] if expected else None)
            found += bool(expected)
            streamed += len(expected)
    assert found > 25 and streamed > 1000


def test_kernel_search_lists_what_a_walk_of_the_free_values_lists():
    # seeded integer matrices with entries in -3..3, one block and two, at
    # bounds up to 30: every solution with its block colours, in order, under
    # every colouring kind and colour-blind, against the walk over
    # [1..N]^depths; entries with a < 0 and den > 1 are clipped by their
    # window and feed the look-ahead of the depth before theirs
    rng = random.Random(107)
    negative_step = fractional = two_earlier = False
    listed = coloured = 0
    shapes = [[3], [4], [5], [2, 1], [1, 2], [2, 2], [2, 3], [3, 2], [1, 1, 1]]
    for _ in range(45):
        widths = rng.choice(shapes)
        rows = rng.randint(1, 2)
        matrices = [
            QMatrix.of([[rng.randint(-3, 3) for _ in range(w)] for _ in range(rows)])
            for w in widths
        ]
        search = _KernelSearch(matrices, 1, None)
        if not search.viable:
            continue
        for _, _, offsets, _ in search.levels:
            for _, _, a, den, earlier in offsets:
                negative_step |= a < 0
                fractional |= den > 1
                two_earlier |= len(earlier) > 1
        bound = rng.randint(10, 30) if search.depths < 3 else rng.randint(5, 12)
        solutions = free_coordinate_walk(matrices, bound)
        blind = [(sol, (None,) * len(matrices)) for sol in solutions]
        assert list(_KernelSearch(matrices, bound, None).solutions()) == blind
        listed += len(solutions)
        for colouring in every_colouring_kind(rng, bound):
            expected = [
                (sol, tuple(colouring.colour(vec[0]) for vec in sol)) for sol in solutions
                if all(len({colouring.colour(x) for x in vec}) == 1 for vec in sol)
            ]
            assert list(_KernelSearch(matrices, bound, colouring).solutions()) == expected
            coloured += len(expected)
    assert negative_step and fractional and two_earlier
    assert listed > 1000 and coloured > 1000


def seeded_groups(search, depth, key, memo):
    """[1..N] under `key` refined through every offset-free entry of `depth`.

    The groups _groups built before it read its free column's own entry off
    the piece index, dropped where _groups drops them, in no set order;
    `memo` holds them per (depth, key), as _groups caches its own.
    """
    if (depth, key) in memo:
        return memo[depth, key]
    blocks, plain, _, _ = search.levels[depth]
    groups = [(range(1, search.bound + 1), key)]
    for slot, a, den in plain:
        groups = search._refine(groups, slot, a, 0, den)
    if depth + 1 < search.depths and not search.ahead[depth]:
        after = search.levels[depth + 1][0]
        groups = [
            group for group in groups
            if seeded_groups(search, depth + 1, tuple(
                group[1][blocks.index(b)] if b in blocks else None for b in after
            ), memo)
        ]
    memo[depth, key] = groups
    return groups


def test_groups_match_refining_the_whole_bound(monkeypatch):
    # seeded matrices of one to three blocks under every colouring kind and
    # colour-blind, for unfixed keys and keys with some colours fixed: the
    # same groups as refining [1..N] through every offset-free entry, in
    # start order where _groups sorts, with fewer intersections
    calls = Counter()

    def counted(x, y):
        calls["intersect"] += 1
        return intersect(x, y)

    intersect = oracle._intersect
    monkeypatch.setattr(oracle, "_intersect", counted)
    rng = random.Random(139)
    seen = Counter()
    shapes = [[3], [4], [2, 1], [1, 2], [2, 2], [2, 3], [1, 1, 1], [2, 1, 2]]
    for _ in range(30):
        rows = rng.randint(1, 2)
        matrices = [
            QMatrix.of([[rng.randint(-3, 3) for _ in range(w)] for _ in range(rows)])
            for w in rng.choice(shapes)
        ]
        if not _KernelSearch(matrices, 1, None).viable:
            continue
        bound = rng.randint(5, 30)
        for colouring in [None, *every_colouring_kind(rng, bound)]:
            colours = [None] if colouring is None else [
                colouring.colour(x) for x in range(1, bound + 1)
            ]
            search = _KernelSearch(matrices, bound, colouring)
            for depth, (blocks, plain, offsets, _) in enumerate(search.levels):
                seen["several entries"] += len(plain) > 1
                for fixed in range(4):
                    key = tuple(rng.choice(colours) if fixed else None for _ in blocks)
                    calls.clear()
                    expected = seeded_groups(_KernelSearch(matrices, bound, colouring), depth, key, {})
                    reference_calls = calls["intersect"]
                    calls.clear()
                    groups = _KernelSearch(matrices, bound, colouring)._groups(depth, key)
                    assert calls["intersect"] <= reference_calls
                    assert search._groups(depth, key) == groups
                    assert set(groups) == set(expected)
                    if search.ahead[depth] or offsets:
                        seen["sorted"] += 1
                        assert groups == sorted(expected, key=lambda group: group[0].start)
                    seen["fixed" if any(c is not None for c in key) else "unfixed"] += 1
                    seen["saved"] += calls["intersect"] < reference_calls
    assert min(seen.values()) > 20


def test_window_of_entries_with_negative_steps():
    # colour-blind, depth 1's candidates under a fixed t_0 are the t_1 in
    # [1..N] that make every entry fixed at depth 1 an integer in [1..N]:
    # the 4-AP's x_1 = t_0 - 3*t_1 (a < 0, den 1) needs no refinement, so
    # its window alone gives them; the pair's (2*t_0 - 3*t_1)/10 and
    # (4*t_0 - t_1)/5 have a < 0 and den > 1
    bound = 60
    pair = [QMatrix.of([[2, -3], [2, 2]]), QMatrix.of([[2, 0], [-2, 1]])]
    for matrices, den in (([vdw()], 1), (pair, 10)):
        search = _KernelSearch(matrices, bound, None)
        assert search.depths == 2
        assert any(a < 0 and d == den for _, _, a, d, _ in search.levels[1][2])
        fixed = [form for form in free_forms(matrices) if form[1]]
        for t0 in range(1, bound + 1):
            search.ts[0] = t0
            expected = [
                t1 for t1 in range(1, bound + 1)
                if all((v := form[0] * t0 + form[1] * t1).denominator == 1 and 1 <= v <= bound
                       for form in fixed)
            ]
            assert [t for t, _ in search._candidates(1)] == expected


def test_an_empty_next_depth_drops_a_group_before_its_candidates(monkeypatch):
    # diag(1,1,2)/(-I): x1 = y1 = t0, x2 = y2 = t1, y3 = 2*x3 = t2, and no
    # start-parity colour holds both x and 2x, so depth 2 has no candidates
    # under any colours.  No depth has offset entries, so _groups drops each
    # group whose colours leave the next depth none: depth 1 keeps none, and
    # depth 0 none.  A look-ahead at every depth in its place would list each
    # t0: 4,097 _candidates calls at 2**12.
    calls = Counter()

    def counted(self, depth):
        calls[depth] += 1
        return candidates(self, depth)

    candidates = _KernelSearch._candidates
    monkeypatch.setattr(_KernelSearch, "_candidates", counted)
    diag112 = QMatrix.of([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert find_monochromatic_solution([diag112, minus_identity(3)], Colouring.start_parity(2), 2**12) is None
    assert calls == {0: 1}


def test_refinement_work_is_linear_in_the_pieces(monkeypatch):
    # diag(1,2)/(-I): x1 = y1 = t0 and y2 = 2*x2 = t1; intersecting every
    # group with every piece made about pieces**2 calls per depth (513 for the
    # 18 start-parity pieces at 2**17, over 10**6 for mod:1000)
    calls = Counter()

    def counted(x, y):
        calls["intersect"] += 1
        return intersect(x, y)

    intersect = oracle._intersect
    monkeypatch.setattr(oracle, "_intersect", counted)

    def last_digit_base_3(x):
        while x % 3 == 0:
            x //= 3
        return x % 3

    cases = [
        (Colouring.mod(1000), 2000, ((1000, 1000), (1000, 2000))),
        (Colouring.table([last_digit_base_3(x) for x in range(1, 3001)]), 3000, None),
        (Colouring.start_parity(2), 2**17, None),
    ]
    for colouring, bound, vectors in cases:
        calls.clear()
        witness = find_monochromatic_solution([diag12(), minus_identity(2)], colouring, bound)
        assert (witness and witness.vectors) == vectors
        assert calls["intersect"] <= 5 * len(colouring.pieces(bound))


def test_refinement_calls_per_first_solution(monkeypatch):
    # each depth reads its free column's own entry, x = t, off the piece
    # index and refines only by its other entries: refining [1..N] through
    # the own entry as well made 106 _refine and 322 _intersect calls for the
    # 4-AP and 2,002 and 3,001 for diag(1,2)/(-I)
    calls = Counter()

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    monkeypatch.setattr(_KernelSearch, "_refine", counting("refine", _KernelSearch._refine))
    monkeypatch.setattr(oracle, "_intersect", counting("intersect", oracle._intersect))
    cases = [
        ([vdw()], Colouring.gamma(10), ((100, 101, 102, 103, 1),), (6, 3)),
        ([diag12(), minus_identity(2)], Colouring.mod(1000), ((1000, 1000), (1000, 2000)), (1001, 1001)),
    ]
    for matrices, colouring, vectors, counts in cases:
        calls.clear()
        assert find_monochromatic_solution(matrices, colouring, 2000).vectors == vectors
        assert (calls["refine"], calls["intersect"]) == counts


# ------------------------------------------------ colouring sweeps and search

def test_schur_sweep_thresholds():
    assert verify_all_colourings([schur()], 2, 5) is True
    assert verify_all_colourings([schur()], 2, 4) is False
    assert verify_all_colourings([schur()], 1, 3) is True


def test_one_colour_sweep_does_not_list_the_solutions():
    # about N^2/4 Schur solutions exist; one kernel search under mod:1 finds the first.
    # x + y = 0 has none, and the answer needs no table of 10^7 zeros either.
    for matrix, bound, expected in [
        (schur(), 1000, True),
        (QMatrix.of([[1, 1]]), 10**7, False),
    ]:
        tracemalloc.start()
        try:
            holds = verify_all_colourings([matrix], 1, bound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert holds is expected
        assert peak < 5 * 2**20


def test_sweep_rejects_oversized_instances():
    with pytest.raises(ValueError):
        verify_all_colourings([schur()], 2, 40)
    with pytest.raises(ValueError):
        search_witness_colouring([schur()], 2, 40)
    with pytest.raises(ValueError):
        search_witness_colouring([schur()], 3, 10**9)


def test_schur_witness_colouring_class():
    witness = search_witness_colouring([schur()], 2, 4)
    assert witness.table == (0, 1, 1, 0)
    # the witness really admits no bounded solution
    assert find_monochromatic_solution([schur()], witness.as_colouring(), 4) is None
    assert search_witness_colouring([schur()], 2, 5) is None


def test_unsolvable_system_any_colouring_works():
    witness = search_witness_colouring([QMatrix.of([[1, 1]])], 1, 10)
    assert witness.table == (0,) * 10
    # one integer per step, not per stack frame
    witness = search_witness_colouring([QMatrix.of([[1, 1]])], 1, 5000)
    assert witness.table == (0,) * 5000


def test_witness_colouring_text_format():
    witness = search_witness_colouring([schur()], 2, 4)
    assert witness.to_text() == "1 0\n2 1\n3 1\n4 0\n"


def test_falsify_complements_sweep_and_matches_brute_force():
    # the sweep is the witness search, so both are checked against this
    # test's own walk over every colouring; backtracking must also return
    # the lexicographically first witness table
    import itertools

    rng = random.Random(67)
    cases = []
    for _ in range(30):
        rows = rng.randint(1, 2)
        cols = rng.randint(2, 3)
        matrices = [
            QMatrix.of([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
        ]
        bound = rng.randint(2, 6)
        cases += [(matrices, colours, bound) for colours in (1, 2, 3)]
    # pairs reach the witness search's check of a solution block that does
    # not hold the value being coloured
    for pair in (
        [diag12(), QMatrix.of([[-1, 0], [0, -1]])],
        [QMatrix.of([[1, 1]]), QMatrix.of([[-1]])],
        [QMatrix.of([[2, 1]]), QMatrix.of([[-1, -1]])],
    ):
        for colours, top in ((1, 9), (2, 9), (3, 6)):
            cases += [(pair, colours, bound) for bound in range(2, top + 1)]
    for matrices, colours, bound in cases:
        witness = search_witness_colouring(matrices, colours, bound)
        sweep = verify_all_colourings(matrices, colours, bound)
        assert (witness is None) == sweep

        solutions = enumerate_bounded_solutions(matrices, bound)

        def admits(table):
            return any(
                all(len({table[x - 1] for x in vec}) == 1 for vec in sol)
                for sol in solutions
            )

        brute = next(
            (
                t
                for t in itertools.product(range(colours), repeat=bound)
                if t[0] == 0 and not admits(t)
            ),
            None,
        )
        assert (witness.table if witness else None) == brute
        assert sweep == all(admits(t) for t in itertools.product(range(colours), repeat=bound))


def schur_free(table):
    """No x + y = z with x, y, z <= len(table) all of one colour (x = y allowed)."""
    n = len(table)
    return all(
        len({table[x - 1], table[y - 1], table[x + y - 1]}) > 1
        for x in range(1, n + 1) for y in range(x, n + 1 - x)
    )


def test_schur_numbers_three_and_four_colours():
    # S(3) = 13: a 3-colouring of [1..13] avoids x + y = z, none of [1..14] does
    witness = search_witness_colouring([schur()], 3, 13)
    assert len(witness.table) == 13 and set(witness.table) <= {0, 1, 2}
    assert schur_free(witness.table)
    assert verify_all_colourings([schur()], 3, 14) is True
    # 4^11 colourings are within the sweep limit; S(4) = 44, so one exists
    witness = search_witness_colouring([schur()], 4, 11)
    assert set(witness.table) <= {0, 1, 2, 3} and schur_free(witness.table)


def brute_force_first_witness(matrices, colours, bound):
    """The lexicographically first table starting with 0 under which no bounded
    solution has every block monochromatic, by walking every colouring."""
    solutions = enumerate_bounded_solutions(matrices, bound)
    for table in itertools.product(range(colours), repeat=bound):
        if table[0] == 0 and not any(
            all(len({table[x - 1] for x in vec}) == 1 for vec in sol) for sol in solutions
        ):
            return table
    return None


def read_value(solution):
    """The largest value a solution's forward check reads: every value but the
    largest m of the blocks holding m, and of the blocks of two values or more."""
    m = max(map(max, solution))
    return max(
        (x for vec in solution if m in vec or len(set(vec)) > 1 for x in vec if x != m),
        default=0,
    )


def test_forward_checking_matches_brute_force_on_shared_and_one_value_solutions():
    # the largest value sits in two blocks ((1 1)/(-1 -1)), a block without it
    # holds two values ((1 1 -1)/(-1)), a solution has one value ((1 -1)) or
    # only one-value blocks ((1)/(-2)): every outcome of the forward check
    # runs, and (1 1)/(-2 -3) needs a colour forbidden in a dead branch back.
    # In (1 2)/(-4) a one-value block holds a value that no check reads: every
    # (4y - 2, 1; y) is read at 1, whatever y is
    rng = random.Random(2525)
    one_value_unread = [QMatrix.of([[1, 2]]), QMatrix.of([[-4]])]
    read_at_one = [
        sol for sol in enumerate_bounded_solutions(one_value_unread, 40)
        if read_value(sol) == 1
    ]
    assert read_at_one == [((4 * y - 2, 1), (y,)) for y in range(1, 11)]
    systems = [
        [QMatrix.of([[1, 1]]), QMatrix.of([[-1, -1]])],
        [QMatrix.of([[1, 1]]), QMatrix.of([[-2, -3]])],
        [QMatrix.of([[1, 2]]), QMatrix.of([[-1, -2]])],
        [QMatrix.of([[1, 1, -1]]), QMatrix.of([[-1]])],
        [QMatrix.of([[1, -1]])],
        [QMatrix.of([[1]]), QMatrix.of([[-2]])],
        [QMatrix.of([[1, -1]]), QMatrix.of([[1, -2]])],
        one_value_unread,
    ]
    for _ in range(15):
        widths = [rng.randint(1, 2) for _ in range(rng.randint(2, 3))]
        entries = (-3, -2, -1, 1, 2, 3)
        systems.append([QMatrix.of([[rng.choice(entries) for _ in range(w)]]) for w in widths])
    for matrices in systems:
        for colours, top in ((2, 8), (3, 5)):
            for bound in range(2, top + 1):
                witness = search_witness_colouring(matrices, colours, bound)
                brute = brute_force_first_witness(matrices, colours, bound)
                assert (witness.table if witness else None) == brute, (matrices, colours, bound)
                assert verify_all_colourings(matrices, colours, bound) == (brute is None)


def test_witness_search_lists_the_solutions_once(monkeypatch):
    calls = []

    def counted(matrices, bound):
        calls.append(bound)
        return enumerate_bounded_solutions(matrices, bound)

    expected = search_witness_colouring([schur()], 3, 13)
    monkeypatch.setattr(oracle, "enumerate_bounded_solutions", counted)
    assert search_witness_colouring([schur()], 3, 13) == expected
    assert calls == [13]
    assert verify_all_colourings([schur()], 2, 18) is True
    assert calls == [13, 18]
