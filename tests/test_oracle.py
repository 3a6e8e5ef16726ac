import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from conftest import diag12, schur, fractional_b_matrix, random_matrix, vdw
from partreg import (
    Colouring,
    QMatrix,
    SolutionWitness,
    dilation_check,
    enumerate_bounded_solutions,
    find_monochromatic_solution,
    gamma_colour,
    leading_exponent,
    search_witness_colouring,
    verify_all_colourings,
)
from partreg.linalg import rref
from partreg.oracle import _DilatedColouring, _KernelSearch


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
    kinds.append(_DilatedColouring(Colouring.mod(rng.randint(2, 5)), rng.randint(2, 4)))
    kinds.append(_DilatedColouring(Colouring.start_parity(rng.randint(2, 3)), rng.randint(2, 4)))
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


def test_trivial_kernel_has_no_witness():
    assert find_monochromatic_solution([QMatrix.identity(2)], Colouring.mod(1), 10) is None


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
    for _ in range(60):
        rows = rng.randint(1, 2)
        widths = rng.choice([[2], [3], [4], [1, 1], [2, 1], [1, 2], [2, 2], [1, 1, 1]])
        matrices = [random_matrix(rng, rows, w, max_num=3) for w in widths]
        bound = rng.randint(1, 12 if sum(widths) < 4 else 7)
        solutions = brute_force_solutions(matrices, bound)
        assert set(enumerate_bounded_solutions(matrices, bound)) == set(solutions)

        _, pivots, _ = rref(QMatrix.hstack(matrices))
        free = [c for c in range(sum(widths)) if c not in pivots]

        def free_key(sol):
            flat = [v for vec in sol for v in vec]
            return tuple(flat[f] for f in free)

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
            assert witness.vectors == min(mono, key=free_key)
            assert witness.colours == tuple(colouring.colour(vec[0]) for vec in witness.vectors)
    assert found > 100


def test_lazy_candidates_match_a_scan_of_the_bound():
    # one block whose next free coordinate is an entry of its own, so the
    # look-ahead drops no colour and depth 0 takes every t with a*t <= N
    rng = random.Random(83)
    bound = 2000
    for matrix in (schur(), vdw()):
        for colouring in every_colouring_kind(rng, bound):
            search = _KernelSearch([matrix], bound, colouring)
            ((_, a),) = search.unary_at[0]
            scan = [(t, (colouring.colour(a * t),)) for t in range(1, bound // a + 1)]
            assert list(search._candidates(0)) == scan


def test_candidate_memory_follows_the_pieces_not_the_bound():
    tracemalloc.start()
    try:
        witness = find_monochromatic_solution([schur()], Colouring.mod(1), 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness.vectors == ((1, 1, 2),)
    assert peak < 5 * 2**20


# ------------------------------------------------ colouring sweeps and search

def test_schur_sweep_thresholds():
    assert verify_all_colourings([schur()], 2, 5) is True
    assert verify_all_colourings([schur()], 2, 4) is False
    assert verify_all_colourings([schur()], 1, 3) is True


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
    for _ in range(30):
        rows = rng.randint(1, 2)
        cols = rng.randint(2, 3)
        matrices = [
            QMatrix.of([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
        ]
        colours, bound = 2, rng.randint(2, 6)
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


# -------------------------------------------------------------------- dilation

def test_dilation_property():
    assert dilation_check(schur(), Colouring.mod(2), 3, 20) is True
    assert dilation_check(schur(), Colouring.mod(2), 1, 10) is True
    assert dilation_check(QMatrix.of([[1, 1]]), Colouring.mod(2), 3, 10) is True
    assert dilation_check(schur(), Colouring.start_parity(2), 5, 40) is True
