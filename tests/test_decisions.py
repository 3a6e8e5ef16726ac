import gc
import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (
    diag12,
    four_seven,
    schur,
    schur_image,
    fractional_b_matrix,
    vdw,
    vdw_image,
)
from partreg import (
    Colouring,
    NO,
    OrderedPartition,
    PartitionCapExceeded,
    QMatrix,
    UNDECIDED,
    YES,
    decide_columns_condition,
    doubly_ipr,
    doubly_ipr_template,
    doubly_kpr,
    find_monochromatic_solution,
    first_entries_from_certificate,
    integer_b_analysis,
    is_ipr,
    is_kpr,
    multiply_kpr,
    scalar_union_over_partitions,
    verify_certificate,
    zero_column_subset_exists,
)
from partreg import columns, decisions, feasibility, linalg


def minus_identity(n):
    return QMatrix.identity(n).scale(-1)


# -------------------------------------------------------------------- is_kpr

def test_is_kpr_classical_matrices():
    for M in (schur(), vdw(), four_seven()):
        decision = is_kpr(M)
        assert decision.verdict == YES
        assert verify_certificate(M, decision.certificate)
        assert decision.assembled == M
        assert decision.scalars == ()


def test_is_kpr_no_zero_sum():
    assert is_kpr(QMatrix.of([[1, 1]])).verdict == NO


def test_is_kpr_cap_gives_undecided():
    decision = is_kpr(vdw(), cap=1)
    assert decision.verdict == UNDECIDED and decision.cap == 1


def test_every_entry_point_reports_the_same_cap():
    # is_kpr is the 0-scalar template, so it is cut off like the scaled ones
    for decision in (is_kpr(vdw(), cap=1), doubly_ipr(diag12(), cap=1)):
        assert decision.verdict == UNDECIDED and decision.cap == 1
    with pytest.raises(PartitionCapExceeded) as exceeded:
        decide_columns_condition(vdw(), cap=1)
    assert exceeded.value.cap == 1
    with pytest.raises(PartitionCapExceeded) as exceeded:
        scalar_union_over_partitions(doubly_ipr_template(diag12()), cap=1)
    assert exceeded.value.cap == 1


def test_decide_columns_condition_splits_like_is_kpr():
    # diag(1..24) splits into 24 one-column parts, each refuted by its one
    # block, so is_kpr says NO, and decide_columns_condition answers through
    # it: no whole-matrix search that would charge 2^24 - 1 blocks, over the
    # default cap of 10^7.  At cap 0 is_kpr is UNDECIDED, and at cap 1 the
    # first one-column part already refutes it.
    n = 24
    D = QMatrix.of([[i + 1 if i == j else 0 for j in range(n)] for i in range(n)])
    assert is_kpr(D).verdict == NO
    assert decide_columns_condition(D) is None
    with pytest.raises(PartitionCapExceeded) as exceeded:
        decide_columns_condition(D, cap=0)
    assert exceeded.value.cap == 0
    assert decide_columns_condition(D, cap=1) is None


def test_is_kpr_scales_its_matrix_to_integers_once(monkeypatch):
    # The search and the certificate share the matrix's one integer view.
    calls = []
    original = linalg.integer_row

    def counting(values):
        calls.append(1)
        return original(values)

    for module in (linalg, columns, feasibility, decisions):
        if hasattr(module, "integer_row"):
            monkeypatch.setattr(module, "integer_row", counting)
    A = four_seven()
    decision = is_kpr(A)
    assert decision.verdict == YES and decision.assembled is A
    assert len(calls) == 1


def test_is_kpr_long_row_without_zero_sum_is_no():
    # 1x12 has 28091567595 ordered partitions; the closure search sees 4095 blocks
    assert is_kpr(QMatrix.of([[1] * 12])).verdict == NO


# -------------------------------------------------------------- multiply_kpr

def test_multiply_kpr_pair_regression():
    decision = multiply_kpr([QMatrix.of([[1, 1]]), QMatrix.of([[-1]])])
    assert decision.verdict == YES
    # largest block first: the single block, with scalar 2
    assert decision.scalar("c_2") == 2
    assert decision.certificate.partition == OrderedPartition.from_one_based([[1, 2, 3]])
    assert verify_certificate(decision.assembled, decision.certificate)


def test_multiply_kpr_positive_entries_never_cancel():
    assert multiply_kpr([QMatrix.of([[1]]), QMatrix.of([[1]])]).verdict == NO


def test_multiply_kpr_counterexample_pair():
    decision = multiply_kpr([fractional_b_matrix(), minus_identity(2)])
    assert decision.verdict == YES
    assert decision.scalar("c_2") == F(1, 2)
    with pytest.raises(KeyError):
        decision.scalar("c_3")


def test_multiply_kpr_validates_input():
    with pytest.raises(ValueError):
        multiply_kpr([schur()])
    with pytest.raises(ValueError):
        multiply_kpr([schur(), QMatrix.identity(2)])


def test_doubly_kpr_is_the_pair_case():
    a = doubly_kpr(QMatrix.of([[1, 1]]), QMatrix.of([[-1]]))
    b = multiply_kpr([QMatrix.of([[1, 1]]), QMatrix.of([[-1]])])
    assert (a.verdict, a.scalars, a.certificate) == (b.verdict, b.scalars, b.certificate)
    assert doubly_kpr(QMatrix.of([[1]]), QMatrix.of([[1]])).verdict == NO
    assert doubly_kpr(fractional_b_matrix(), minus_identity(2)).scalar("c_2") == F(1, 2)


# ---------------------------------------------------------------- doubly_ipr

def test_doubly_ipr_counterexample_matrix():
    decision = doubly_ipr(fractional_b_matrix())
    assert decision.verdict == YES
    assert decision.scalar("b") == F(1, 2)
    assert decision.certificate.partition == OrderedPartition.from_one_based(
        [[1, 2], [3, 5], [4]]
    )
    assert verify_certificate(decision.assembled, decision.certificate)


def test_doubly_ipr_diagonal_counterexample():
    assert doubly_ipr(diag12()).verdict == NO


def test_doubly_ipr_larger_diagonals_are_decided():
    def diag(*d):
        return QMatrix.of([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))])

    assert doubly_ipr(diag(1, 2, 3, 4), cap=50_000).verdict == NO
    assert doubly_ipr(diag(1, 2, 3, 4, 5)).verdict == NO


def test_doubly_ipr_schur_image_matrix():
    decision = doubly_ipr(schur_image())
    assert decision.verdict == YES
    assert decision.scalar("b") == 1


def test_each_scalar_system_is_solved_once_per_decision(monkeypatch):
    # The search's positivity checks solve for no point; a YES solves the
    # echelon it ends on once, and a NO solves nothing.
    import partreg.decisions as decisions

    solved = []
    solve_positive_echelon = decisions.solve_positive_echelon

    def recording(echelon, *args):
        solved.append(echelon.rows)
        return solve_positive_echelon(echelon, *args)

    monkeypatch.setattr(decisions, "solve_positive_echelon", recording)
    rng = random.Random(103)
    queries = [lambda: doubly_ipr(fractional_b_matrix()), lambda: is_ipr(vdw_image())]
    for _ in range(30):
        A = QMatrix.of([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        queries.append(lambda A=A: doubly_ipr(A))
    constrained_yes = 0
    for query in queries:
        solved.clear()
        decision = query()
        assert len(solved) == len(set(solved))
        constrained_yes += decision.is_yes and any(solved)
    assert constrained_yes >= 2


def record_solves(monkeypatch):
    """Rows of every echelon solve_positive_echelon is called on, from anywhere."""
    solved = []
    solve_positive_echelon = feasibility.solve_positive_echelon

    def recording(echelon, *args):
        solved.append(echelon.rows)
        return solve_positive_echelon(echelon, *args)

    monkeypatch.setattr(decisions, "solve_positive_echelon", recording)
    monkeypatch.setattr(feasibility, "solve_positive_echelon", recording)
    return solved


def record_projections(monkeypatch):
    """Rows of every echelon feasibility._project is called on.

    _project is the Fourier-Motzkin of has_positive_solution, the search's
    positivity check, and stages 2-3 of solve_positive_echelon.
    """
    projected = []
    project = feasibility._project

    def recording(echelon, *args):
        projected.append(echelon.rows)
        return project(echelon, *args)

    monkeypatch.setattr(feasibility, "_project", recording)
    return projected


def test_a_no_refuted_by_row_signs_solves_nothing(monkeypatch):
    # Every block of (-2e_1 -e_2 -4e_3 | -1) is refuted by its signs before
    # any positivity check.  Each of the four echelons that is_ipr of
    # [[-3, 2], [1, -1]] checks has a row with no negative entry.  So neither
    # decision needs a solve or Fourier-Motzkin.
    solved = record_solves(monkeypatch)
    projected = record_projections(monkeypatch)
    checked = []
    check = feasibility.has_positive_solution
    monkeypatch.setattr(decisions, "has_positive_solution", lambda e: checked.append(e.rows) or check(e))
    assert is_ipr(QMatrix.of([[-2, -1, -4]])).verdict == NO
    assert checked == []
    assert is_ipr(QMatrix.of([[-3, 2], [1, -1]])).verdict == NO
    assert len(checked) == 4 and solved == projected == []


def test_positivity_check_projects_only_rows_that_share_a_variable(monkeypatch):
    # Each row has a positive solution of its own, so rows on disjoint
    # variables need no Fourier-Motzkin; rows that share x_3 take one.
    projected = record_projections(monkeypatch)
    disjoint = linalg.EqualityEchelon(4).extend([(1, 0, -1, 0, 0), (0, 1, 0, -2, 0)])
    assert disjoint.rows == ((1, 0, -1, 0, 0), (0, 1, 0, -2, 0))
    assert feasibility.has_positive_solution(disjoint) and projected == []
    shared = linalg.EqualityEchelon(3).extend([(1, 0, -1, 0), (0, 1, -1, 0)])
    assert shared.rows == ((1, 0, -1, 0), (0, 1, -1, 0))
    assert feasibility.has_positive_solution(shared) and projected == [shared.rows]


def test_a_yes_solves_only_the_echelon_it_ends_on(monkeypatch):
    solved = record_solves(monkeypatch)
    decision = doubly_kpr(QMatrix.of([[1, 1, -1]]), QMatrix.of([[1, 2]]))
    assert decision.is_yes and decision.scalar("c_2") == F(1, 3)
    assert solved == [((3, -1),)]


def test_decisions_and_searches_leave_no_reference_cycle():
    # Reference counts alone free what a search made, also for a search
    # dropped after its first hit, so no decision feeds the cyclic collector.
    template = doubly_ipr_template(fractional_b_matrix())
    gc.collect()
    gc.disable()
    try:
        assert is_kpr(schur()).is_yes and is_ipr(vdw_image()).is_yes
        assert doubly_ipr(diag12()).verdict == NO
        next(columns.closure_search(template, counter=columns.BlockCounter(10**6)))
        scalar_union_over_partitions(template)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_doubly_ipr_matches_doubly_kpr_with_negated_identity():
    for M in (fractional_b_matrix(), diag12(), schur_image()):
        assert doubly_ipr(M).verdict == doubly_kpr(M, minus_identity(M.rows)).verdict


# -------------------------------------------------------------------- is_ipr

def test_is_ipr_diagonal_matrix():
    decision = is_ipr(diag12())
    assert decision.verdict == YES
    assert decision.scalar("e_1") == 1
    assert decision.scalar("e_2") == F(1, 2)
    assert decision.certificate.partition == OrderedPartition.from_one_based([[1, 2, 3, 4]])
    assert verify_certificate(decision.assembled, decision.certificate)


def test_is_ipr_vdw_image_matrix():
    decision = is_ipr(vdw_image())
    assert decision.verdict == YES
    assert all(value > 0 for _, value in decision.scalars)
    assert verify_certificate(decision.assembled, decision.certificate)


def test_is_ipr_negative_image_is_never_positive():
    assert is_ipr(QMatrix.of([[-1]])).verdict == NO


def test_is_ipr_yes_is_backed_by_the_oracle():
    decision = is_ipr(diag12())
    # the assembled scaled matrix is KPR, so bounded monochromatic kernel
    # vectors exist for simple colourings
    for colouring in (Colouring.mod(2), Colouring.mod(3)):
        witness = find_monochromatic_solution([decision.assembled], colouring, 30)
        assert witness is not None


# ----------------------------------------------------- zero-sum column subset

def test_zero_column_subset():
    assert zero_column_subset_exists(fractional_b_matrix()) == (0, 1)
    assert zero_column_subset_exists(diag12()) is None
    assert zero_column_subset_exists(QMatrix.of([[1, 0], [2, 0]])) == (1,)


def test_zero_column_subset_matches_brute_force():
    # The canonical witness: the smallest zero-sum subset, ties broken
    # lexicographically, taken here as the minimum of all zero-sum subsets.
    rng = random.Random(107)
    found = 0
    for _ in range(300):
        rows, v = rng.randint(1, 3), rng.randint(1, 6)
        A = QMatrix.of([[rng.randint(-2, 2) for _ in range(v)] for _ in range(rows)])
        zero_sums = [
            subset
            for size in range(1, v + 1)
            for subset in itertools.combinations(range(v), size)
            if all(sum(row[i] for i in subset) == 0 for row in A.entries)
        ]
        expected = min(zero_sums, key=lambda s: (len(s), s), default=None)
        assert zero_column_subset_exists(A) == expected
        scaled = A.scale(F(rng.randint(1, 5), rng.randint(1, 5)))
        assert zero_column_subset_exists(scaled) == expected
        found += expected is not None
    assert 50 <= found <= 250


# --------------------------------------------------------- integer_b_analysis

@pytest.mark.parametrize("matrix, holds, positive_integer", [
    (diag12, None, None),  # NO
    (fractional_b_matrix, False, None),  # YES, and columns 1 and 2 sum to zero
    (schur_image, True, True),  # YES, and no column subset sums to zero
], ids=["no", "zero-subset", "hypothesis"])
def test_integer_analysis_derived_values(matrix, holds, positive_integer):
    report = integer_b_analysis(matrix())
    assert report.hypothesis_holds is holds
    assert report.b_is_positive_integer is positive_integer


def test_integer_analysis_counterexample_matrix():
    report = integer_b_analysis(fractional_b_matrix())
    assert report.verdict == YES
    assert report.zero_subset == (0, 1)
    assert report.hypothesis_holds is False
    assert report.b == F(1, 2)  # a fractional b is permitted here


def test_integer_analysis_schur_image():
    report = integer_b_analysis(schur_image())
    assert report.hypothesis_holds is True
    assert report.b_is_positive_integer
    assert report.b == report.identity_sum


def test_integer_analysis_not_applicable():
    report = integer_b_analysis(diag12())
    assert report.verdict == NO
    assert report.b is None


def test_integer_analysis_rejects_fractional_input():
    with pytest.raises(ValueError):
        integer_b_analysis(QMatrix.of([[F(1, 2)]]))


# ------------------------------------------------------------------ invariants

def test_round_trip_for_every_yes_decision():
    decisions = [
        is_kpr(schur()),
        is_kpr(vdw()),
        is_kpr(four_seven()),
        doubly_ipr(fractional_b_matrix()),
        doubly_ipr(schur_image()),
        is_ipr(diag12()),
        is_ipr(vdw_image()),
        multiply_kpr([QMatrix.of([[1, 1]]), QMatrix.of([[-1]])]),
    ]
    for decision in decisions:
        assert decision.verdict == YES
        assert all(value > 0 for _, value in decision.scalars)
        assert verify_certificate(decision.assembled, decision.certificate)
        fe = first_entries_from_certificate(decision.assembled, decision.certificate)
        assert decision.assembled.matmul(fe.matrix).is_zero()
        assert fe.unital


def test_multiply_kpr_homogeneity():
    rng = random.Random(53)
    pairs = [
        ([QMatrix.of([[1, 1]]), QMatrix.of([[-1]])], YES),
        ([QMatrix.of([[1]]), QMatrix.of([[1]])], NO),
        ([fractional_b_matrix(), minus_identity(2)], YES),
    ]
    for matrices, expected in pairs:
        for _ in range(4):
            scaled = [
                M.scale(F(rng.randint(1, 4), rng.randint(1, 4))) for M in matrices
            ]
            assert multiply_kpr(scaled).verdict == expected


def test_glance_condition_implies_doubly_ipr():
    # Every row of M starts with the same positive value c, so doubly_ipr
    # holds with b = c.
    rng = random.Random(59)
    for _ in range(6):
        rows = rng.randint(1, 2)
        cols = rng.randint(2, 3)
        c = rng.choice([1, 2, 3])
        grid = []
        for _ in range(rows):
            lead = rng.randrange(cols)
            row = [0] * cols
            row[lead] = c
            for j in range(lead + 1, cols):
                row[j] = rng.randint(-2, 2)
            grid.append(row)
        M = QMatrix.of(grid)
        assert all(next(x for x in row if x) == c for row in M.entries)
        assert doubly_ipr(M).verdict == YES


def test_stacked_form_consistency():
    for A in (QMatrix.of([[1]]), QMatrix.of([[1], [1]]), QMatrix.of([[2]])):
        decision = doubly_ipr(A)
        assert decision.verdict == YES
        b = decision.scalar("b")
        stacked = QMatrix.of(
            [[b if i == j else 0 for j in range(A.cols)] for i in range(A.cols)]
            + [list(row) for row in A.entries]
        )
        assert is_ipr(stacked).verdict == YES


def test_kpr_matrices_stay_regular_when_paired_with_themselves():
    for M in (schur(), vdw()):
        assert multiply_kpr([M, M]).verdict == YES


def test_doubly_ipr_implies_ipr():
    # the scaled-identity assembly rescales into the per-column one
    for M in (fractional_b_matrix(), schur_image(), QMatrix.of([[1]])):
        assert doubly_ipr(M).verdict == YES
        assert is_ipr(M).verdict == YES


def test_kpr_matrices_admit_bounded_positive_kernel_vectors():
    # colour-blind corollary of the decision: the kernel meets the positive
    # orthant, which the oracle finds at small bounds
    for M, bound in ((schur(), 2), (vdw(), 4), (four_seven(), 3)):
        assert is_kpr(M).verdict == YES
        witness = find_monochromatic_solution([M], Colouring.mod(1), bound)
        assert witness is not None
