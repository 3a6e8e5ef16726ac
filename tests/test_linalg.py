import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from conftest import random_matrix
from partreg import (
    QMatrix,
    QVector,
    rational,
    residual_functionals,
    rref,
    span_membership,
)
from partreg.linalg import EqualityEchelon, integer_kernel, integer_row, rational_row


def test_rational_refuses_floats():
    with pytest.raises(TypeError):
        rational(0.5)
    assert rational("1/2") == F(1, 2)


@pytest.mark.parametrize("text", ["1.5", "1e3", " 2", "1/-2", "1/0"])
def test_rational_reads_only_the_matrix_file_grammar(text):
    # Fraction(str) reads the first three and raises ZeroDivisionError on "1/0"
    with pytest.raises(ValueError):
        rational(text)


def test_rational_reads_signed_integers_and_fractions_in_lowest_terms():
    for text, value in [("-4", F(-4)), ("+3", F(3)), ("-6/4", F(-3, 2)), ("007/014", F(1, 2))]:
        assert rational(text) == value


def test_exponent_notation_is_refused_before_it_expands():
    # Fraction("1e3000000") builds a 3,000,001-digit integer; the reader
    # refuses the string before any digit is made
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="malformed entry '1e3000000'"):
            QMatrix.of([["1e3000000"]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_qmatrix_rejects_malformed_shapes():
    row = (F(1), F(2))
    for rows, cols, entries in [(1, 0, ((),)), (2, 2, (row,)), (-1, 2, ()), (2, 2, (row, (F(1),)))]:
        with pytest.raises(ValueError):
            QMatrix(rows, cols, entries)
    for build in (
        lambda: QMatrix.of([]),
        lambda: QMatrix.from_columns([]),
        lambda: QMatrix.hstack([]),
        lambda: QMatrix.of([[1, 2]]).matmul(QMatrix.of([[1, 2]])),
    ):
        with pytest.raises(ValueError):
            build()


def test_rref_proportional_rows():
    R, pivots, rank = rref(QMatrix.of([[2, 4], [1, 2]]))
    assert R == QMatrix.of([[1, 2], [0, 0]])
    assert pivots == (0,)
    assert rank == 1


def test_rref_identity_fixed_point():
    I3 = QMatrix.identity(3)
    R, pivots, rank = rref(I3)
    assert R == I3 and pivots == (0, 1, 2) and rank == 3


def test_rref_two_by_three():
    # hand reduction: rows (4,-4,2), (5,-5,3) leave pivots in columns 0 and 2
    R, pivots, rank = rref(QMatrix.of([[4, -4, 2], [5, -5, 3]]))
    assert rank == 2
    assert pivots == (0, 2)
    assert R == QMatrix.of([[1, -1, 0], [0, 0, 1]])


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        R, pivots, rank = rref(M)
        R2, pivots2, rank2 = rref(R)
        assert (R2, pivots2, rank2) == (R, pivots, rank)


def test_rref_ignores_row_order_and_redundant_rows():
    rng = random.Random(19)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        R, pivots, rank = rref(M)
        rows = list(M.entries)
        rng.shuffle(rows)
        assert rref(QMatrix.of(rows)) == (R, pivots, rank)
        a, b, c = rng.choice(rows), rng.choice(rows), F(rng.randint(-2, 2))
        combo = tuple(c * x + F(1, 3) * y for x, y in zip(a, b))
        rows.insert(rng.randint(0, len(rows)), combo)
        R2, pivots2, rank2 = rref(QMatrix.of(rows))
        assert (R2.entries[:rank2], pivots2, rank2) == (R.entries[:rank], pivots, rank)
        assert R2.rows == len(rows) and all(not any(row) for row in R2.entries[rank2:])


def gauss_jordan(M: QMatrix) -> tuple[QMatrix, tuple[int, ...], int]:
    """Reference reduced row echelon form in Fraction arithmetic."""
    rows = [list(row) for row in M.entries]
    pivots: list[int] = []
    for col in range(M.cols):
        r = len(pivots)
        pick = next((i for i in range(r, M.rows) if rows[i][col] != 0), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(M.rows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return QMatrix(M.rows, M.cols, tuple(tuple(row) for row in rows)), tuple(pivots), len(pivots)


def test_rref_matches_fraction_gauss_jordan():
    rng = random.Random(29)
    for _ in range(80):
        M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), max_den=rng.choice((1, 3, 7)))
        assert rref(M) == gauss_jordan(M)


def test_integer_row_and_rational_row():
    assert integer_row([F(1, 2), F(-2, 3), 0, 5]) == [3, -4, 0, 30]
    assert integer_row([F(0), F(0)]) == [0, 0]
    assert rational_row((0, -6, 4, 3), 1) == (0, 1, F(-2, 3), F(-1, 2))


def _least_multiplier(values) -> int:
    # the smallest k >= 1 that makes every value an integer, by trial
    k = 1
    while any((F(x) * k).denominator != 1 for x in values):
        k += 1
    return k


def test_integer_views_match_a_fraction_computation():
    # Rows of ints and Fractions, with zeros and negatives, and rows of
    # plain ints: the views are the values times their least common
    # multiplier, as ints, and a matrix's columns share one multiplier.
    rng = random.Random(3803)
    values = [0, 0, 1, -1, 3, -4, F(0), F(2), F(1, 2), F(-2, 3), F(5, 4), F(-7, 6), F(3, 7)]
    integral = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        row = [rng.choice(values) for _ in range(n)]
        if rng.random() < 0.3:
            row = [rng.randint(-5, 5) for _ in range(n)]
        integral += all(F(x).denominator == 1 for x in row)
        k = _least_multiplier(row)
        got = integer_row(row)
        assert got == [int(F(x) * k) for x in row], row
        assert all(type(x) is int for x in got)

        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        grid = tuple(tuple(rng.choice(values) for _ in range(cols)) for _ in range(rows))
        k = _least_multiplier([x for r in grid for x in r])
        expected = tuple(tuple(int(F(r[j]) * k) for r in grid) for j in range(cols))
        assert QMatrix(rows, cols, grid).integer_columns == expected
        assert QMatrix.of(grid).integer_columns == expected
    assert integral >= 60


def assert_canonical(echelon: EqualityEchelon) -> None:
    assert list(echelon.pivots) == sorted(set(echelon.pivots))
    for p, row in zip(echelon.pivots, echelon.rows):
        assert len(row) == echelon.nvars + 1
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1
        assert row[p] > 0 and not any(row[:p])
        for q, other in zip(echelon.pivots, echelon.rows):
            assert q == p or other[p] == 0


def test_integer_echelon_is_canonical():
    rng = random.Random(31)
    for _ in range(60):
        nvars = rng.randint(1, 5)
        point = [rng.randint(-3, 3) for _ in range(nvars)]  # keeps the rows consistent
        base = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [rng.randint(-4, 4) for _ in range(nvars)]
            base.append(coeffs + [-sum(a * x for a, x in zip(coeffs, point))])
        echelon = EqualityEchelon(nvars).extend(base)
        assert echelon is not None
        assert_canonical(echelon)

        combos = []
        for _ in range(3):
            u, v, a, b = rng.randint(-3, 3), rng.randint(-3, 3), rng.choice(base), rng.choice(base)
            combos.append([u * x + v * y for x, y in zip(a, b)])
        assert echelon.extend(combos) is echelon  # implied equalities
        assert echelon.extend(base) is echelon

        shuffled = []
        for row in base + combos:
            k = rng.choice((-5, -3, -2, -1, 1, 2, 4))
            shuffled.append([k * x for x in row])
        rng.shuffle(shuffled)
        rebuilt = EqualityEchelon(nvars)
        for row in shuffled:  # one equality per call, then all at once
            rebuilt = rebuilt.extend([row])
        assert rebuilt.rows == echelon.rows and rebuilt.pivots == echelon.pivots
        assert EqualityEchelon(nvars).extend(shuffled).rows == echelon.rows

        # The same equality with its constant moved off the solution set.
        if echelon.rows:
            row = rng.choice(echelon.rows)
            k = rng.choice((-2, 1, 3))
            assert echelon.extend([[k * x for x in row[:-1]] + [k * (row[-1] + 1)]]) is None
        assert echelon.extend([[0] * nvars + [1]]) is None


def test_integer_echelon_rows_are_the_scaled_rref():
    rng = random.Random(37)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), max_den=5)
        echelon = EqualityEchelon(M.cols - 1).extend(integer_row(row) for row in M.entries)
        R, pivots, rank = gauss_jordan(M)
        if pivots and pivots[-1] == M.cols - 1:  # a row 0 == 1: inconsistent
            assert echelon is None
            continue
        assert echelon.pivots == pivots
        assert tuple(rational_row(row, p) for p, row in zip(pivots, echelon.rows)) == R.entries[:rank]


def test_span_membership_full_plane():
    coeffs = span_membership(
        [QVector.of([4, 5]), QVector.of([2, 3])], QVector.of([F(-1, 2), 0])
    )
    assert coeffs is not None
    recombined = QMatrix.of([[4, 2], [5, 3]]).matmul(QMatrix.of([[c] for c in coeffs]))
    assert recombined == QMatrix.of([[F(-1, 2)], [0]])


def test_span_membership_empty_basis():
    assert span_membership([], QVector.of([0, 0, 0])) == []
    assert span_membership([], QVector.of([0, 1, 0])) is None


def test_span_membership_proportional():
    assert span_membership([QVector.of([4, 5])], QVector.of([2, F(5, 2)])) == [F(1, 2)]
    assert span_membership([QVector.of([4, 5])], QVector.of([2, 3])) is None


def test_span_membership_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        span_membership([QVector.of([1, 2])], QVector.of([1, 2, 3]))


def test_span_membership_recombines_exactly_on_random_input():
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.randint(1, 4)
        basis = [
            QVector.of([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)])
            for _ in range(rng.randint(0, 3))
        ]
        target = QVector.of([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)])
        coeffs = span_membership(basis, target)
        if coeffs is not None:
            # sum(coeff_i * basis_i) - target == 0
            combination = QMatrix.of([[c] for c in coeffs] + [[-1]])
            assert QMatrix.from_columns(basis + [target]).matmul(combination).is_zero()


def test_residual_functionals_known_cases():
    full = residual_functionals([QVector.of([1, 0]), QVector.of([0, 1])])
    assert full.rows == 0 and full.cols == 2

    nothing = residual_functionals([], dim=2)
    assert nothing == QMatrix.identity(2)

    line = residual_functionals([QVector.of([4, 5])])
    assert line.rows == 1
    assert line.matmul(QMatrix.of([[4], [5]])).is_zero()
    assert line.matmul(QMatrix.of([[2], [F(5, 2)]])).is_zero()
    assert not line.matmul(QMatrix.of([[2], [3]])).is_zero()


def test_residual_functionals_requires_dim_for_empty_set():
    with pytest.raises(ValueError):
        residual_functionals([])
    with pytest.raises(ValueError):  # vectors of two dimensions
        residual_functionals([QVector.of([1]), QVector.of([1, 2])])
    with pytest.raises(ValueError):  # dim disagrees with the vectors
        residual_functionals([QVector.of([1, 2])], dim=3)


def test_residual_matches_span_membership_on_random_input():
    rng = random.Random(13)
    for _ in range(60):
        dim = rng.randint(1, 3)
        vectors = [
            QVector.of([rng.randint(-2, 2) for _ in range(dim)])
            for _ in range(rng.randint(0, 3))
        ]
        R = residual_functionals(vectors, dim=dim)
        probe = QVector.of([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)])
        annihilated = R.matmul(QMatrix.from_columns([probe])).is_zero()
        in_span = span_membership(vectors, probe) is not None
        assert annihilated == in_span


def kernel_of(M: QMatrix) -> list[tuple[int, ...]]:
    """integer_kernel of the echelon of M x == 0."""
    return integer_kernel(EqualityEchelon(M.cols).extend(integer_row(row + (0,)) for row in M.entries))


def test_nullspace_known_cases():
    # x + y = z: one primitive vector per free column, positive there, 0 at the other
    assert kernel_of(QMatrix.of([[1, 1, -1]])) == [(-1, 1, 0), (1, 0, 1)]
    assert kernel_of(QMatrix.identity(3)) == []
    assert kernel_of(QMatrix.of([[0, 0]])) == [(1, 0), (0, 1)]


def test_nullspace_vectors_are_exact_and_independent():
    rng = random.Random(17)
    for _ in range(30):
        M = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 5))
        basis = [QVector.of(v) for v in kernel_of(M)]
        _, _, rank = rref(M)
        assert len(basis) == M.cols - rank
        if basis:
            assert M.matmul(QMatrix.from_columns(basis)).is_zero()
            stacked = QMatrix(len(basis), M.cols, tuple(v.entries for v in basis))
            assert rref(stacked)[2] == len(basis)


def test_integer_kernel_is_an_independent_annihilating_basis():
    rng = random.Random(89)
    for _ in range(60):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6), max_den=rng.choice((1, 3)))
        kernel = kernel_of(M)
        _, pivots, rank = gauss_jordan(M)
        assert len(kernel) == M.cols - rank
        free = [f for f in range(M.cols) if f not in pivots]
        for f, vector in zip(free, kernel):
            assert all(type(x) is int for x in vector) and math.gcd(*vector) == 1
            assert vector[f] > 0 and not any(vector[g] for g in free if g != f)
        if kernel:
            assert M.matmul(QMatrix.from_columns([QVector.of(v) for v in kernel])).is_zero()
            assert rref(QMatrix.of(kernel))[2] == len(kernel)


def gauss_jordan_kernel(M: QMatrix) -> list[QVector]:
    """Reference kernel basis: 1 at each free column, read off gauss_jordan."""
    R, pivots, _ = gauss_jordan(M)
    basis = []
    for f in (f for f in range(M.cols) if f not in pivots):
        entries = [F(0)] * M.cols
        entries[f] = F(1)
        for row, p in zip(R.entries, pivots):
            entries[p] = -row[f]
        basis.append(QVector(tuple(entries)))
    return basis


def test_nullspace_and_residual_match_fraction_gauss_jordan():
    rng = random.Random(97)
    for _ in range(60):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), max_den=rng.choice((1, 3, 7)))
        annihilator = gauss_jordan_kernel(M)
        # the reference has a 1 at each free column: divide by the free entry
        free = [f for f in range(M.cols) if f not in gauss_jordan(M)[1]]
        assert [QVector(rational_row(v, f)) for f, v in zip(free, kernel_of(M))] == annihilator
        vectors = [QVector(row) for row in M.entries]
        if annihilator:
            R, _, rank = gauss_jordan(QMatrix.of([v.entries for v in annihilator]))
            expected = QMatrix(rank, M.cols, R.entries[:rank])
        else:
            expected = QMatrix.empty(M.cols)
        assert residual_functionals(vectors) == expected
