"""Exact rational vectors, matrices and the elimination kernel.

The API is built on fractions.Fraction, so results are exact and canonical
(lowest terms, positive denominator).  Floats are refused at construction
time.  Matrices here are small and dense, which keeps plain Gauss-Jordan
elimination the right tool.

EqualityEchelon is the one elimination kernel: rref, the span and kernel
helpers built on it (integer_kernel reads a kernel basis off an echelon),
the closure search's scalar equalities and the equality stage of the
positive-solution solver all reduce through its extend.  It works
fraction-free on integer rows; integer_row and rational_row convert at the
boundary, so Fractions appear only where rows enter from or leave for the
rational API.  Each QMatrix caches one integer view of itself,
integer_columns, so the certificate steps scale a matrix once between them;
span_coefficients, the one clause solver, runs on such integer columns and
span_membership wraps it for QVectors.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction

Scalar = int | str | Fraction


def rational(value: Scalar) -> Fraction:
    """Coerce to an exact Fraction; floats are refused."""
    if isinstance(value, float):
        raise TypeError(f"exact arithmetic only, got float {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class QVector:
    """Dense vector of exact rationals."""

    entries: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable[Scalar]) -> "QVector":
        return QVector(tuple(rational(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class QMatrix:
    """Dense row-major matrix of exact rationals.

    Zero-row matrices are allowed; they arise naturally as annihilators of
    full spans.  Column count is always at least one.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.cols < 1:
            raise ValueError("matrix needs at least one column")
        if self.rows < 0 or len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")

    @staticmethod
    def of(rows: Iterable[Iterable[Scalar]]) -> "QMatrix":
        grid = tuple(tuple(rational(v) for v in row) for row in rows)
        if not grid:
            raise ValueError("use QMatrix.empty for matrices without rows")
        return QMatrix(len(grid), len(grid[0]), grid)

    @staticmethod
    def empty(cols: int) -> "QMatrix":
        return QMatrix(0, cols, ())

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(
            n, n,
            tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n)),
        )

    @staticmethod
    def from_columns(columns: Sequence[QVector]) -> "QMatrix":
        if not columns:
            raise ValueError("need at least one column")
        dim = columns[0].dim
        if any(c.dim != dim for c in columns):
            raise ValueError("columns differ in dimension")
        return QMatrix(
            dim, len(columns),
            tuple(tuple(c.entries[i] for c in columns) for i in range(dim)),
        )

    @staticmethod
    def hstack(parts: Sequence["QMatrix"]) -> "QMatrix":
        if not parts:
            raise ValueError("nothing to stack")
        rows = parts[0].rows
        if any(p.rows != rows for p in parts):
            raise ValueError("row counts differ")
        grid = tuple(
            tuple(x for p in parts for x in p.entries[i]) for i in range(rows)
        )
        return QMatrix(rows, sum(p.cols for p in parts), grid)

    def column(self, j: int) -> QVector:
        return QVector(tuple(row[j] for row in self.entries))

    def columns(self) -> list[QVector]:
        return [self.column(j) for j in range(self.cols)]

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        cols = [other.column(j).entries for j in range(other.cols)]
        grid = tuple(
            tuple(sum((a * b for a, b in zip(row, col)), Q(0)) for col in cols)
            for row in self.entries
        )
        return QMatrix(self.rows, other.cols, grid)

    def scale(self, c: Scalar) -> "QMatrix":
        c = rational(c)
        return QMatrix(
            self.rows, self.cols,
            tuple(tuple(c * x for x in row) for row in self.entries),
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    @cached_property
    def integer_columns(self) -> tuple[tuple[int, ...], ...]:
        """The columns times one common multiplier: integers, computed once.

        One multiplier for all columns keeps every combination of them
        proportional, so a combination vanishes exactly when it did before
        and span coefficients are unchanged.
        """
        flat = integer_row(x for row in self.entries for x in row)
        return tuple(tuple(flat[j::self.cols]) for j in range(self.cols))

    def to_lines(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def integer_row(values: Iterable[Fraction | int]) -> list[int]:
    """The values times the lcm of their denominators: integers, same ratios."""
    values = list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def rational_row(row: Sequence[int], pivot: int) -> tuple[Fraction, ...]:
    """An integer row as Fractions divided by its entry at `pivot`."""
    p = row[pivot]
    return tuple(Fraction(x, p) for x in row)


def _primitive(row: list[int], pivot: int) -> tuple[int, ...]:
    g = math.gcd(*row)
    if row[pivot] < 0:
        g = -g
    return tuple(x // g for x in row)


@dataclass(frozen=True)
class EqualityEchelon:
    """Fully reduced echelon form of integer affine equalities over variables.

    Each row (a_0, ..., a_{n-1}, c) of integers states a . x + c == 0.  A
    row's pivot is its first non-zero coefficient; it is positive, every
    other row is zero there, and the row's entries have gcd 1.  That form is
    unique for each solution set, so two echelons have the same solution set
    exactly when their rows are equal.  rational_row reads a row back as
    Fractions with pivot 1.
    """

    nvars: int
    rows: tuple[tuple[int, ...], ...] = ()
    pivots: tuple[int, ...] = ()

    def extend(self, equalities: Iterable[Sequence[int]]) -> "EqualityEchelon | None":
        """This echelon with `equalities` added, in the same row format.

        The equalities must be integer rows (integer_row clears
        denominators).  Returns self when every equality is already implied,
        and None when they contradict the echelon.
        """
        nvars = self.nvars
        rows, pivots = list(self.rows), list(self.pivots)
        for equality in equalities:
            if not any(equality):
                continue
            work = equality
            for p, row in zip(pivots, rows):
                f = work[p]
                if f:
                    a = row[p]
                    work = [a * x - f * y for x, y in zip(work, row)]
            pivot = next((i for i in range(nvars) if work[i]), None)
            if pivot is None:
                if work[nvars]:
                    return None
                continue
            new = _primitive(work, pivot)
            a = new[pivot]
            for i, row in enumerate(rows):
                f = row[pivot]
                if f:
                    rows[i] = _primitive([a * x - f * y for x, y in zip(row, new)], pivots[i])
            at = bisect.bisect(pivots, pivot)
            rows.insert(at, new)
            pivots.insert(at, pivot)
        if len(rows) == len(self.rows):
            return self
        return EqualityEchelon(nvars, tuple(rows), tuple(pivots))


def _homogeneous_echelon(dim: int, rows: Iterable[tuple[Fraction | int, ...]]) -> EqualityEchelon:
    return EqualityEchelon(dim).extend(integer_row(row + (0,)) for row in rows)


def rref(M: QMatrix) -> tuple[QMatrix, tuple[int, ...], int]:
    """Reduced row echelon form of M, padded with zero rows to M's shape.

    Returns (R, pivot columns, rank).  R is the echelon of the homogeneous
    equalities M x == 0; the reduced form of a row space is unique, so R
    does not depend on the order or redundancy of M's rows.
    """
    echelon = _homogeneous_echelon(M.cols, M.entries)
    rank = len(echelon.rows)
    grid = tuple(
        rational_row(row[:-1], p) for p, row in zip(echelon.pivots, echelon.rows)
    ) + ((Q(0),) * M.cols,) * (M.rows - rank)
    return QMatrix(M.rows, M.cols, grid), echelon.pivots, rank


def span_coefficients(
    columns: Sequence[Sequence[int]], target: Sequence[int]
) -> list[Fraction] | None:
    """Exact coefficients with sum(coeff_i * columns_i) == target, or None.

    The vectors are integer; scaling them all by one multiplier leaves the
    coefficients as they are.  The solve is the echelon of the equalities
    columns . x + target == 0, so x = -coeff; free coordinates are pinned
    to 0, which makes the combination canonical for a fixed column order.
    """
    n = len(columns)
    echelon = EqualityEchelon(n).extend(
        [c[r] for c in columns] + [target[r]] for r in range(len(target))
    )
    if echelon is None:
        return None
    coeffs = [Q(0)] * n
    for p, row in zip(echelon.pivots, echelon.rows):
        coeffs[p] = Fraction(row[n], row[p])
    return coeffs


def span_membership(basis: Sequence[QVector], target: QVector) -> list[Fraction] | None:
    """Exact coefficients with sum(coeff_i * basis_i) == target, or None.

    Free coordinates of an underdetermined solve are pinned to 0, so for a
    fixed basis order the returned combination is canonical.  The empty basis
    spans only the zero vector.
    """
    if any(b.dim != target.dim for b in basis):
        raise ValueError("span_membership: dimension mismatch")
    dim = target.dim
    flat = integer_row(x for v in (*basis, target) for x in v.entries)
    scaled = [flat[k * dim:(k + 1) * dim] for k in range(len(basis) + 1)]
    return span_coefficients(scaled[:-1], scaled[-1])


def integer_kernel(echelon: EqualityEchelon) -> list[tuple[int, ...]]:
    """Integer basis of the kernel of the echelon's coefficients.

    The constants are ignored: the vectors x satisfy a . x == 0 for every
    row.  There is one vector per free (non-pivot) variable f, in increasing
    order; it is primitive, positive at f and zero at the other free
    variables.
    """
    n = echelon.nvars
    pivots, rows = echelon.pivots, echelon.rows
    basis: list[tuple[int, ...]] = []
    for f in sorted(set(range(n)) - set(pivots)):
        scale = math.lcm(*(row[p] for p, row in zip(pivots, rows) if row[f]))
        vector = [0] * n
        vector[f] = scale
        for p, row in zip(pivots, rows):
            if row[f]:
                vector[p] = -row[f] * (scale // row[p])
        basis.append(_primitive(vector, f))
    return basis


def nullspace_basis(M: QMatrix) -> list[QVector]:
    """Rational basis of the kernel {x : Mx = 0}, one vector per free column.

    Each basis vector carries a 1 at its free column and 0 at the other free
    columns, so the free coordinates of any kernel vector are literally its
    entries at those columns.
    """
    echelon = _homogeneous_echelon(M.cols, M.entries)
    frees = sorted(set(range(M.cols)) - set(echelon.pivots))
    return [
        QVector(rational_row(vector, f)) for f, vector in zip(frees, integer_kernel(echelon))
    ]


def residual_functionals(vectors: Sequence[QVector], dim: int | None = None) -> QMatrix:
    """Basis, in RREF form, of the functionals annihilating span(vectors).

    The returned matrix R satisfies: R @ w == 0 exactly iff w lies in the
    span.  It has dim - rank rows; a full span yields a zero-row matrix.  For
    an empty vector set `dim` must be given.
    """
    if vectors:
        u = vectors[0].dim
        if any(v.dim != u for v in vectors):
            raise ValueError("residual_functionals: dimension mismatch")
        if dim is not None and dim != u:
            raise ValueError("residual_functionals: dim disagrees with vectors")
    elif dim is None:
        raise ValueError("residual_functionals: dim required for an empty set")
    else:
        u = dim
    kernel = integer_kernel(_homogeneous_echelon(u, (v.entries for v in vectors)))
    annihilator = _homogeneous_echelon(u, kernel)
    return QMatrix(
        len(kernel), u,
        tuple(rational_row(row[:-1], p) for p, row in zip(annihilator.pivots, annihilator.rows)),
    )
