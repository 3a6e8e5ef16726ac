"""Scaled columns-condition feasibility over unknown positive scalars.

A ScalingTemplate (defined beside the search in the columns module) groups the
columns of an assembled matrix under unknown strictly positive scalars (or
fixes them at 1).  For a candidate ordered partition, build_system linearises
the columns condition of the scaled matrix into an affine system: multiplying
columns by positive scalars never changes their span, so each block's
membership constraint can be stated once against annihilators of the
*unscaled* earlier columns; before the first block there are none, and their
annihilators are the identity rows.  That reduction is what keeps the system
affine rather than polynomial; it is valid for any nonzero scalar values.
enumerate_feasible_scalars reads the one-scalar answer set off the equalities
and, where 0 is a candidate, checks 0 directly against the matrix.  The
decisions module never walks partitions, so build_system and
enumerate_feasible_scalars are the reference its answers are tested against.

feasible_positive decides the system exactly: equalities are eliminated in
linalg's EqualityEchelon, then Fourier-Motzkin elimination runs over the strict
inequalities x_i > 0, whose positive combinations are all strict, on integer
rows divided by the gcd of their entries; no epsilons.  Infeasible systems come
with a Farkas-style witness: a non-negative combination of the positivity
constraints plus an arbitrary-sign combination of the equalities whose
variables cancel and whose constant is contradictory.  The elimination is
stage 1 of solve_positive; stages 2-4 are solve_positive_echelon, which the
decision procedures call directly on the closure search's echelon, already
reduced and in integers, once per YES for its scalars.  Stages 2-3, the
Fourier-Motzkin projection, are _project; stage 4 back-substitutes on integers
over one common denominator, so the returned point is its only Fractions.

has_positive_solution is the search's check and solves for no point, so it
makes no Fraction: a row with no negative entry refutes the echelon, rows on
disjoint variables admit a positive solution, and only rows that share a
variable go to _project.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .columns import (
    OrderedPartition,
    ScalingTemplate,
    check_partition,
)
from .linalg import (
    EqualityEchelon,
    Q,
    integer_row,
    residual_functionals,
)

@dataclass(frozen=True)
class LinearEquality:
    """coeffs . x + const == 0"""

    coeffs: tuple[Fraction, ...]
    const: Fraction


@dataclass(frozen=True)
class AffineSystem:
    nvars: int
    equalities: tuple[LinearEquality, ...]
    positivity: frozenset[int]


@dataclass(frozen=True)
class PositiveSolution:
    """Exact assignment, strictly positive on the system's positivity set."""

    assignment: tuple[Fraction, ...]


@dataclass(frozen=True)
class FarkasWitness:
    """Certified infeasibility.

    ineq_multipliers[j] >= 0 weighs the constraint x_p > 0 for p the j-th
    smallest member of the positivity set; eq_multipliers[l] (any sign)
    weighs equality l.  The weighted sum of these affine forms has zero
    coefficients and a constant that contradicts the derived relation.
    """

    ineq_multipliers: tuple[Fraction, ...]
    eq_multipliers: tuple[Fraction, ...]


def verify_farkas(system: AffineSystem, witness: FarkasWitness) -> bool:
    """Re-derive the contradiction from the witness multipliers."""
    pos = sorted(system.positivity)
    if len(witness.ineq_multipliers) != len(pos):
        return False
    if len(witness.eq_multipliers) != len(system.equalities):
        return False
    if any(lam < 0 for lam in witness.ineq_multipliers):
        return False
    coeffs = [Q(0)] * system.nvars
    const = Q(0)
    for lam, p in zip(witness.ineq_multipliers, pos):
        coeffs[p] += lam
    for mu, eq in zip(witness.eq_multipliers, system.equalities):
        for i, c in enumerate(eq.coeffs):
            coeffs[i] += mu * c
        const += mu * eq.const
    if any(c != 0 for c in coeffs):
        return False
    if any(lam > 0 for lam in witness.ineq_multipliers):
        return const <= 0  # derived "const > 0" fails
    return const != 0  # derived "const == 0" fails


# Internal inequality: one flat integer row holding the coefficients over the
# free variables, the constant, and the provenance (lam over the positivity
# constraints, then mu over the original equalities).  It states
# coeffs . x + const > 0: the rows start as the strict x_p > 0, and a
# positive combination of strict rows is strict, so no row is ever ">= 0".
_Ineq = tuple[int, ...]


def _prune(ineqs: list[_Ineq], nf: int) -> tuple[list[_Ineq], _Ineq | None]:
    """Drop tautologies and dominated rows; surface constant contradictions.

    Rows whose coefficients are positive multiples of each other share the
    primitive coefficient vector; among them only the tightest constant
    (compared after dividing by the coefficients' gcd) survives.  Dominance
    never changes feasibility.  A row with no coefficients is a
    contradiction when its constant is not positive.
    """
    best: dict[tuple[int, ...], tuple[int, _Ineq]] = {}
    for row in ineqs:
        coeffs, const = row[:nf], row[nf]
        if not any(coeffs):
            if const <= 0:
                return [], row
            continue  # tautology
        g = math.gcd(*coeffs)
        key = tuple(c // g for c in coeffs)
        kept = best.get(key)
        if kept is None or const * kept[0] < kept[1][nf] * g:
            best[key] = (g, row)
    return [row for _, row in best.values()], None


def solve_positive(
    system: AffineSystem,
) -> tuple[PositiveSolution | None, FarkasWitness | None]:
    """Decide the system exactly; return (solution, None) or (None, witness)."""
    nv = system.nvars
    n_pos, n_eq = len(system.positivity), len(system.equalities)

    def witness(provenance: Sequence[int]) -> tuple[None, FarkasWitness]:
        multipliers = [Q(x) for x in provenance]
        return None, FarkasWitness(tuple(multipliers[:n_pos]), tuple(multipliers[n_pos:]))

    # --- stage 1: eliminate equalities in the shared echelon kernel ---
    # Equality l carries the unit vector e_l as extra variables, so the middle
    # entries mu of every reduced row satisfy: row == sum(mu_l * equality_l).
    # Clearing a row's denominators scales its unit vector too, so that holds
    # for the integer rows.  The unit vectors keep the rows independent, so
    # extend never fails.
    width = nv + n_eq
    echelon = EqualityEchelon(width).extend(
        integer_row(eq.coeffs + tuple(int(i == l) for i in range(n_eq)) + (eq.const,))
        for l, eq in enumerate(system.equalities)
    )
    for p, row in zip(echelon.pivots, echelon.rows):
        if p >= nv and row[width]:
            return witness((0,) * n_pos + row[nv:width])

    solution, provenance = solve_positive_echelon(echelon, nv, system.positivity)
    if solution is None:
        return witness(provenance)
    for eq in system.equalities:
        total = sum((c * a for c, a in zip(eq.coeffs, solution.assignment)), eq.const)
        assert total == 0, "back-substitution broke an equality"
    return solution, None


def _project(echelon: EqualityEchelon, nvars: int, pos: Sequence[int]) -> tuple[tuple | None, tuple | None]:
    """Stages 2-3 of solve_positive_echelon on integer rows, `pos` sorted.

    Returns ((pivot rows, free variables, snapshots), None), a snapshot being
    an eliminated variable with its bounding rows, or (None, provenance)."""
    nv, width = nvars, echelon.nvars
    n_pos = len(pos)
    pivot_rows = {p: row for p, row in zip(echelon.pivots, echelon.rows) if p < nv}
    free_vars = [i for i in range(nv) if i not in pivot_rows]
    nf = len(free_vars)

    # --- stage 2: restate each positivity constraint over the free variables ---
    # A pivot row a*x_p + sum(r_f * x_f) + c == 0 (a > 0) turns x_p > 0 into
    # -sum(r_f * x_f) - c > 0, which is a*x_p minus the row: lam_j = a and
    # mu = -(the row's mu).  The echelon rows are primitive, so these are too.
    ineqs: list[_Ineq] = []
    for j, p in enumerate(pos):
        lam = [0] * n_pos
        if p in pivot_rows:
            row = pivot_rows[p]
            lam[j] = row[p]
            coeffs = [-row[f] for f in free_vars] + [-row[width]]
            mu = [-m for m in row[nv:width]]
        else:
            lam[j] = 1
            coeffs = [int(f == p) for f in free_vars] + [0]
            mu = [0] * (width - nv)
        ineqs.append(tuple(coeffs + lam + mu))

    ineqs, contradiction = _prune(ineqs, nf)
    if contradiction is not None:
        return None, contradiction[nf + 1:]

    # --- stage 3: Fourier-Motzkin over the free variables ---
    # Every combination is divided by the gcd of all its entries, a positive
    # scaling that leaves the bounds and the provenance's validity as they are.
    snapshots: list[tuple[int, list[_Ineq], list[_Ineq]]] = []
    while True:
        occurring = [k for k in range(nf) if any(row[k] for row in ineqs)]
        if not occurring:
            break
        # classic heuristic: eliminate the variable minimising lower*upper
        def cost(k: int, rows: list[_Ineq] = ineqs) -> tuple[int, int]:
            lo = sum(1 for row in rows if row[k] > 0)
            hi = sum(1 for row in rows if row[k] < 0)
            return (lo * hi, k)

        k = min(occurring, key=cost)
        lowers = [row for row in ineqs if row[k] > 0]
        uppers = [row for row in ineqs if row[k] < 0]
        snapshots.append((k, lowers, uppers))
        combined = [row for row in ineqs if row[k] == 0]
        for lo_row in lowers:
            a = lo_row[k]
            for up_row in uppers:
                b = -up_row[k]
                row = [b * x + a * y for x, y in zip(lo_row, up_row)]
                g = math.gcd(*row)  # lam > 0 somewhere, so g > 0
                if g > 1:
                    row = [x // g for x in row]
                combined.append(tuple(row))
        ineqs, contradiction = _prune(combined, nf)
        if contradiction is not None:
            return None, contradiction[nf + 1:]

    return (pivot_rows, free_vars, snapshots), None


def solve_positive_echelon(
    echelon: EqualityEchelon, nvars: int, positivity: Iterable[int]
) -> tuple[PositiveSolution | None, tuple[int, ...] | None]:
    """Stages 2-4 of solve_positive on a consistent, reduced equality echelon.

    The echelon's first `nvars` variables are the unknowns; any later ones
    carry provenance mu over original equalities, as stage 1 builds them.
    Returns (solution, None), strictly positive on `positivity`, or (None,
    provenance): the integer multipliers of a Farkas-style contradiction,
    lam over the sorted positivity set, then mu.
    """
    positivity = sorted(positivity)
    projection, provenance = _project(echelon, nvars, positivity)
    if projection is None:
        return None, provenance
    (pivot_rows, free_vars, snapshots), nv, width = projection, nvars, echelon.nvars
    nf = len(free_vars)

    # --- stage 4: back-substitute a concrete point, preferring the value 1 ---
    # A variable that left every row before its own elimination is
    # unconstrained by the projection, so 1 is as good as any value for it.
    # The values are nums[i] / d over one common denominator d, and a bound
    # is a pair (n, m) for n / m with m > 0.  Only the returned assignment
    # is made of Fractions.
    nums, d = [1] * nf, 1

    def bound(rows: list[_Ineq], k: int, tightest) -> tuple[int, int] | None:
        # row r gives x_k > or < -(r's other terms) / r[k]; put all over m * d
        if not rows:
            return None
        m = math.lcm(*(row[k] for row in rows))
        return tightest(
            -(row[nf] * d + sum(row[i] * nums[i] for i in range(nf) if i != k)) * (m // row[k])
            for row in rows
        ), m * d

    for k, lowers, uppers in reversed(snapshots):
        p, q = _pick(bound(lowers, k, max), bound(uppers, k, min))
        g = math.gcd(p, q)
        p, q = p // g, q // g
        scale = q // math.gcd(d, q)
        nums, d = [x * scale for x in nums], d * scale
        nums[k] = p * (d // q)

    # x_p = -(row[width] + sum(row[f] * x_f)) / row[p], all over den
    den = d * math.lcm(*(row[p] for p, row in pivot_rows.items()))
    values = [0] * nv
    for f, x in zip(free_vars, nums):
        values[f] = x * (den // d)
    for p, row in pivot_rows.items():
        total = row[width] * d + sum(row[f] * x for f, x in zip(free_vars, nums))
        values[p] = -total * (den // (row[p] * d))

    for row in echelon.rows:
        total = sum(c * x for c, x in zip(row, values)) + row[width] * den
        assert total == 0, "back-substitution broke an equality"
    assert all(values[p] > 0 for p in positivity), "back-substitution lost positivity"
    return PositiveSolution(tuple(Fraction(x, den) for x in values)), None


def _pick(lo: tuple[int, int] | None, hi: tuple[int, int] | None) -> tuple[int, int]:
    """A value in the open interval (lo, hi), preferring 1; stage 3 left lo < hi.

    The value and each end are pairs (n, m) for n / m with m > 0; an end that
    does not constrain is None.
    """
    if (lo is None or lo[0] < lo[1]) and (hi is None or hi[1] < hi[0]):
        return 1, 1
    if hi is None:
        return lo[0] + lo[1], lo[1]
    if lo is None:
        return hi[0] - hi[1], hi[1]
    return lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]


def has_positive_solution(echelon: EqualityEchelon) -> bool:
    """Whether a consistent, reduced echelon has a solution with every variable > 0.

    Every pivot is positive, so a row whose entries, constant included, are
    all >= 0 cannot vanish on positive values: it refutes the echelon on its
    own, a one-row Farkas witness.  Otherwise one row always has a positive
    solution, and rows on disjoint variables are independent.  Rows that
    share a variable go to _project's Fourier-Motzkin, which solves no point.
    """
    if any(min(row) >= 0 for row in echelon.rows):
        return False
    n, seen = echelon.nvars, set()
    for row in echelon.rows:
        support = {i for i in range(n) if row[i]}
        if not seen.isdisjoint(support):
            return _project(echelon, n, range(n))[0] is not None
        seen |= support
    return True


def feasible_positive(system: AffineSystem) -> PositiveSolution | None:
    """Strictly positive exact solution of the system, if one exists."""
    solution, _ = solve_positive(system)
    return solution


def iter_system_equalities(
    template: ScalingTemplate, partition: OrderedPartition
) -> Iterator[tuple[tuple[Fraction, ...], Fraction]]:
    """Yield (coeffs, const) equalities of the scaled columns condition.

    For each block in order, the annihilator rows of the earlier unscaled
    columns applied to the block's scaled sum.  The annihilators of no
    columns are the identity rows, so the first block's equalities say that
    its scaled columns sum to zero; a matrix without rows has none.
    """
    if not partition.covers(template.matrix.cols):
        raise ValueError("partition does not cover the template's columns")
    cols = template.matrix.columns()
    u = template.matrix.rows
    for t, block in enumerate(partition.blocks):
        earlier = [cols[i] for prior in partition.blocks[:t] for i in prior]
        for functional in residual_functionals(earlier, dim=u).entries if u else ():
            row = [Q(0)] * (template.nvars + 1)  # the coefficients, then the constant
            for i in block:
                g = template.group_of[i]
                row[-1 if g is None else g] += sum((f * x for f, x in zip(functional, cols[i].entries)), Q(0))
            yield tuple(row[:-1]), row[-1]


def build_system(template: ScalingTemplate, partition: OrderedPartition) -> AffineSystem:
    """Affine system expressing the columns condition of the scaled matrix.

    All scalar variables are required strictly positive.
    """
    equalities = tuple(
        LinearEquality(coeffs, const)
        for coeffs, const in iter_system_equalities(template, partition)
    )
    return AffineSystem(template.nvars, equalities, frozenset(range(template.nvars)))


@dataclass(frozen=True)
class ScalarSet:
    """Solution set of a one-variable scaled feasibility question.

    kind is one of "empty", "finite", "all", "all_except"; `values` carries
    the finite members, `excluded` the removed points of a co-finite set.
    """

    kind: str
    values: tuple[Fraction, ...] = ()
    excluded: tuple[Fraction, ...] = ()

    @staticmethod
    def empty() -> "ScalarSet":
        return ScalarSet("empty")

    @staticmethod
    def finite(values: Sequence[Fraction]) -> "ScalarSet":
        vals = tuple(sorted(set(values)))
        return ScalarSet("finite", values=vals) if vals else ScalarSet.empty()

    @staticmethod
    def all_rationals() -> "ScalarSet":
        return ScalarSet("all")

    @staticmethod
    def all_except(excluded: Sequence[Fraction]) -> "ScalarSet":
        exc = tuple(sorted(set(excluded)))
        return ScalarSet("all_except", excluded=exc) if exc else ScalarSet.all_rationals()

    @property
    def _cofinite(self) -> bool:
        return self.kind in ("all", "all_except")

    def contains(self, value: Fraction) -> bool:
        return value not in self.excluded if self._cofinite else value in self.values

    def union(self, other: "ScalarSet") -> "ScalarSet":
        values = self.values + other.values
        cofinite = [s.excluded for s in (self, other) if s._cofinite]
        if not cofinite:
            return ScalarSet.finite(values)
        # a point stays out only if every co-finite part excludes it and no
        # finite part contains it
        return ScalarSet.all_except(tuple(set.intersection(*map(set, cofinite)) - set(values)))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "values": [str(v) for v in self.values],
            "excluded": [str(v) for v in self.excluded],
        }


def enumerate_feasible_scalars(
    template: ScalingTemplate, partition: OrderedPartition
) -> ScalarSet:
    """Exact, sign-unconstrained solution set of a single-variable template.

    All values for which the partition witnesses the columns condition of
    the scaled matrix: a row a * x + c == 0 with a == 0 != c empties the set,
    the rows with a != 0 must share one root -c / a, and without such rows
    every value is a candidate.  That is exact for every nonzero value; 0
    can shrink spans, so when 0 is a candidate it is re-checked against the
    scaled matrix.  Multi-variable templates are rejected.
    """
    if template.nvars > 1:
        raise ValueError("enumerate_feasible_scalars handles at most one variable")
    system = build_system(template, partition)
    if template.nvars == 0:
        consistent = all(eq.const == 0 for eq in system.equalities)
        return ScalarSet.all_rationals() if consistent else ScalarSet.empty()

    roots = set()
    for eq in system.equalities:
        a, c = eq.coeffs[0], eq.const
        if a == 0 != c:
            return ScalarSet.empty()
        if a:
            roots.add(-c / a)
    if len(roots) > 1:
        return ScalarSet.empty()
    zero = set()
    if roots <= {0} and check_partition(template.scaled_matrix([Q(0)]), partition) is None:
        zero = {Q(0)}
    return ScalarSet.finite(roots - zero) if roots else ScalarSet.all_except(zero)
