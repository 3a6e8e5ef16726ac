"""Reference positive-solution solver: Fourier-Motzkin in Fraction arithmetic.

This is the solver partreg shipped before its Fourier-Motzkin stages moved to
gcd-normalised integer rows.  It is kept here, outside the package, so that
the differential tests can compare the two: both must agree on feasibility
and give identical assignments, and the integer solver's Farkas multipliers
must be positive multiples of these.
"""

from __future__ import annotations

from fractions import Fraction

from partreg.feasibility import AffineSystem, FarkasWitness, PositiveSolution
from partreg.linalg import EqualityEchelon, Q, integer_row, rational_row


# Internal inequality representation: coeffs over the free variables,
# constant, strictness, and provenance multipliers (lam over positivity
# constraints, mu over original equalities).
_Ineq = tuple[tuple[Fraction, ...], Fraction, bool, tuple[Fraction, ...], tuple[Fraction, ...]]


def _prune(ineqs: list[_Ineq]) -> tuple[list[_Ineq], _Ineq | None]:
    """Drop tautologies and dominated rows; surface constant contradictions.

    Rows are normalised by their first non-zero coefficient's absolute value
    (a positive scaling, so provenance multipliers stay valid); among rows
    with equal coefficients only the tightest constant survives.  Dominance
    never changes feasibility.
    """
    best: dict[tuple[tuple[Fraction, ...], bool], _Ineq] = {}
    order: list[tuple[tuple[Fraction, ...], bool]] = []
    for coeffs, const, strict, lam, mu in ineqs:
        lead = next((c for c in coeffs if c != 0), None)
        if lead is None:
            if const < 0 or (const == 0 and strict):
                return [], (coeffs, const, strict, lam, mu)
            continue  # tautology
        scale = Q(1) / abs(lead)
        if scale != 1:
            coeffs = tuple(scale * c for c in coeffs)
            const = scale * const
            lam = tuple(scale * x for x in lam)
            mu = tuple(scale * x for x in mu)
        key = (coeffs, strict)
        kept = best.get(key)
        if kept is None:
            best[key] = (coeffs, const, strict, lam, mu)
            order.append(key)
        elif const < kept[1]:
            best[key] = (coeffs, const, strict, lam, mu)
    return [best[k] for k in order], None


def reference_solve_positive(
    system: AffineSystem,
) -> tuple[PositiveSolution | None, FarkasWitness | None]:
    """Decide the system exactly; return (solution, None) or (None, witness)."""
    nv = system.nvars
    pos = sorted(system.positivity)
    n_eq = len(system.equalities)

    # --- stage 1: eliminate equalities in the shared echelon kernel ---
    # Equality l carries the unit vector e_l as extra variables, so the middle
    # entries mu of every reduced row satisfy: row == sum(mu_l * equality_l).
    # Clearing a row's denominators scales its unit vector too, so that holds
    # for the integer rows, and for them read back with pivot 1.
    # The unit vectors keep the rows independent, so extend never fails.
    width = nv + n_eq
    echelon = EqualityEchelon(width).extend(
        integer_row(eq.coeffs + tuple(int(i == l) for i in range(n_eq)) + (eq.const,))
        for l, eq in enumerate(system.equalities)
    )
    pivot_rows: dict[int, tuple] = {}  # pivot -> (coeffs, const, mu)
    for p, row in zip(echelon.pivots, echelon.rows):
        row = rational_row(row, p)
        if p < nv:
            pivot_rows[p] = (row[:nv], row[width], row[nv:width])
        elif row[width]:
            return None, FarkasWitness((Q(0),) * len(pos), row[nv:width])

    free_vars = [i for i in range(nv) if i not in pivot_rows]
    nf = len(free_vars)

    # --- stage 2: restate each positivity constraint over the free variables ---
    ineqs: list[_Ineq] = []
    for j, p in enumerate(pos):
        lam = tuple(Q(1) if i == j else Q(0) for i in range(len(pos)))
        if p in pivot_rows:
            coeffs, const, mu = pivot_rows[p]
            # x_p = -const - sum(coeffs_f * x_f) on the solution set
            fcoeffs = tuple(-coeffs[f] for f in free_vars)
            ineqs.append((fcoeffs, -const, True, lam, tuple(-m for m in mu)))
        else:
            fcoeffs = tuple(Q(1) if f == p else Q(0) for f in free_vars)
            ineqs.append((fcoeffs, Q(0), True, lam, (Q(0),) * n_eq))

    ineqs, contradiction = _prune(ineqs)
    if contradiction is not None:
        return None, FarkasWitness(contradiction[3], contradiction[4])

    # --- stage 3: Fourier-Motzkin over the free variables ---
    snapshots: list[tuple[int, list[_Ineq], list[_Ineq]]] = []
    while True:
        occurring = [
            k for k in range(nf) if any(row[0][k] != 0 for row in ineqs)
        ]
        if not occurring:
            break
        # classic heuristic: eliminate the variable minimising lower*upper
        def cost(k: int, rows: list[_Ineq] = ineqs) -> tuple[int, int]:
            lo = sum(1 for row in rows if row[0][k] > 0)
            hi = sum(1 for row in rows if row[0][k] < 0)
            return (lo * hi, k)

        k = min(occurring, key=cost)
        lowers = [row for row in ineqs if row[0][k] > 0]
        uppers = [row for row in ineqs if row[0][k] < 0]
        passthrough = [row for row in ineqs if row[0][k] == 0]
        snapshots.append((k, lowers, uppers))
        combined: list[_Ineq] = list(passthrough)
        for lo_row in lowers:
            a = lo_row[0][k]
            for up_row in uppers:
                b = -up_row[0][k]
                coeffs = tuple(
                    b * x + a * y for x, y in zip(lo_row[0], up_row[0])
                )
                const = b * lo_row[1] + a * up_row[1]
                strict = lo_row[2] or up_row[2]
                lam = tuple(b * x + a * y for x, y in zip(lo_row[3], up_row[3]))
                mu = tuple(b * x + a * y for x, y in zip(lo_row[4], up_row[4]))
                combined.append((coeffs, const, strict, lam, mu))
        ineqs, contradiction = _prune(combined)
        if contradiction is not None:
            return None, FarkasWitness(contradiction[3], contradiction[4])

    # --- stage 4: back-substitute a concrete point, preferring the value 1 ---
    # A variable that left every row before its own elimination is
    # unconstrained by the projection, so 1 is as good as any value for it.
    free_values: dict[int, Fraction] = {f: Q(1) for f in free_vars}

    def evaluate(row: _Ineq, skip: int) -> Fraction:
        coeffs, const, _, _, _ = row
        total = const
        for k, c in enumerate(coeffs):
            if k != skip and c != 0:
                total += c * free_values[free_vars[k]]
        return total

    for k, lowers, uppers in reversed(snapshots):
        lo_bound: tuple[Fraction, bool] | None = None
        for row in lowers:
            bound = -evaluate(row, k) / row[0][k]
            if lo_bound is None or bound > lo_bound[0] or (
                bound == lo_bound[0] and row[2]
            ):
                lo_bound = (bound, row[2])
        hi_bound: tuple[Fraction, bool] | None = None
        for row in uppers:
            bound = -evaluate(row, k) / row[0][k]
            if hi_bound is None or bound < hi_bound[0] or (
                bound == hi_bound[0] and row[2]
            ):
                hi_bound = (bound, row[2])
        one = Q(1)
        ok_lo = lo_bound is None or one > lo_bound[0] or (one == lo_bound[0] and not lo_bound[1])
        ok_hi = hi_bound is None or one < hi_bound[0] or (one == hi_bound[0] and not hi_bound[1])
        if ok_lo and ok_hi:
            value = one
        elif lo_bound is not None and hi_bound is not None:
            value = (
                lo_bound[0]
                if lo_bound[0] == hi_bound[0]
                else (lo_bound[0] + hi_bound[0]) / 2
            )
        elif lo_bound is not None:
            value = lo_bound[0] + 1
        else:
            assert hi_bound is not None
            value = hi_bound[0] - 1
        free_values[free_vars[k]] = value

    assignment = [Q(0)] * nv
    for f in free_vars:
        assignment[f] = free_values[f]
    for p, (coeffs, const, _mu) in pivot_rows.items():
        assignment[p] = -const - sum(
            (coeffs[f] * free_values[f] for f in free_vars), Q(0)
        )

    for eq in system.equalities:
        total = sum((c * a for c, a in zip(eq.coeffs, assignment)), eq.const)
        assert total == 0, "back-substitution broke an equality"
    assert all(assignment[p] > 0 for p in pos), "back-substitution lost positivity"
    return PositiveSolution(tuple(assignment)), None
