import random
from fractions import Fraction as F

import pytest

from conftest import diag12, schur, fractional_b_matrix
from fm_reference import reference_solve_positive
from partreg import (
    AffineSystem,
    FarkasWitness,
    LinearEquality,
    OrderedPartition,
    PartitionCapExceeded,
    QMatrix,
    QVector,
    ScalarSet,
    ScalingTemplate,
    build_system,
    check_partition,
    doubly_ipr_template,
    enumerate_feasible_scalars,
    enumerate_ordered_partitions,
    feasible_positive,
    scalar_union_over_partitions,
    solve_positive,
    verify_farkas,
)
from partreg.feasibility import has_positive_solution, solve_positive_echelon
from partreg.linalg import EqualityEchelon


def one_var_template():
    """Columns (1), (1), (-1) with the last one under a single scalar."""
    return ScalingTemplate(QMatrix.of([[1, 1, -1]]), (None, None, 0), 1)


def test_template_validation():
    with pytest.raises(ValueError):
        ScalingTemplate(QMatrix.of([[1]]), (1,), 1)  # variable 0 unused
    with pytest.raises(ValueError):  # ragged columns
        ragged = [QVector.of([1]), QVector.of([1, 2])]
        ScalingTemplate(QMatrix.from_columns(ragged), (None, None), 0)


def test_build_system_single_equality():
    system = build_system(one_var_template(), OrderedPartition.of([[0, 1, 2]]))
    assert system.equalities == (LinearEquality((F(-1),), F(2)),)
    assert system.positivity == frozenset({0})
    solution = feasible_positive(system)
    assert solution.assignment == (F(2),)


def test_build_system_counterexample_template_pins_one_half():
    template = doubly_ipr_template(fractional_b_matrix())
    partition = OrderedPartition.from_one_based([[1, 2], [3, 5], [4]])
    solution = feasible_positive(build_system(template, partition))
    assert solution.assignment == (F(1, 2),)


def test_feasible_positive_immediate_equation():
    system = AffineSystem(1, (LinearEquality((F(-4),), F(2)),), frozenset({0}))
    assert feasible_positive(system).assignment == (F(1, 2),)


def test_feasible_positive_positive_sum_cannot_vanish():
    system = AffineSystem(
        2, (LinearEquality((F(1), F(1)), F(0)),), frozenset({0, 1})
    )
    solution, witness = solve_positive(system)
    assert solution is None
    assert witness is not None and verify_farkas(system, witness)


def test_farkas_witness_for_inconsistent_equalities():
    system = AffineSystem(
        1,
        (LinearEquality((F(1),), F(0)), LinearEquality((F(1),), F(-1))),
        frozenset({0}),
    )
    solution, witness = solve_positive(system)
    assert solution is None
    assert witness is not None and verify_farkas(system, witness)


def test_verify_farkas_rejects_malformed_witnesses():
    # x_0 + x_1 = 0 with both positive: lam = (1, 1), mu = (-1,) derives 0 > 0
    system = AffineSystem(
        2, (LinearEquality((F(1), F(1)), F(0)),), frozenset({0, 1})
    )
    assert verify_farkas(system, FarkasWitness((F(1), F(1)), (F(-1),)))
    assert not verify_farkas(system, FarkasWitness((F(1), F(1), F(0)), (F(-1),)))
    assert not verify_farkas(system, FarkasWitness((F(1), F(1)), (F(-1), F(5))))
    # the coefficients do not cancel
    assert not verify_farkas(system, FarkasWitness((F(1), F(1)), (F(0),)))


def test_verify_farkas_rejects_a_negative_inequality_multiplier():
    # x_0 = 1 is feasible; lam = -1, mu = 1 would derive -1 == 0
    system = AffineSystem(1, (LinearEquality((F(1),), F(-1)),), frozenset({0}))
    assert not verify_farkas(system, FarkasWitness((F(-1),), (F(1),)))


def test_unconstrained_variable_defaults_to_one():
    system = AffineSystem(1, (), frozenset({0}))
    assert feasible_positive(system).assignment == (F(1),)


def test_homogeneous_solutions_scale():
    system = AffineSystem(
        2, (LinearEquality((F(1), F(-1)), F(0)),), frozenset({0, 1})
    )
    solution = feasible_positive(system)
    assert solution is not None
    x = [v * F(7, 3) for v in solution.assignment]
    for eq in system.equalities:
        assert sum(c * v for c, v in zip(eq.coeffs, x)) + eq.const == 0
    assert all(v > 0 for v in x)


def test_variable_dropped_by_fourier_motzkin_is_unconstrained():
    # x0 = x1 - x2, so the only inequality is x1 - x2 > 0; eliminating x1
    # drops it (no upper bound), x2 is never eliminated and 1 must do for it
    system = AffineSystem(3, (LinearEquality((F(-2), F(2), F(-2)), F(0)),), frozenset({0}))
    solution, witness = solve_positive(system)
    assert witness is None
    assert solution.assignment == (F(1), F(2), F(1))


def test_random_systems_with_partial_positivity_are_answered():
    rng = random.Random(71)
    solved = refuted = 0
    for _ in range(300):
        nvars = rng.randint(1, 4)
        equalities = tuple(
            LinearEquality(
                tuple(F(rng.randint(-2, 2)) for _ in range(nvars)), F(rng.randint(-2, 2))
            )
            for _ in range(rng.randint(0, 3))
        )
        positivity = frozenset(v for v in range(nvars) if rng.random() < 0.5)
        system = AffineSystem(nvars, equalities, positivity)
        solution, witness = solve_positive(system)
        if solution is not None:
            x = solution.assignment
            for eq in equalities:
                assert sum(c * v for c, v in zip(eq.coeffs, x)) + eq.const == 0
            assert all(x[v] > 0 for v in positivity)
            solved += 1
        else:
            assert witness is not None and verify_farkas(system, witness)
            refuted += 1
    assert solved > 50 and refuted > 50


def test_integer_fourier_motzkin_matches_the_fraction_reference():
    # Rows scaled to gcd-normalised integers are positive multiples of the
    # reference's rows, so every bound and hence every assignment is the
    # same, and every Farkas witness is a positive multiple of the reference's.
    rng = random.Random(83)
    solved = refuted = 0
    for _ in range(500):
        nvars = rng.randint(1, 5)
        equalities = tuple(
            LinearEquality(
                tuple(F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(nvars)),
                F(rng.randint(-3, 3), rng.choice((1, 2))),
            )
            for _ in range(rng.randint(0, 3))
        )
        positivity = frozenset(v for v in range(nvars) if rng.random() < 0.7)
        system = AffineSystem(nvars, equalities, positivity)
        solution, witness = solve_positive(system)
        expected, expected_witness = reference_solve_positive(system)
        assert (solution is None) == (expected is None)
        if solution is not None:
            assert solution.assignment == expected.assignment
            assert all(type(x) is F for x in solution.assignment)
            solved += 1
            continue
        assert verify_farkas(system, witness) and verify_farkas(system, expected_witness)
        got = witness.ineq_multipliers + witness.eq_multipliers
        want = expected_witness.ineq_multipliers + expected_witness.eq_multipliers
        ratio = next(x / y for x, y in zip(got, want) if y)
        assert ratio > 0 and got == tuple(ratio * y for y in want)
        refuted += 1
    assert solved >= 100 and refuted >= 100


def test_feasibility_invariant_under_positive_constant_scaling():
    rng = random.Random(41)
    for _ in range(40):
        nvars = rng.randint(1, 2)
        eqs = tuple(
            LinearEquality(
                tuple(F(rng.randint(-3, 3)) for _ in range(nvars)),
                F(rng.randint(-4, 4)),
            )
            for _ in range(rng.randint(1, 3))
        )
        system = AffineSystem(nvars, eqs, frozenset(range(nvars)))
        scaled = AffineSystem(
            nvars,
            tuple(
                LinearEquality(tuple(F(3, 2) * c for c in eq.coeffs), F(3, 2) * eq.const)
                for eq in eqs
            ),
            frozenset(range(nvars)),
        )
        assert (feasible_positive(system) is None) == (feasible_positive(scaled) is None)


def test_random_systems_solution_or_witness():
    rng = random.Random(43)
    for _ in range(120):
        nvars = rng.randint(1, 3)
        eqs = tuple(
            LinearEquality(
                tuple(F(rng.randint(-3, 3)) for _ in range(nvars)),
                F(rng.randint(-5, 5)),
            )
            for _ in range(rng.randint(0, 3))
        )
        system = AffineSystem(nvars, eqs, frozenset(range(nvars)))
        solution, witness = solve_positive(system)
        if solution is not None:
            assert witness is None
            assert all(v > 0 for v in solution.assignment)
            for eq in eqs:
                total = sum(c * v for c, v in zip(eq.coeffs, solution.assignment))
                assert total + eq.const == 0
        else:
            assert witness is not None and verify_farkas(system, witness)


def random_equality(rng, nvars):
    return LinearEquality(
        tuple(F(rng.randint(-3, 3)) for _ in range(nvars)), F(rng.randint(-5, 5))
    )


def combine(a, x, b, y):
    return LinearEquality(
        tuple(a * p + b * q for p, q in zip(x.coeffs, y.coeffs)), a * x.const + b * y.const
    )


def test_solve_positive_depends_only_on_the_equality_row_space():
    # duplicated, permuted or dependent equalities leave the assignment as it is
    rng = random.Random(53)
    solved = 0
    for _ in range(120):
        nvars = rng.randint(1, 3)
        eqs = [random_equality(rng, nvars) for _ in range(rng.randint(1, 3))]
        positivity = frozenset(range(nvars))
        solution = feasible_positive(AffineSystem(nvars, tuple(eqs), positivity))
        shuffled = eqs[:]
        rng.shuffle(shuffled)
        dependent = eqs + [combine(F(rng.randint(-2, 2)), rng.choice(eqs), F(1, 2), rng.choice(eqs))]
        for variant in (eqs + eqs, shuffled, dependent):
            system = AffineSystem(nvars, tuple(variant), positivity)
            got, witness = solve_positive(system)
            if solution is None:
                assert got is None and verify_farkas(system, witness)
            else:
                assert got.assignment == solution.assignment
        solved += solution is not None
    assert solved > 20


def test_contradictory_stacked_systems_carry_an_equality_witness():
    rng = random.Random(59)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        eqs = [random_equality(rng, nvars) for _ in range(rng.randint(1, 3))]
        clash = rng.choice(eqs)
        shifted = LinearEquality(clash.coeffs, clash.const + rng.choice((-1, 1, F(1, 2))))
        stacked = eqs + [shifted]
        rng.shuffle(stacked)
        system = AffineSystem(nvars, tuple(stacked), frozenset(range(nvars)))
        solution, witness = solve_positive(system)
        assert solution is None
        assert verify_farkas(system, witness)
        assert not any(witness.ineq_multipliers)  # refuted by the equalities alone


def test_positivity_check_matches_the_positive_solver():
    # Random consistent echelons, classed as the check reads them: a row
    # with no negative entry (the constant 0 included), rows on disjoint
    # variables, or rows that share a variable, which go to Fourier-Motzkin.
    rng = random.Random(2401)
    seen = {"signs at constant 0": 0, "signs": 0, "disjoint": 0, "shared, yes": 0, "shared, no": 0}
    for _ in range(3000):
        nvars = rng.randint(1, 4)
        echelon = EqualityEchelon(nvars).extend(
            [rng.choice((0, 0, 1, -1, 2, -2, 3, -3)) for _ in range(nvars)] + [rng.randint(-3, 3)]
            for _ in range(rng.randint(1, 3))
        )
        if echelon is None:
            continue
        expected = solve_positive_echelon(echelon, nvars, range(nvars))[0] is not None
        assert has_positive_solution(echelon) == expected, echelon
        signed = [row for row in echelon.rows if min(row) >= 0]
        supports = [{i for i in range(nvars) if row[i]} for row in echelon.rows]
        if signed:
            seen["signs at constant 0" if any(row[-1] == 0 for row in signed) else "signs"] += 1
        elif sum(map(len, supports)) == len(set().union(*supports)):
            seen["disjoint"] += 1
        else:
            seen["shared, yes" if expected else "shared, no"] += 1
    assert min(seen.values()) >= 40, seen


def test_projection_matches_the_positive_solver_and_the_fraction_reference():
    # feasibility._project, the positivity check's Fourier-Motzkin, against
    # solve_positive_echelon and the Fraction solver of fm_reference on
    # random consistent echelons of up to 7 variables, under full and
    # partial positivity: one verdict, and the solver's provenance on a NO.
    from partreg import feasibility

    rng = random.Random(4302)
    seen = {(verdict, size): 0 for verdict in ("yes", "no") for size in ("1-4", "5-7")}
    for _ in range(1500):
        nvars = rng.randint(1, 7)
        echelon = EqualityEchelon(nvars).extend(
            [rng.choice((0, 0, 1, -1, 2, -2, 3, -3)) for _ in range(nvars)] + [rng.randint(-3, 3)]
            for _ in range(rng.randint(1, min(nvars, 4)))
        )
        if echelon is None:
            continue
        positivity = [v for v in range(nvars) if rng.random() < 0.8]
        projection, provenance = feasibility._project(echelon, nvars, positivity)
        solution, solver_provenance = solve_positive_echelon(echelon, nvars, positivity)
        system = AffineSystem(
            nvars,
            tuple(LinearEquality(tuple(map(F, row[:nvars])), F(row[nvars])) for row in echelon.rows),
            frozenset(positivity),
        )
        expected, _ = reference_solve_positive(system)
        assert (projection is None) == (solution is None) == (expected is None), echelon
        assert provenance == solver_provenance, echelon
        seen["no" if projection is None else "yes", "1-4" if nvars <= 4 else "5-7"] += 1
    assert min(seen.values()) >= 40, seen


def _stage4_branch(lo, hi):
    # the rule of feasibility._pick, read in Fractions from its (n, m) ends
    lo, hi = (None if end is None else F(*end) for end in (lo, hi))
    if (lo is None or lo < 1) and (hi is None or 1 < hi):
        return "one"
    return "lo + 1" if hi is None else "hi - 1" if lo is None else "midpoint"


def test_integer_back_substitution_matches_the_fraction_reference(monkeypatch):
    # solve_positive_echelon on random consistent reduced echelons against
    # the Fraction solver on the same equalities: the same point, as
    # Fractions.  Partial positivity leaves some variables with upper bounds
    # only, and every branch of the value rule is taken.
    from partreg import feasibility

    seen = {"one": 0, "lo + 1": 0, "hi - 1": 0, "midpoint": 0}
    pick = feasibility._pick

    def recording(lo, hi):
        seen[_stage4_branch(lo, hi)] += 1
        return pick(lo, hi)

    monkeypatch.setattr(feasibility, "_pick", recording)
    rng = random.Random(3801)
    solved = 0
    for _ in range(1500):
        nvars = rng.randint(1, 4)
        echelon = EqualityEchelon(nvars).extend(
            [rng.choice((0, 1, -1, 2, -2, 3, -3)) for _ in range(nvars)] + [rng.randint(-4, 4)]
            for _ in range(rng.randint(0, 2))
        )
        if echelon is None:
            continue
        positivity = [v for v in range(nvars) if rng.random() < 0.7]
        solution, _ = solve_positive_echelon(echelon, nvars, positivity)
        system = AffineSystem(
            nvars,
            tuple(LinearEquality(tuple(map(F, row[:nvars])), F(row[nvars])) for row in echelon.rows),
            frozenset(positivity),
        )
        expected, _ = reference_solve_positive(system)
        assert (solution is None) == (expected is None), echelon
        if solution is not None:
            assert solution.assignment == expected.assignment, echelon
            assert all(type(x) is F for x in solution.assignment)
            solved += 1
    assert solved >= 300 and min(seen.values()) >= 20, (solved, seen)


# ------------------------------------------------------------- scalar values

def test_enumerate_feasible_scalars_requires_single_variable():
    template = ScalingTemplate(QMatrix.of([[1, 1]]), (0, 1), 2)
    with pytest.raises(ValueError):
        enumerate_feasible_scalars(template, OrderedPartition.of([[0, 1]]))
    with pytest.raises(ValueError):
        scalar_union_over_partitions(template)


def test_scalar_set_for_classical_partition():
    template = doubly_ipr_template(fractional_b_matrix())
    result = enumerate_feasible_scalars(
        template, OrderedPartition.from_one_based([[1, 2], [3, 5], [4]])
    )
    assert result == ScalarSet.finite((F(1, 2),))


def test_scalar_set_negative_two_partition():
    template = doubly_ipr_template(fractional_b_matrix())
    result = enumerate_feasible_scalars(
        template, OrderedPartition.from_one_based([[2, 3, 4, 5], [1]])
    )
    assert result == ScalarSet.finite((F(-2),))


def test_scalar_zero_candidate_is_rechecked_against_the_matrix():
    # the affine relaxation admits 0 here, the direct certificate check does not:
    # at 0 the scaled columns collapse and later blocks lose their span
    template = doubly_ipr_template(fractional_b_matrix())
    partition = OrderedPartition.from_one_based([[4], [5], [1, 2, 3]])
    assert enumerate_feasible_scalars(template, partition) == ScalarSet.empty()


def test_scalar_set_without_variables_is_vacuous():
    template = ScalingTemplate(schur(), (None, None, None), 0)
    assert enumerate_feasible_scalars(
        template, OrderedPartition.from_one_based([[1, 3], [2]])
    ) == ScalarSet.all_rationals()
    assert enumerate_feasible_scalars(
        template, OrderedPartition.from_one_based([[1, 2], [3]])
    ) == ScalarSet.empty()


def test_scalar_union_reproduces_the_counterexample_matrix():
    # Exact union from the closure search (the cross-check below walks all
    # 541 ordered partitions).  Besides 1/2 and -2, the partition
    # {1,2} | {3,4} | {5} admits -2/5:
    # (2,3) + (2/5,0) = (3/5) * (4,5).  None of the three is a positive
    # integer, which is the property the matrix exists to demonstrate.
    union = scalar_union_over_partitions(doubly_ipr_template(fractional_b_matrix()))
    assert union == ScalarSet.finite((F(-2), F(-2, 5), F(1, 2)))
    assert not any(v > 0 and v.denominator == 1 for v in union.values)


def test_scalar_union_direct_certificate_cross_check():
    # independent of the affine machinery: substitute candidate values into
    # the assembled matrix and run the plain certificate check
    values = [F(-2), F(-2, 5), F(1, 2)]
    for b in values:
        assembled = QMatrix.of([
            [4, -4, 2, -b, 0],
            [5, -5, 3, 0, -b],
        ])
        assert any(
            check_partition(assembled, P) is not None
            for P in enumerate_ordered_partitions(5)
        )
    for b in (F(1), F(2), F(0), F(-1, 2)):
        assembled = QMatrix.of([
            [4, -4, 2, -b, 0],
            [5, -5, 3, 0, -b],
        ])
        assert not any(
            check_partition(assembled, P) is not None
            for P in enumerate_ordered_partitions(5)
        )


def test_scalar_union_reports_its_cap():
    with pytest.raises(PartitionCapExceeded):
        scalar_union_over_partitions(doubly_ipr_template(fractional_b_matrix()), cap=1)


def test_scalar_union_searches_draw_on_one_cap():
    # the non-zero search examines 67 candidate blocks; the value 0 is
    # decided on the fixed columns A alone, 15 blocks, so the union needs a
    # cap of 67 + 15
    template = doubly_ipr_template(QMatrix.of([[1, 2, -3, 1], [2, -1, 1, 1]]))
    for cap in (67, 81):
        with pytest.raises(PartitionCapExceeded):
            scalar_union_over_partitions(template, cap=cap)
    assert scalar_union_over_partitions(template, cap=82) == ScalarSet.finite((-1, 1, 2, 3))


def test_scalar_union_diagonal_matrix_is_empty():
    union = scalar_union_over_partitions(doubly_ipr_template(diag12()))
    assert union == ScalarSet.empty()


def test_scalar_set_union_algebra():
    fin = ScalarSet.finite((F(1),))
    assert fin.union(ScalarSet.finite((F(2),))) == ScalarSet.finite((F(1), F(2)))
    assert fin.union(ScalarSet.empty()) == fin
    assert fin.union(ScalarSet.all_rationals()) == ScalarSet.all_rationals()
    holed = ScalarSet.all_except((F(0), F(1)))
    assert holed.union(fin) == ScalarSet.all_except((F(0),))
    assert holed.union(ScalarSet.all_except((F(1),))) == ScalarSet.all_except((F(1),))
    assert holed.contains(F(5)) and not holed.contains(F(0))


# ---------------------------------------------------------------- round trip

def test_positive_solutions_round_trip_through_the_certificate_check():
    rng = random.Random(47)
    checked = 0
    for _ in range(60):
        u = rng.randint(1, 2)
        ncols = rng.randint(2, 4)
        nvars = rng.randint(1, 2)
        groups = []
        for j in range(ncols):
            groups.append(rng.choice([None] + list(range(nvars))))
        for v in range(nvars):  # ensure every variable is used
            if v not in groups:
                groups[rng.randrange(ncols)] = v
        used = sorted({g for g in groups if g is not None})
        remap = {g: i for i, g in enumerate(used)}
        groups = [None if g is None else remap[g] for g in groups]
        template = ScalingTemplate(
            QMatrix.from_columns([QVector.of([rng.randint(-3, 3) for _ in range(u)]) for _ in range(ncols)]),
            tuple(groups),
            len(used),
        )
        for partition in enumerate_ordered_partitions(ncols):
            solution = feasible_positive(build_system(template, partition))
            if solution is not None:
                scaled = template.scaled_matrix(solution.assignment)
                assert check_partition(scaled, partition) is not None
                checked += 1
    assert checked > 20
