"""A NO or UNDECIDED decision makes no Fraction.

Fractions appear only at the API boundary: the input matrices are parsed
into them, and a YES returns its scalars, assembled matrix and certificate
in them.  Everything between runs on integers, so a decision that ends
without a certificate, and the search's positivity check on its own, must
not make a single Fraction.  Each test builds its inputs first and then
counts every Fraction made while the decision runs.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_matrix
from partreg import (
    NO,
    UNDECIDED,
    QMatrix,
    doubly_ipr,
    doubly_kpr,
    is_ipr,
    is_kpr,
    multiply_kpr,
)
from partreg.feasibility import has_positive_solution
from partreg.linalg import EqualityEchelon


@pytest.fixture
def fractions_made(monkeypatch):
    """A one-item list counting the Fractions made from now on.

    The constructor counts every Fraction on Python 3.10 and 3.11; from
    3.12 arithmetic builds its results through _from_coprime_ints, past the
    constructor, so that is counted too where it exists.
    """
    made = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if "_from_coprime_ints" in vars(Fraction):
        coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, numerator, denominator):
            made[0] += 1
            return coprime(numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return made


def made_by(made, call):
    """(call's result, the Fractions it made)."""
    before = made[0]
    result = call()
    return result, made[0] - before


def diag(*d):
    return QMatrix.of([[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)])


def test_the_counter_sees_construction_and_arithmetic(fractions_made):
    a, b = QMatrix.of([[1, 2]]).entries[0]
    assert made_by(fractions_made, lambda: Fraction(3, 4))[1] == 1
    assert made_by(fractions_made, lambda: a / b)[1] >= 1


LADDER_NOS = [
    ("is_kpr", (QMatrix.of([[1] * 7]),), None),
    ("is_kpr", (QMatrix.of([[1] * 8]),), None),
    ("doubly_ipr", (diag(1, 2, 3),), None),
    ("doubly_ipr", (diag(1, 2, 3, 4),), 50_000),
    ("multiply_kpr", ((QMatrix.of([[1, 1, 1]]), QMatrix.of([[1, 2, 5]])),), None),
    ("is_ipr", (QMatrix.of([[1, -1, 0], [0, 1, -1], [-1, 0, 1]]),), None),
]
PROCEDURES = {
    "is_kpr": is_kpr, "multiply_kpr": multiply_kpr, "doubly_kpr": doubly_kpr,
    "doubly_ipr": doubly_ipr, "is_ipr": is_ipr,
}


@pytest.mark.parametrize("procedure, args, cap", LADDER_NOS)
def test_the_benchmark_ladders_nos_make_no_fraction(fractions_made, procedure, args, cap):
    kwargs = {} if cap is None else {"cap": cap}
    decision, made = made_by(fractions_made, lambda: PROCEDURES[procedure](*args, **kwargs))
    assert decision.verdict in ({NO} if cap is None else {NO, UNDECIDED})
    assert made == 0


def _small_inputs(rng, procedure):
    # rational entries, so every view is scaled; diagonals split into parts
    # that share the one scalar
    if procedure == "is_kpr":
        return (random_matrix(rng, rng.randint(1, 2), rng.randint(2, 5)),)
    if procedure == "multiply_kpr":
        return (tuple(random_matrix(rng, 1, rng.randint(1, 2)) for _ in range(rng.randint(2, 3))),)
    if procedure == "doubly_kpr":
        rows = rng.randint(1, 2)
        return random_matrix(rng, rows, rng.randint(1, 2)), random_matrix(rng, rows, rng.randint(1, 2))
    if procedure == "doubly_ipr" and rng.random() < 0.5:
        return (diag(*(Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(rng.randint(2, 3)))),)
    return (random_matrix(rng, rng.randint(1, 2), rng.randint(1, 3)),)


@pytest.mark.parametrize("procedure", sorted(PROCEDURES))
def test_seeded_small_nos_and_undecided_make_no_fraction(fractions_made, procedure):
    rng = random.Random(4301 + sorted(PROCEDURES).index(procedure))
    nos = undecided = 0
    for _ in range(150):
        args = _small_inputs(rng, procedure)
        for cap in (None, 3):
            kwargs = {} if cap is None else {"cap": cap}
            decision, made = made_by(fractions_made, lambda: PROCEDURES[procedure](*args, **kwargs))
            if decision.verdict in (NO, UNDECIDED):
                assert made == 0, (procedure, args, cap, decision.verdict)
                nos += decision.verdict == NO and cap is None
                undecided += decision.verdict == UNDECIDED
    assert nos >= 20 and undecided >= 20, (nos, undecided)


def test_the_positivity_check_makes_no_fraction_in_fourier_motzkin(fractions_made):
    # echelons whose rows share a variable and none of whose rows is
    # one-signed: exactly those the check hands to Fourier-Motzkin
    rng = random.Random(4311)
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        nvars = rng.randint(2, 6)
        echelon = EqualityEchelon(nvars).extend(
            [rng.choice((0, 1, -1, 2, -2, 3)) for _ in range(nvars)] + [rng.randint(-3, 3)]
            for _ in range(rng.randint(2, 4))
        )
        if echelon is None or any(min(row) >= 0 for row in echelon.rows):
            continue
        supports = [{i for i in range(nvars) if row[i]} for row in echelon.rows]
        if sum(map(len, supports)) == len(set().union(*supports)):
            continue
        feasible, made = made_by(fractions_made, lambda: has_positive_solution(echelon))
        assert made == 0, echelon
        outcomes[feasible] += 1
    assert min(outcomes.values()) >= 40, outcomes
