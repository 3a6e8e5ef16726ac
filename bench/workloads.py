"""The benchmark's three workloads and their correctness gate.

A workload is a fixed list of queries.  Each query has a timed part, which
calls partreg's public API exactly as a user would, and an untimed check,
which judges the outcome against anchors that do not come from the answer
under test: fixed verdicts, pinned verdict sequences, certificates re-checked
by this file's own arithmetic, and known Schur numbers.

Queries look partreg's functions up by attribute at call time (`pr.is_kpr`,
`cli.main`), so the tracer's wrappers, or a test's, are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import partreg as pr
from partreg import cli

OK, UNDECIDED, WRONG = "ok", "undecided", "wrong"

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

CAPPED_RUNG_CAP = 50_000


@dataclass
class Query:
    name: str
    procedure: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]  # outcome -> (status, detail)


# ------------------------------------------------------------------ anchors


def certificate_holds(rows: list[list[Fraction]], certificate) -> bool:
    """Columns-condition certificate re-checked with plain Fraction arithmetic."""
    ncols = len(rows[0])
    blocks = certificate.partition.blocks
    placed = [i for block in blocks for i in block]
    if sorted(placed) != list(range(ncols)) or len(certificate.witnesses) != len(blocks) - 1:
        return False

    def block_sum(block):
        return [sum((row[i] for i in block), Fraction(0)) for row in rows]

    if any(block_sum(blocks[0])):
        return False
    earlier = set(blocks[0])
    for block, terms in zip(blocks[1:], certificate.witnesses):
        used = [i for i, _ in terms]
        if len(set(used)) != len(used) or not earlier.issuperset(used):
            return False
        combo = [sum((c * row[i] for i, c in terms), Fraction(0)) for row in rows]
        if combo != block_sum(block):
            return False
        earlier.update(block)
    return True


def first_entries_hold(rows: list[list[Fraction]], G: list[list[Fraction]]) -> bool:
    """A @ G == 0 and every row of G starts with 1."""
    if len(G) != len(rows[0]):
        return False
    for row in rows:
        for t in range(len(G[0])):
            if sum((row[i] * G[i][t] for i in range(len(G))), Fraction(0)) != 0:
                return False
    return all(next((x for x in g if x != 0), None) == 1 for g in G)


def assemble(procedure: str, parts: tuple, scalars: dict[str, Fraction]) -> list[list[Fraction]]:
    """The scaled matrix a YES verdict certifies, rebuilt from its template."""
    if procedure == "is_kpr":
        return [list(row) for row in parts[0]]
    if procedure == "doubly_kpr":
        c = scalars["c_2"]
        return [list(a) + [c * x for x in b] for a, b in zip(*parts)]
    A = parts[0]
    u = len(A)
    if procedure == "doubly_ipr":
        b = scalars["b"]
        return [list(A[r]) + [-b if r == k else Fraction(0) for k in range(u)] for r in range(u)]
    if procedure == "is_ipr":
        e = [scalars[f"e_{j + 1}"] for j in range(len(A[0]))]
        return [
            [x * e[j] for j, x in enumerate(A[r])] + [Fraction(-1) if r == k else Fraction(0) for k in range(u)]
            for r in range(u)
        ]
    raise ValueError(f"unknown procedure {procedure!r}")


def check_yes(procedure: str, parts: tuple, decision) -> str | None:
    """Why a YES decision fails its re-check, or None when it holds."""
    scalars = dict(decision.scalars)
    if any(v <= 0 for v in scalars.values()):
        return f"non-positive scalar in {scalars}"
    rows = assemble(procedure, parts, scalars)
    if decision.assembled is None or [list(r) for r in decision.assembled.entries] != rows:
        return "assembled matrix differs from the template at the returned scalars"
    if decision.certificate is None or not certificate_holds(rows, decision.certificate):
        return "certificate fails the independent re-check"
    if not pr.verify_certificate(pr.QMatrix.of(rows), decision.certificate):
        return "verify_certificate rejects the certificate"
    return None


def gamma_colour(x: int) -> tuple[int, int, int]:
    """Start parity and two leading decimal digits of x."""
    digits = str(x)
    return (len(digits) - 1) % 2, int(digits[0]), int(digits[1]) if len(digits) > 1 else 0


def schur_free(table: list[int]) -> bool:
    """No x + y = z with x, y, z <= len(table) all of one colour."""
    n = len(table)
    return not any(
        table[x - 1] == table[y - 1] == table[x + y - 1]
        for x in range(1, n + 1) for y in range(x, n + 1 - x)
    )


# ------------------------------------------------------------------- ladder


def _ones(n):
    return pr.QMatrix.of([[1] * n])


def _diag(*d):
    return pr.QMatrix.of([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))])


LADDER = {
    # name: (procedure, function making the positional arguments, cap or None, verdicts allowed)
    "is_kpr.ones1x7": ("is_kpr", lambda: (_ones(7),), None, {pr.NO}),
    "is_kpr.ones1x8": ("is_kpr", lambda: (_ones(8),), None, {pr.NO}),
    "doubly_ipr.diag123": ("doubly_ipr", lambda: (_diag(1, 2, 3),), None, {pr.NO}),
    "doubly_ipr.diag1234.capped": (
        "doubly_ipr", lambda: (_diag(1, 2, 3, 4),), CAPPED_RUNG_CAP, {pr.NO, pr.UNDECIDED}),
    "multiply_kpr.111_125": (
        "multiply_kpr", lambda: ((pr.QMatrix.of([[1, 1, 1]]), pr.QMatrix.of([[1, 2, 5]])),), None, {pr.NO}),
    "is_ipr.cyclic3": (
        "is_ipr", lambda: (pr.QMatrix.of([[1, -1, 0], [0, 1, -1], [-1, 0, 1]]),), None, {pr.NO}),
    "is_ipr.vdw_image6": (
        "is_ipr", lambda: (pr.QMatrix.of([[1, k] for k in range(6)]),), None, {pr.YES}),
}
UNION_RUNG = "scalar_union.doubly_ipr_2x4"
UNION_MATRIX = [[1, 2, -3, 1], [2, -1, 1, 1]]
UNION_VALUES = (-1, 1, 2, 3)

SMOKE_LADDER = {
    "is_kpr.ones1x5": ("is_kpr", lambda: (_ones(5),), None, {pr.NO}),
    "doubly_ipr.diag12": ("doubly_ipr", lambda: (_diag(1, 2),), None, {pr.NO}),
    "doubly_ipr.diag123.capped": ("doubly_ipr", lambda: (_diag(1, 2, 3),), 100, {pr.NO, pr.UNDECIDED}),
    "is_ipr.vdw_image4": (
        "is_ipr", lambda: (pr.QMatrix.of([[1, k] for k in range(4)]),), None, {pr.YES}),
}
SMOKE_UNION_MATRIX = [[4, -4, 2], [5, -5, 3]]
SMOKE_UNION_VALUES = (-2, Fraction(-2, 5), Fraction(1, 2))


def ladder_caps(smoke: bool = False) -> dict[str, int | None]:
    rungs = SMOKE_LADDER if smoke else LADDER
    return {name: spec[2] for name, spec in rungs.items()}


def _decision_query(name, procedure, args, cap, allowed, parts) -> Query:
    kwargs = {} if cap is None else {"cap": cap}

    def run():
        return getattr(pr, procedure)(*args, **kwargs)

    def check(decision):
        if decision.verdict not in allowed:
            return WRONG, f"verdict {decision.verdict}, expected one of {sorted(allowed)}"
        if decision.verdict == pr.UNDECIDED:
            return UNDECIDED, f"cap {decision.cap}"
        if decision.verdict == pr.YES:
            problem = check_yes(procedure, parts, decision)
            if problem:
                return WRONG, problem
        return OK, decision.verdict

    return Query(name, procedure, run, check)


def _union_query(name, rows, expected) -> Query:
    A = pr.QMatrix.of(rows)
    expected = tuple(sorted(Fraction(v) for v in expected))

    def run():
        return pr.scalar_union_over_partitions(pr.doubly_ipr_template(A))

    def check(scalar_set):
        if scalar_set.kind != "finite" or scalar_set.values != expected:
            return WRONG, f"scalar set {scalar_set.to_json_dict()}, expected {[str(v) for v in expected]}"
        for v in scalar_set.values:
            if v == 0:
                continue
            scaled = [list(row) + [-v if r == k else Fraction(0) for k in range(A.rows)]
                      for r, row in enumerate(A.entries)]
            decision = pr.is_kpr(pr.QMatrix.of(scaled))
            if decision.verdict != pr.YES or not certificate_holds(scaled, decision.certificate):
                return WRONG, f"scalar {v} not confirmed by is_kpr on the scaled template"
        return OK, f"{len(scalar_set.values)} scalars"

    return Query(name, "scalar_union_over_partitions", run, check)


def build_ladder(smoke: bool = False) -> list[Query]:
    queries = []
    for name, (procedure, build, cap, allowed) in (SMOKE_LADDER if smoke else LADDER).items():
        args = build()
        parts = tuple(m.entries for m in (args[0] if procedure == "multiply_kpr" else args))
        queries.append(_decision_query(name, procedure, args, cap, allowed, parts))
    if smoke:
        queries.append(_union_query("scalar_union.doubly_ipr_2x3", SMOKE_UNION_MATRIX, SMOKE_UNION_VALUES))
    else:
        queries.append(_union_query(UNION_RUNG, UNION_MATRIX, UNION_VALUES))
    return queries


# ------------------------------------------------------------------- corpus

# (procedure, shape, count).  Shapes are (rows, cols) of A, or (rows, cols of
# A, cols of B) for doubly_kpr.  Combined columns stay at most 6 for is_kpr
# and at most 4 for the scaled procedures, so most searches stop at an early
# certificate and per-call overhead and certificate build and verify
# dominate.  Counts are fixed per stratum, which keeps the seed-to-seed
# spread of a pass's cost small.  More than half of the queries are cheap
# round trips of well under a millisecond, so the median sits inside that
# dense band rather than on its steep edge; the all-NO 3x6 is_kpr stratum is
# the tail, a cluster of exhaustive searches of similar cost.
CORPUS_STRATA = (
    ("is_kpr", (1, 3), 50), ("is_kpr", (1, 4), 200), ("is_kpr", (1, 5), 40),
    ("is_kpr", (1, 6), 30), ("is_kpr", (2, 4), 80), ("is_kpr", (2, 5), 30),
    ("is_kpr", (3, 5), 10), ("is_kpr", (3, 6), 24),
    ("doubly_ipr", (1, 2), 30), ("doubly_ipr", (1, 3), 60), ("doubly_ipr", (2, 2), 40),
    ("is_ipr", (1, 2), 40), ("is_ipr", (1, 3), 40), ("is_ipr", (2, 2), 40),
    ("doubly_kpr", (1, 1, 2), 60), ("doubly_kpr", (1, 2, 2), 60), ("doubly_kpr", (2, 2, 2), 60),
    ("doubly_kpr", (2, 1, 3), 20),
)
SMOKE_CORPUS_SIZE = 40


def _entry(rng: random.Random) -> Fraction:
    x = rng.randint(-4, 4)
    if rng.random() < 0.1:
        return Fraction(2 * x + (1 if x >= 0 else -1), 2)
    return Fraction(x)


def _random_block(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    """Random matrix with no zero row and no zero column."""
    while True:
        block = [[_entry(rng) for _ in range(cols)] for _ in range(rows)]
        if all(any(r) for r in block) and all(any(r[j] for r in block) for j in range(cols)):
            return block


def _primitive(values: list[Fraction]) -> list[int]:
    """Positive multiple of `values` with coprime integer entries."""
    lcm = math.lcm(*(v.denominator for v in values))
    ints = [int(v * lcm) for v in values]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g else ints


def canonical_key(procedure: str, parts: tuple) -> tuple:
    """Canonical form of a query under the symmetries its verdict has.

    Rows and the columns within each matrix may be permuted for every
    procedure.  The kernel procedures also allow scaling each row by any
    non-zero rational; the image procedures allow scaling A by a positive
    one.  Queries with equal keys ask the same question.
    """
    widths = [len(p[0]) for p in parts]
    rows = [[x for p in parts for x in p[r]] for r in range(len(parts[0]))]
    if procedure in ("is_kpr", "doubly_kpr"):
        # each row up to sign; both signs stay candidates when they sort alike
        variants = []
        for row in rows:
            row = _primitive(row)
            negated = [-x for x in row]
            if sorted(row) == sorted(negated):
                variants.append((row, negated))
            else:
                variants.append((max(row, negated, key=sorted),))
        candidates = itertools.product(*variants)
    else:
        flat = _primitive([x for row in rows for x in row])
        candidates = [[flat[r * widths[0]:(r + 1) * widths[0]] for r in range(len(rows))]]
    best = None
    for signed in candidates:
        for order in itertools.permutations(signed):
            start, blocks = 0, []
            for w in widths:
                blocks.append(tuple(sorted(tuple(row[start + j] for row in order) for j in range(w))))
                start += w
            key = tuple(blocks)
            if best is None or key < best:
                best = key
    return (procedure, best)


@dataclass
class CorpusEntry:
    procedure: str
    parts: tuple  # tuple of row lists, one per matrix argument
    key: tuple


def generate_corpus(seed: int) -> list[CorpusEntry]:
    """The seed's corpus: every stratum filled with distinct queries, then shuffled."""
    rng = random.Random(seed)
    seen: set[tuple] = set()
    corpus: list[CorpusEntry] = []
    for procedure, shape, count in CORPUS_STRATA:
        made = attempts = 0
        while made < count:
            attempts += 1
            if attempts > 200 * count:
                raise RuntimeError(f"stratum {procedure} {shape} ran out of distinct queries")
            rows = shape[0]
            parts = tuple(_random_block(rng, rows, cols) for cols in shape[1:])
            key = canonical_key(procedure, parts)
            if key in seen:
                continue
            seen.add(key)
            corpus.append(CorpusEntry(procedure, parts, key))
            made += 1
    rng.shuffle(corpus)
    return corpus


def corpus_digest(corpus: list[CorpusEntry]) -> str:
    return hashlib.sha256(repr([e.key for e in corpus]).encode()).hexdigest()[:16]


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def pinned_verdicts(seed: int, corpus: list[CorpusEntry]) -> list[str] | None:
    """The shipped verdict sequence for this seed, or None if it is not pinned."""
    pin = load_pins()["seeds"].get(str(seed))
    if pin is None:
        return None
    if pin["digest"] != corpus_digest(corpus):
        raise RuntimeError(f"corpus for seed {seed} no longer matches its pinned digest")
    bits = int(pin["verdicts"], 16)
    return [pr.YES if bits >> i & 1 else pr.NO for i in range(len(corpus))]


def corpus_query(index: int, entry: CorpusEntry, expected: str | None) -> Query:
    procedure, parts = entry.procedure, entry.parts
    args = tuple(pr.QMatrix.of(p) for p in parts)
    shape = "x".join(str(n) for n in [len(parts[0])] + [len(p[0]) for p in parts])

    def run():
        decision = getattr(pr, procedure)(*args)
        if decision.verdict != pr.YES:
            return decision, None, None
        verified = pr.verify_certificate(decision.assembled, decision.certificate)
        if not verified:  # an auditing user stops here
            return decision, verified, None
        first_entries = pr.first_entries_from_certificate(decision.assembled, decision.certificate)
        return decision, verified, first_entries

    def check(outcome):
        decision, verified, first_entries = outcome
        if expected is not None and decision.verdict != expected:
            return WRONG, f"verdict {decision.verdict}, pinned {expected}"
        if decision.verdict == pr.UNDECIDED:
            return UNDECIDED, f"cap {decision.cap}"
        if decision.verdict == pr.YES:
            if not verified:
                return WRONG, "verify_certificate returned False"
            problem = check_yes(procedure, parts, decision)
            if problem:
                return WRONG, problem
            rows = assemble(procedure, parts, dict(decision.scalars))
            if not first_entries_hold(rows, [list(r) for r in first_entries.matrix.entries]):
                return WRONG, "first-entries matrix does not annihilate the assembly"
        return OK, decision.verdict

    return Query(f"corpus[{index}].{procedure}.{shape}", procedure, run, check)


def build_corpus(seed: int, smoke: bool = False) -> tuple[list[Query], dict]:
    corpus = generate_corpus(seed)
    verdicts = pinned_verdicts(seed, corpus)
    if smoke:
        corpus = corpus[:SMOKE_CORPUS_SIZE]
    queries = [
        corpus_query(i, entry, None if verdicts is None else verdicts[i])
        for i, entry in enumerate(corpus)
    ]
    mix: dict[str, int] = {}
    for entry in corpus:
        mix[entry.procedure] = mix.get(entry.procedure, 0) + 1
    info = {"size": len(corpus), "procedures": mix, "pinned": verdicts is not None,
            "digest": corpus_digest(corpus)}
    return queries, info


# ------------------------------------------------------------------- oracle

ORACLE_FILES = {
    "diag12.txt": "1 0\n0 2\n",
    "neg_identity2.txt": "-1 0\n0 -1\n",
    "vdw4ap.txt": "-1 1 0 0 -1\n0 -1 1 0 -1\n0 0 -1 1 -1\n",
    "schur.txt": "1 1 -1\n",
}
VDW_ROWS = [[-1, 1, 0, 0, -1], [0, -1, 1, 0, -1], [0, 0, -1, 1, -1]]


def oracle_commands(smoke: bool = False) -> list[tuple[str, list[str], int, Callable]]:
    """(name, argv, exit code, expectation) per oracle command; files are relative names."""

    def none_found(doc):
        return doc["witness"] is None

    def vdw_found(bound):
        def expect(doc):
            w = doc["witness"]
            if w is None or len(w["vectors"]) != 1:
                return False
            x = w["vectors"][0]
            colours = [tuple(c) for c in w["colours"]]
            witness = pr.SolutionWitness((tuple(x),), tuple(colours))
            return (
                witness.verify([pr.QMatrix.of(VDW_ROWS)], pr.Colouring.gamma(10))
                and all(1 <= v <= bound for v in x)
                and all(sum(a * v for a, v in zip(row, x)) == 0 for row in VDW_ROWS)
                and len({gamma_colour(v) for v in x}) == 1
            )
        return expect

    def sweep_is(value):
        return lambda doc: doc["all_colourings_admit_solution"] is value

    def schur_witness(colours, bound):
        def expect(doc):
            w = doc["witness_colouring"]
            return (
                w is not None and len(w["table"]) == bound
                and set(w["table"]) <= set(range(colours)) and schur_free(w["table"])
            )
        return expect

    def no_witness(doc):
        return doc["witness_colouring"] is None

    diag = ["diag12.txt", "neg_identity2.txt", "--colouring", "startparity:2", "--bound"]
    vdw = ["vdw4ap.txt", "--colouring", "gamma:10", "--bound"]
    if smoke:
        return [
            ("solve.diag12.startparity.2^10", ["solve", *diag, str(2**10)], 1, none_found),
            ("solve.vdw.gamma10.110", ["solve", *vdw, "110"], 0, vdw_found(110)),
            ("sweep.schur.2col.5", ["sweep", "schur.txt", "--colours", "2", "--bound", "5"], 0, sweep_is(True)),
            ("falsify.schur.2col.4", ["falsify", "schur.txt", "--colours", "2", "--bound", "4"], 1,
             schur_witness(2, 4)),
            ("falsify.schur.2col.5", ["falsify", "schur.txt", "--colours", "2", "--bound", "5"], 0, no_witness),
        ]
    return [
        ("solve.diag12.startparity.2^16", ["solve", *diag, str(2**16)], 1, none_found),
        ("solve.diag12.startparity.2^17", ["solve", *diag, str(2**17)], 1, none_found),
        ("solve.vdw.gamma10.2000", ["solve", *vdw, "2000"], 0, vdw_found(2000)),
        ("sweep.schur.3col.13", ["sweep", "schur.txt", "--colours", "3", "--bound", "13"], 1, sweep_is(False)),
        ("sweep.schur.2col.18", ["sweep", "schur.txt", "--colours", "2", "--bound", "18"], 0, sweep_is(True)),
        # S(3) = 13 and S(2) = 4: a witness colouring exists exactly up to S(r)
        ("falsify.schur.3col.13", ["falsify", "schur.txt", "--colours", "3", "--bound", "13"], 1,
         schur_witness(3, 13)),
        ("falsify.schur.3col.14", ["falsify", "schur.txt", "--colours", "3", "--bound", "14"], 0, no_witness),
        ("falsify.schur.2col.4", ["falsify", "schur.txt", "--colours", "2", "--bound", "4"], 1,
         schur_witness(2, 4)),
        ("falsify.schur.2col.5", ["falsify", "schur.txt", "--colours", "2", "--bound", "5"], 0, no_witness),
    ]


def write_oracle_files(workdir: str) -> None:
    for name, text in ORACLE_FILES.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def _oracle_query(name: str, argv: list[str], exit_code: int, expect) -> Query:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(outcome):
        code, text = outcome
        if code != exit_code:
            return WRONG, f"exit code {code}, expected {exit_code}"
        if not expect(json.loads(text)):
            return WRONG, f"output fails its anchor: {text[:200]!r}"
        return OK, f"exit {code}"

    return Query(name, "oracle." + argv[1], run, check)


def build_oracle(workdir: str, smoke: bool = False) -> list[Query]:
    write_oracle_files(workdir)
    queries = []
    for name, argv, exit_code, expect in oracle_commands(smoke):
        argv = ["oracle", *[os.path.join(workdir, a) if a.endswith(".txt") else a for a in argv], "--json"]
        queries.append(_oracle_query(name, argv, exit_code, expect))
    return queries
