import itertools
import random
from fractions import Fraction as F

import pytest

from certificate_reference import reference_check_partition, reference_first_entries
from conftest import (
    brute_force_ordered_partitions,
    four_seven,
    ordered_bell,
    random_matrix,
    random_rational,
    schur,
    schur_image,
    fractional_b_matrix,
    vdw,
)
from partreg import (
    ColumnsConditionCertificate,
    FirstEntriesMatrix,
    OrderedPartition,
    PartitionCapExceeded,
    QMatrix,
    check_partition,
    decide_columns_condition,
    enumerate_ordered_partitions,
    first_entries_from_certificate,
    is_first_entries_sufficient,
    rational,
    verify_certificate,
)


# ---------------------------------------------------------------- enumeration

def test_enumeration_counts_match_ordered_bell():
    for v in (1, 2, 3, 4, 5):
        count = sum(1 for _ in enumerate_ordered_partitions(v))
        assert count == ordered_bell(v)
    assert ordered_bell(3) == 13
    assert ordered_bell(5) == 541


def test_enumeration_matches_brute_force_up_to_four():
    for v in (1, 2, 3, 4):
        ours = [p.blocks for p in enumerate_ordered_partitions(v)]
        assert len(ours) == len(set(ours)), "duplicates in the stream"
        assert set(ours) == brute_force_ordered_partitions(v)


def test_enumeration_order_is_the_documented_one():
    first_six = [p.blocks for p in itertools.islice(enumerate_ordered_partitions(3), 6)]
    assert first_six == [
        ((0, 1, 2),),
        ((0, 1), (2,)),
        ((2,), (0, 1)),
        ((0, 2), (1,)),
        ((1,), (0, 2)),
        ((0,), (1, 2)),
    ]
    # The full order against an independent listing: every restricted-growth
    # string, sorted; its blocks; then each permutation of the blocks in
    # lexicographic order.
    for v in range(1, 7):
        expected = []
        for string in sorted(itertools.product(range(v), repeat=v)):
            if any(b > max(string[:i], default=-1) + 1 for i, b in enumerate(string)):
                continue
            blocks = [tuple(i for i in range(v) if string[i] == b) for b in range(max(string) + 1)]
            expected.extend(itertools.permutations(blocks))
        assert [p.blocks for p in enumerate_ordered_partitions(v)] == expected


def test_cap_raises_only_when_items_remain():
    gen = enumerate_ordered_partitions(3, cap=5)
    for _ in range(5):
        next(gen)
    with pytest.raises(PartitionCapExceeded):
        next(gen)
    # a cap equal to the space size never fires
    assert sum(1 for _ in enumerate_ordered_partitions(3, cap=13)) == 13


def test_ordered_partition_validation():
    with pytest.raises(ValueError):
        OrderedPartition.of([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        OrderedPartition.of([[0, 0, 2], [1]])
    with pytest.raises(ValueError):
        OrderedPartition.of([[0], []])
    with pytest.raises(ValueError):
        OrderedPartition.of([])
    for index in (0.5, 1.0, True, "1"):
        with pytest.raises(ValueError):
            OrderedPartition.of([[index]])
        with pytest.raises(ValueError):
            OrderedPartition.from_one_based([[index]])


# ------------------------------------------------------------ check_partition

def test_check_partition_schur_classical_partition():
    cert = check_partition(schur(), OrderedPartition.from_one_based([[1, 3], [2]]))
    assert cert is not None
    # column 2 = 1 * column 1 + 0 * column 3 under the canonical solve
    assert cert.witnesses == (((0, F(1)), (2, F(0))),)
    assert verify_certificate(schur(), cert)


def test_check_partition_schur_bad_first_block():
    assert check_partition(schur(), OrderedPartition.from_one_based([[1, 2], [3]])) is None


def test_check_partition_vdw_classical_partition():
    cert = check_partition(vdw(), OrderedPartition.from_one_based([[1, 2, 3, 4], [5]]))
    assert cert is not None
    assert verify_certificate(vdw(), cert)
    coeffs = dict(cert.witnesses[0])
    combo = vdw().matmul(QMatrix.of([[coeffs.get(j, 0)] for j in range(5)]))
    assert combo == QMatrix.from_columns([vdw().column(4)])


def test_check_partition_rejects_non_covering_partition():
    with pytest.raises(ValueError):
        check_partition(schur(), OrderedPartition.from_one_based([[1, 2]]))


# --------------------------------------------------------- verify_certificate

def test_verify_rejects_tampered_witness():
    cert = check_partition(schur(), OrderedPartition.from_one_based([[1, 3], [2]]))
    tampered = ColumnsConditionCertificate(
        cert.partition, (((0, F(7)), (2, F(0))),)
    )
    assert not verify_certificate(schur(), tampered)


def test_verify_rejects_foreign_partition():
    cert = check_partition(schur(), OrderedPartition.from_one_based([[1, 3], [2]]))
    moved = ColumnsConditionCertificate(
        OrderedPartition.from_one_based([[1, 2], [3]]), cert.witnesses
    )
    assert not verify_certificate(schur(), moved)


def test_verify_rejects_witness_using_later_columns():
    cert = ColumnsConditionCertificate(
        OrderedPartition.from_one_based([[1, 3], [2]]),
        (((1, F(1)),),),  # references its own block
    )
    assert not verify_certificate(schur(), cert)


def test_verify_assembled_matrix_at_one_half():
    assembled = QMatrix.of([
        [4, -4, 2, F(-1, 2), 0],
        [5, -5, 3, 0, F(-1, 2)],
    ])
    cert = check_partition(
        assembled, OrderedPartition.from_one_based([[1, 2], [3, 5], [4]])
    )
    assert cert is not None
    assert verify_certificate(assembled, cert)


def fraction_certificate_holds(A: QMatrix, certificate) -> bool:
    """Plain Fraction re-check of a certificate, coefficients coerced by rational."""
    try:
        blocks = certificate.partition.blocks
        if not certificate.partition.covers(A.cols):
            return False
        if len(certificate.witnesses) != len(blocks) - 1:
            return False

        def block_sum(block):
            return [sum((row[i] for i in block), F(0)) for row in A.entries]

        if any(block_sum(blocks[0])):
            return False
        earlier = set(blocks[0])
        for block, terms in zip(blocks[1:], certificate.witnesses):
            used = [i for i, _ in terms]
            if len(set(used)) != len(used) or not earlier.issuperset(used):
                return False
            combo = [sum((rational(c) * row[i] for i, c in terms), F(0)) for row in A.entries]
            if combo != block_sum(block):
                return False
            earlier.update(block)
        return True
    except TypeError:  # a float coefficient
        return False


def tampered_certificates(rng, cert: ColumnsConditionCertificate):
    """(label, certificate) variants of a valid certificate with two or more blocks."""
    blocks, witnesses = cert.partition.blocks, cert.witnesses
    t = rng.randrange(len(witnesses))
    terms = list(witnesses[t])

    def with_terms(new_terms):
        changed = witnesses[:t] + (tuple(new_terms),) + witnesses[t + 1:]
        return ColumnsConditionCertificate(cert.partition, changed)

    k = rng.randrange(len(terms))
    i, c = terms[k]
    shifted = terms[:k] + [(i, c + rng.choice((1, -1, F(1, 2))))] + terms[k + 1:]
    yield "shifted", with_terms(shifted)
    a, b = rng.sample(range(len(blocks)), 2)
    swapped = list(blocks)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    yield "swapped", ColumnsConditionCertificate(OrderedPartition(tuple(swapped)), witnesses)
    later = rng.choice([j for block in blocks[t + 1:] for j in block])
    yield "later", with_terms(terms + [(later, F(0))])
    yield "str", with_terms([(j, str(x)) for j, x in terms])
    yield "int", with_terms([(j, x.numerator) for j, x in terms])
    yield "float", with_terms([(j, float(x)) for j, x in terms])


def test_verify_agrees_with_a_fraction_recheck_on_tampered_certificates():
    rng = random.Random(101)
    seen: dict[tuple[str, bool], int] = {}
    checked = 0
    while checked < 150:
        M = random_matrix(rng, rng.randint(1, 2), rng.randint(3, 5), max_num=2, max_den=1)
        M = M.scale(F(rng.randint(1, 3), rng.randint(1, 3)))
        cert = decide_columns_condition(M)
        if not isinstance(cert, ColumnsConditionCertificate) or cert.partition.block_count < 2:
            continue
        checked += 1
        assert verify_certificate(M, cert) and fraction_certificate_holds(M, cert)
        for label, variant in tampered_certificates(rng, cert):
            verdict = verify_certificate(M, variant)
            assert verdict == fraction_certificate_holds(M, variant), label
            if label == "float":
                assert verdict is False
            if label == "str":
                assert verdict is True
            seen[label, verdict] = seen.get((label, verdict), 0) + 1
    for label in ("shifted", "swapped", "later", "int"):
        assert seen.get((label, False), 0) > 0, label


def random_ordered_partition(rng, v: int) -> OrderedPartition:
    labels = [rng.randrange(rng.randint(1, v)) for _ in range(v)]
    blocks = [[i for i in range(v) if labels[i] == b] for b in sorted(set(labels))]
    rng.shuffle(blocks)
    return OrderedPartition.of(blocks)


def certifying_matrix(rng, rows: int, partition: OrderedPartition) -> QMatrix:
    """Random columns, the last of each block set so that its clause holds."""
    cols: dict[int, list[F]] = {}
    earlier: list[int] = []
    for block in partition.blocks:
        weights = {i: rng.choice((0, 1, random_rational(rng))) for i in earlier}
        *free, last = block
        for i in free:
            if earlier and rng.random() < 0.3:  # dependent columns leave free coefficients
                source = rng.choice(earlier)
                cols[i] = [rng.randint(-2, 2) * x for x in cols[source]]
            else:
                cols[i] = [random_rational(rng) for _ in range(rows)]
        cols[last] = [
            sum((weights[i] * cols[i][r] for i in earlier), F(0))
            - sum((cols[i][r] for i in free), F(0))
            for r in range(rows)
        ]
        earlier += block
    v = len(cols)
    return QMatrix.of([[cols[j][r] for j in range(v)] for r in range(rows)])


def test_integer_certificates_match_the_fraction_reference():
    # The integer clause solve gives the reference's canonical witnesses, and
    # first_entries_from_certificate the reference's G.  Every third matrix
    # is random, every third certifies, and every third certifies before one
    # entry outside the first block is shifted, which breaks a later clause.
    rng = random.Random(131)
    certified = refused = refused_later = 0
    for case in range(450):
        rows, v = rng.randint(1, 3), rng.randint(1, 6)
        partition = random_ordered_partition(rng, v)
        if case % 3 == 0:
            M = random_matrix(rng, rows, v, max_num=2, max_den=2)
        else:
            M = certifying_matrix(rng, rows, partition)
        if case % 3 == 2 and partition.block_count > 1:
            grid = [list(row) for row in M.entries]
            j = rng.choice([i for block in partition.blocks[1:] for i in block])
            grid[rng.randrange(rows)][j] += rng.choice((1, -1, F(1, 2)))
            M = QMatrix.of(grid)
        cert = check_partition(M, partition)
        expected = reference_check_partition(M, partition)
        assert cert == expected
        if cert is None:
            refused += 1
            first_sum = [sum((row[i] for i in partition.blocks[0]), F(0)) for row in M.entries]
            refused_later += not any(first_sum)
            continue
        certified += 1
        assert cert.to_json_dict() == expected.to_json_dict()
        assert first_entries_from_certificate(M, cert).matrix == reference_first_entries(M, cert)
    assert certified >= 150 and refused >= 150 and refused_later >= 50


def test_certificate_json_round_trip():
    cert = check_partition(vdw(), OrderedPartition.from_one_based([[1, 2, 3, 4], [5]]))
    again = ColumnsConditionCertificate.from_json_dict(cert.to_json_dict())
    assert again == cert


# ----------------------------------------------------------------- decisions

def test_decide_schur_finds_the_classical_certificate_first():
    cert = decide_columns_condition(schur())
    assert cert.partition == OrderedPartition.from_one_based([[1, 3], [2]])


def test_decide_four_seven():
    cert = decide_columns_condition(four_seven())
    assert isinstance(cert, ColumnsConditionCertificate)
    assert verify_certificate(four_seven(), cert)
    # the classical partition is itself a witness
    classical = check_partition(
        four_seven(), OrderedPartition.from_one_based([[1, 4, 5, 7], [2, 6], [3]])
    )
    assert classical is not None and verify_certificate(four_seven(), classical)


def test_decide_no_zero_sum_subset_is_definitive():
    assert decide_columns_condition(QMatrix.of([[1, 1]])) is None


def test_decide_reports_cap():
    with pytest.raises(PartitionCapExceeded) as exceeded:
        decide_columns_condition(vdw(), cap=1)
    assert exceeded.value.cap == 1


def test_decide_is_sound_on_random_matrices():
    rng = random.Random(23)
    for _ in range(25):
        M = random_matrix(rng, rng.randint(1, 2), rng.randint(1, 4), max_num=2, max_den=1)
        result = decide_columns_condition(M)
        if isinstance(result, ColumnsConditionCertificate):
            assert verify_certificate(M, result)


def test_decide_invariant_under_column_permutation_and_row_scaling():
    rng = random.Random(29)
    # the last matrix is schur_image() transposed
    matrices = [schur(), QMatrix.of([[1, 1]]), QMatrix.of([[1, 0, 1], [0, 1, 1]])]
    for M in matrices:
        baseline = decide_columns_condition(M) is not None
        for _ in range(5):
            perm = list(range(M.cols))
            rng.shuffle(perm)
            permuted = QMatrix.from_columns([M.column(j) for j in perm])
            assert (decide_columns_condition(permuted) is not None) == baseline
            scaled = M.scale(F(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2])))
            assert (decide_columns_condition(scaled) is not None) == baseline


# ------------------------------------------------------------- first entries

def test_first_entries_schur_pinned():
    cert = check_partition(schur(), OrderedPartition.from_one_based([[1, 3], [2]]))
    fe = first_entries_from_certificate(schur(), cert)
    assert fe.matrix == QMatrix.of([[1, -1], [0, 1], [1, 0]])
    assert fe.unital
    assert schur().matmul(fe.matrix).is_zero()


def test_first_entries_single_block_is_all_ones_column():
    M = QMatrix.of([[1, -1]])
    cert = check_partition(M, OrderedPartition.from_one_based([[1, 2]]))
    fe = first_entries_from_certificate(M, cert)
    assert fe.matrix == QMatrix.of([[1], [1]])


def test_first_entries_vdw():
    cert = check_partition(vdw(), OrderedPartition.from_one_based([[1, 2, 3, 4], [5]]))
    fe = first_entries_from_certificate(vdw(), cert)
    assert fe.matrix.rows == 5 and fe.matrix.cols == 2
    assert vdw().matmul(fe.matrix).is_zero()
    assert fe.unital


def test_first_entries_rejects_invalid_certificate():
    cert = check_partition(schur(), OrderedPartition.from_one_based([[1, 3], [2]]))
    tampered = ColumnsConditionCertificate(cert.partition, (((0, F(5)), (2, F(0))),))
    with pytest.raises(ValueError):
        first_entries_from_certificate(schur(), tampered)


def test_first_entries_matrix_shape_validation():
    with pytest.raises(ValueError):
        FirstEntriesMatrix(QMatrix.of([[0, 0]]))
    with pytest.raises(ValueError):
        FirstEntriesMatrix(QMatrix.of([[-1, 1]]))
    with pytest.raises(ValueError):
        FirstEntriesMatrix(QMatrix.of([[1, 0], [2, 1]]))
    assert FirstEntriesMatrix(QMatrix.of([[1, 0], [1, 2]])).unital


def test_glance_condition():
    assert is_first_entries_sufficient(schur_image()) == 1
    assert is_first_entries_sufficient(QMatrix.of([[1, 0], [0, 2]])) is None
    assert is_first_entries_sufficient(QMatrix.of([[0]])) is None
    assert is_first_entries_sufficient(QMatrix.of([[F(1, 2), 5], [0, F(1, 2)]])) == F(1, 2)
