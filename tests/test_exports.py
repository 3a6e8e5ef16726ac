"""The public names of `partreg`: removing one is an API change, so it shows here."""

import types

import partreg

PUBLIC_NAMES = [
    "AffineSystem", "Colouring", "ColumnsConditionCertificate", "DEFAULT_PARTITION_CAP",
    "Decision", "FIXED_ONE", "FarkasWitness", "FirstEntriesMatrix", "IntegerScalarReport",
    "LinearEquality", "NO", "OrderedPartition", "PartitionCapExceeded", "PositiveSolution",
    "Q", "QMatrix", "QVector", "ScalarSet", "ScalingTemplate", "SolutionWitness",
    "UNDECIDED", "WitnessColouring", "YES", "build_system", "check_partition",
    "decide_columns_condition", "doubly_ipr", "doubly_ipr_template", "doubly_kpr",
    "enumerate_bounded_solutions", "enumerate_feasible_scalars",
    "enumerate_ordered_partitions", "feasible_positive", "find_monochromatic_solution",
    "first_entries_from_certificate", "gamma_colour", "integer_b_analysis", "is_ipr",
    "is_ipr_template", "is_kpr", "leading_exponent", "multiply_kpr",
    "multiply_kpr_template", "rational", "residual_functionals", "rref",
    "scalar_union_over_partitions", "search_witness_colouring", "solve_positive",
    "span_membership", "verify_all_colourings", "verify_certificate", "verify_farkas",
    "zero_column_subset_exists",
]


def test_public_names_are_pinned():
    public = sorted(
        name for name in dir(partreg)
        if not name.startswith("_") and not isinstance(getattr(partreg, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES
