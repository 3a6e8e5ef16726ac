"""Exact decision procedures, certificates and finite colouring oracles for
kernel/image partition regularity of rational matrices."""

from .columns import (
    ColumnsConditionCertificate,
    DEFAULT_PARTITION_CAP,
    FIXED_ONE,
    FirstEntriesMatrix,
    OrderedPartition,
    PartitionCapExceeded,
    ScalingTemplate,
    check_partition,
    decide_columns_condition,
    enumerate_ordered_partitions,
    first_entries_from_certificate,
    verify_certificate,
    zero_column_subset_exists,
)
from .decisions import (
    Decision,
    IntegerScalarReport,
    NO,
    UNDECIDED,
    YES,
    doubly_ipr,
    doubly_ipr_template,
    doubly_kpr,
    integer_b_analysis,
    is_ipr,
    is_ipr_template,
    is_kpr,
    multiply_kpr,
    multiply_kpr_template,
    scalar_union_over_partitions,
)
from .feasibility import (
    AffineSystem,
    FarkasWitness,
    LinearEquality,
    PositiveSolution,
    ScalarSet,
    build_system,
    enumerate_feasible_scalars,
    feasible_positive,
    solve_positive,
    verify_farkas,
)
from .linalg import (
    Q,
    QMatrix,
    QVector,
    rational,
    residual_functionals,
    rref,
    span_membership,
)
from .oracle import (
    Colouring,
    SolutionWitness,
    WitnessColouring,
    enumerate_bounded_solutions,
    find_monochromatic_solution,
    gamma_colour,
    leading_exponent,
    search_witness_colouring,
    verify_all_colourings,
)

__version__ = "0.1.0"
