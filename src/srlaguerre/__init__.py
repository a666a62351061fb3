"""Weighted bicolored Motzkin paths ("Laguerre histories"), a
reflection-like involution on them, the classical bijections linking them
to permutations, and the statistic identities these maps transport."""

from .multiset import (
    ContainmentViolation,
    IntMultiset,
    OutOfRange,
    kappa,
)
from .histories import (
    HistoryStatRecord,
    LaguerreHistory,
    PathBelowAxis,
    PathNotClosed,
    StepType,
    WeightOutOfBounds,
    critical_step,
    enumerate_histories,
    history_statistics,
)
from .involution import (
    XI_TABLE,
    XiTableRow,
    check_against_table,
    verify_xi_contract,
    xi,
    xi_table_coverage,
)
from .perm_stats import (
    CyclicStatRecord,
    LinearStatRecord,
    MAHONIAN_NAMES,
    NotAPermutation,
    PatternSyntaxError,
    Permutation,
    ShiftedStatRecord,
    UnknownStatistic,
    VincularPattern,
    avoiders,
    classical_avoids,
    coordinate_counts,
    cyclic_family,
    iter_perms,
    linear_family,
    mahonian,
    parse_vincular,
    pattern_multisets,
    shifted_family,
    side_numbers,
    statistic,
    trivial_bijection,
    vincular_count,
)
from .mfs_action import (
    StarredClasses,
    coordinate_counts_zero_boundary,
    mfs_full,
    mfs_phi_x,
    pattern_multisets_zero_boundary,
    starred_classes,
    x_factorization,
)
from .bijections import (
    PlacementImpossible,
    SlotIndexOutOfRange,
    conjugated_map,
    kreweras,
    phi_csz,
    phi_fv,
    phi_fv_inv,
    phi_fz,
    phi_fz_inv,
    phi_yzl,
    phi_yzl_inv,
    theta,
)
from .genfun import (
    A_VARIABLES,
    MultiPoly,
    NegativePDegree,
    a_polynomial,
    jacobi_moments,
    joint_distribution,
    qt_catalan,
    specialize,
)
from .claims import (
    CLAIM_REGISTRY,
    ClaimOutcome,
    ClaimSpec,
    UnknownClaim,
    claim_ids,
    get_claim,
    run_claim,
)

__version__ = "0.1.0"
