"""Entanglement certification for continuous-variable Gaussian states.

Everything works on second-order moments: a state is a pair of covariance
blocks (gamma_xx, gamma_pp), optionally with per-element measurement errors,
and a witness is a pair of positive semidefinite matrices (X, P). The package
computes the quantumness bound B(X, P), its partition-restricted variants
B_I(X, P), significance levels of measured violations, and searches for
witnesses certifying (genuine) multipartite entanglement.
"""
from __future__ import annotations

from .bounds import (
    BoundResult,
    Table1Row,
    WitnessPair,
    analytic_biseparable_bound,
    evaluate_G,
    lmi_separability_test,
    rank_one_bound,
    separability_bound,
    symmetric_witness,
    table1_bounds,
)
from .linalg import (
    NotPSD,
    alt_inequality_gap,
    quantum_bound,
    sqrt_psd,
    symplectic_spectrum,
)
from .partitions import (
    Partition,
    PartitionError,
    all_partitions,
    bipartitions,
    free_mask,
    parse_partition,
)
from .states import (
    CVState,
    StateFormatError,
    builtin_state,
    is_physical,
    load_state,
    make_state,
    partial_transpose,
    save_state,
)
from .witness import (
    MissingErrorModel,
    ViolationReport,
    ZeroSigma,
    condition_E,
    confidence,
    genuine_search,
    measurement_sigma,
    optimize_witness,
    random_rank_one_search,
    reports_table,
    reports_to_json,
    violation_score,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "CVState",
    "MissingErrorModel",
    "NotPSD",
    "Partition",
    "PartitionError",
    "StateFormatError",
    "Table1Row",
    "ViolationReport",
    "WitnessPair",
    "ZeroSigma",
    "all_partitions",
    "alt_inequality_gap",
    "analytic_biseparable_bound",
    "bipartitions",
    "builtin_state",
    "condition_E",
    "confidence",
    "evaluate_G",
    "free_mask",
    "genuine_search",
    "is_physical",
    "lmi_separability_test",
    "load_state",
    "make_state",
    "measurement_sigma",
    "optimize_witness",
    "parse_partition",
    "partial_transpose",
    "quantum_bound",
    "random_rank_one_search",
    "rank_one_bound",
    "reports_table",
    "reports_to_json",
    "save_state",
    "separability_bound",
    "sqrt_psd",
    "symmetric_witness",
    "symplectic_spectrum",
    "table1_bounds",
    "violation_score",
    "__version__",
]
