"""Differentially-private continual releases over changelog-backed databases.

The package splits along the pipeline: ``changelog`` holds the dynamic-
database data model, ``mechanisms`` the exact linear-query change and
Laplace noise, ``accounting`` the privacy-loss algebra and release
bounds, ``engines`` the disjoint / sliding-window / hierarchical release
runners, ``randomized_response`` the local-DP answer-histogram
releases, and ``oracles`` + ``verification`` the brute-force checks
behind ``dpcr verify``.
"""

from .accounting import (
    Advanced,
    CompositionStrategy,
    HdcrParams,
    Naive,
    PrivacyLoss,
    ReleaseSchedule,
    SwcrParams,
    compose_fold,
    dcr_folds,
    hdcr_folds,
    local_folds,
    most_span,
    span_folds,
    swcr_folds,
)
from .changelog import (
    AtMostK,
    Changelog,
    ConsistencyError,
    DuplicateEntryError,
    Hybrid,
    Mutation,
    MutationConstraint,
    TimeBounded,
    TimeRangeFilter,
    adjacent_changelog,
    apply_mutations,
    delete,
    dump_changelog,
    insert,
    load_changelog,
    modify,
    snapshot_at,
    validate_constraint,
    without_entry,
)
from .engines import (
    HdcrTree,
    RangeTooWideError,
    ReleaseRecord,
    ReleaseResult,
    UnsupportedConstraintError,
    VarianceComparison,
    aggregate,
    build_hdcr,
    compare_hdcr_swcr,
    cover_range,
    derive_swcr_from_hdcr,
    run_dcr,
    run_hdcr,
    run_swcr,
)
from .mechanisms import (
    InvalidNoiseError,
    LinearQuerySpec,
    NoiseSpec,
    linear_query_change,
    named_stream,
    perturb,
    sensitivity,
)
from .randomized_response import (
    AnswerMutationSpace,
    HistogramEstimate,
    InvalidEpsilonError,
    ResponseSpace,
    RrRecord,
    SingularMatrixError,
    UnknownLabelError,
    estimate_delta_v,
    optimal_rule,
    rr_dcr,
    rr_hdcr,
    verify_dp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
