"""repro — aggregate skyline queries on grouped data.

A from-scratch reproduction of Magnani & Assent, *From Stars to Galaxies:
skyline queries on aggregate data* (EDBT 2013): the γ-dominance aggregate
skyline operator, the NL/TR/SI/IN/LO algorithms with the paper's internal
and external optimisations, a direct-SQL baseline, plus the substrates the
evaluation needs (relational engine with a SKYLINE OF query dialect, a
packed STR R-tree, synthetic and NBA-style data generators, and an
experiment harness that regenerates every figure of the paper).

Entry points: :class:`SkylineEngine` is the session API — attach a dataset
to a persistent worker pool once, then run many queries warm;
:func:`aggregate_skyline` is the one-shot convenience wrapper over an
ephemeral session.
"""

from .core import (
    AnytimeAggregateSkyline,
    GroupStatus,
    IncrementalAggregateSkyline,
    compute_gamma_profile,
    approximate_aggregate_skyline,
    dataset_statistics,
    domination_counts,
    record_contributions,
    removal_impact,
    skyline_layers,
    explain,
    skyline_cube,
    suggest_algorithm,
    partitioned_aggregate_skyline,
    representative_skyline,
    top_k_dominating_groups,
    weighted_aggregate_skyline,
    weighted_dominance_probability,
    AggregateSkylineResult,
    AlgorithmStats,
    BoundingBox,
    ComparisonOutcome,
    Direction,
    DominanceMatrix,
    ExecutionConfig,
    GammaProfile,
    GammaThresholds,
    Group,
    GroupComparator,
    GroupedDataset,
    aggregate_skyline,
    aggregate_skyline_from_records,
    dominance_probability,
    dominance_sign,
    dominates,
    gamma_bar,
    gamma_dominates,
    gamma_profile,
    skyline,
    skyline_mask,
)
from .core.algorithms import ALGORITHMS, make_algorithm
from .engine import (
    DatasetHandle,
    EngineClosedError,
    EngineStats,
    SkylineEngine,
)
from .plan import PlanDecision, explain_dataset, render_plan

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SkylineEngine",
    "DatasetHandle",
    "EngineStats",
    "EngineClosedError",
    "aggregate_skyline",
    "aggregate_skyline_from_records",
    "gamma_profile",
    "GammaProfile",
    "GroupedDataset",
    "Group",
    "BoundingBox",
    "Direction",
    "dominates",
    "dominance_sign",
    "dominance_probability",
    "gamma_dominates",
    "gamma_bar",
    "GammaThresholds",
    "DominanceMatrix",
    "GroupComparator",
    "ComparisonOutcome",
    "AggregateSkylineResult",
    "AlgorithmStats",
    "skyline",
    "skyline_mask",
    "ALGORITHMS",
    "make_algorithm",
    "ExecutionConfig",
    "IncrementalAggregateSkyline",
    "compute_gamma_profile",
    "AnytimeAggregateSkyline",
    "GroupStatus",
    "partitioned_aggregate_skyline",
    "domination_counts",
    "top_k_dominating_groups",
    "representative_skyline",
    "explain",
    "weighted_aggregate_skyline",
    "weighted_dominance_probability",
    "skyline_cube",
    "dataset_statistics",
    "suggest_algorithm",
    "record_contributions",
    "removal_impact",
    "approximate_aggregate_skyline",
    "skyline_layers",
    "PlanDecision",
    "explain_dataset",
    "render_plan",
]
