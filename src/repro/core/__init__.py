"""Core aggregate-skyline machinery (the paper's primary contribution)."""

from .api import (
    GammaProfile,
    aggregate_skyline,
    aggregate_skyline_from_records,
    gamma_profile,
)
from .execution import ExecutionConfig, coerce_execution
from .comparator import ComparisonOutcome, GroupComparator
from .contribution import RecordContribution, record_contributions, removal_impact
from .cube import SkylineCube, skyline_cube
from .sampling import (
    approximate_aggregate_skyline,
    approximate_dominance_probability,
    hoeffding_epsilon,
)
from .diagnostics import dataset_statistics, suggest_algorithm
from .dominance import Direction, dominance_sign, dominates
from .gamma import (
    DominanceMatrix,
    GammaThresholds,
    dominance_probability,
    gamma_bar,
    gamma_dominates,
)
from .groups import BoundingBox, Group, GroupedDataset
from .anytime import AnytimeAggregateSkyline, GroupStatus
from .explain import Domination, Explanation, explain
from .incremental import IncrementalAggregateSkyline
from .layers import LayeredResult, skyline_layers
from .partitioned import partitioned_aggregate_skyline
from .representative import (
    domination_counts,
    representative_skyline,
    top_k_dominating_groups,
)
from .ranking import ProfileStats, compute_gamma_profile
from .result import AggregateSkylineResult, AlgorithmStats
from .weighted import (
    weighted_aggregate_skyline,
    weighted_dominance_probability,
)
from .skyline import skyline, skyline_mask

__all__ = [
    "aggregate_skyline",
    "aggregate_skyline_from_records",
    "gamma_profile",
    "GammaProfile",
    "ExecutionConfig",
    "coerce_execution",
    "GroupComparator",
    "ComparisonOutcome",
    "Direction",
    "dominates",
    "dominance_sign",
    "GammaThresholds",
    "gamma_bar",
    "gamma_dominates",
    "dominance_probability",
    "DominanceMatrix",
    "Group",
    "GroupedDataset",
    "BoundingBox",
    "AggregateSkylineResult",
    "AlgorithmStats",
    "skyline",
    "skyline_mask",
    "IncrementalAggregateSkyline",
    "compute_gamma_profile",
    "ProfileStats",
    "AnytimeAggregateSkyline",
    "GroupStatus",
    "partitioned_aggregate_skyline",
    "domination_counts",
    "top_k_dominating_groups",
    "representative_skyline",
    "explain",
    "Explanation",
    "Domination",
    "weighted_aggregate_skyline",
    "weighted_dominance_probability",
    "skyline_cube",
    "SkylineCube",
    "dataset_statistics",
    "suggest_algorithm",
    "record_contributions",
    "removal_impact",
    "RecordContribution",
    "approximate_aggregate_skyline",
    "approximate_dominance_probability",
    "hoeffding_epsilon",
    "skyline_layers",
    "LayeredResult",
]
