"""Unified query planning: one plan → optimize → execute pipeline.

Every aggregate-skyline entry path — :func:`repro.aggregate_skyline`, the
SQL executor and :class:`repro.engine.SkylineEngine` — compiles its
request to a :class:`LogicalPlan`, hands it to :func:`optimize` (which
resolves ``algorithm="auto"`` against cheap dataset statistics, or passes
an explicit name through untouched) and finishes via
:meth:`PhysicalPlan.execute`.  ``EXPLAIN``/`--explain` render the same
:func:`render_plan` tree from all of them.

Note this is distinct from :func:`repro.core.explain.explain`, which
explains *why a group was dominated*; this package explains *how a query
will run*.
"""

from .logical import (
    AggregateSkylineNode,
    FilterNode,
    GroupNode,
    LogicalNode,
    LogicalPlan,
    OrderLimitNode,
    ProjectNode,
    ScanNode,
    logical_for_dataset,
)
from .optimizer import (
    AUTO_ALGORITHM,
    HIGH_OVERLAP,
    TINY_PAIR_BUDGET,
    CandidateCost,
    PlanDecision,
    decide,
    estimate_costs,
    optimize,
)
from .physical import PhysicalPlan, render_plan
from .stats import PlanStatistics, collect_statistics, describe_statistics

__all__ = [
    "AUTO_ALGORITHM",
    "HIGH_OVERLAP",
    "TINY_PAIR_BUDGET",
    "AggregateSkylineNode",
    "CandidateCost",
    "FilterNode",
    "GroupNode",
    "LogicalNode",
    "LogicalPlan",
    "OrderLimitNode",
    "PhysicalPlan",
    "PlanDecision",
    "PlanStatistics",
    "ProjectNode",
    "ScanNode",
    "collect_statistics",
    "decide",
    "describe_statistics",
    "estimate_costs",
    "explain_dataset",
    "logical_for_dataset",
    "optimize",
    "render_plan",
]


def explain_dataset(
    dataset,
    *,
    gamma=0.5,
    algorithm: str = "auto",
    execution=None,
    dims=None,
    measures=None,
    options=None,
) -> str:
    """Render the plan a dataset-level query would run, without running it.

    The helper behind ``aggskyline skyline --explain`` and the serve
    REPL's ``explain`` command; :meth:`repro.engine.SkylineEngine.explain`
    delegates here too.  Probes statistics and candidate costs even for an
    explicitly forced algorithm, so the tree always shows the comparison.
    """
    from ..core.execution import coerce_execution

    if dims is not None:
        dataset = dataset.project(dims)
    logical = logical_for_dataset(
        dataset, gamma=gamma, algorithm=algorithm, dims=dims, measures=measures
    )
    physical = optimize(
        logical,
        dataset,
        gamma=gamma,
        algorithm=algorithm,
        execution=coerce_execution(execution),
        options=dict(options or {}),
        entry="explain",
        probe=True,
    )
    return physical.render()
