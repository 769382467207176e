"""Dataset diagnostics and algorithm suggestion.

The evaluation shows the winning algorithm depends on the data's shape:
group overlap (Figure 11), group-size distribution (Figure 13) and group
count all matter.  :func:`dataset_statistics` measures those shape
parameters — the planner's own :class:`~repro.plan.stats.PlanStatistics`
— and :func:`suggest_algorithm` asks the planner
(:mod:`repro.plan.optimizer`) which algorithm a serial query would run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.metrics import get_registry
from .groups import GroupedDataset

if TYPE_CHECKING:
    from ..plan.optimizer import PlanDecision
    from ..plan.stats import PlanStatistics

__all__ = ["dataset_statistics", "suggest_algorithm"]


def _require_groups(dataset: GroupedDataset) -> None:
    """Reject datasets with no groups or with empty groups (their zero
    sizes would poison the size-skew ratio and the pair budget)."""
    if len(dataset) == 0:
        raise ValueError("dataset_statistics needs at least one group")
    empty = [group.key for group in dataset if group.size == 0]
    if empty:
        raise ValueError(
            f"dataset contains empty groups {empty!r}; drop them before"
            " computing shape statistics"
        )


def _publish(pair_budget: int) -> None:
    get_registry().gauge(
        "skyline_dataset_pair_budget",
        "Worst-case record pairs of the last diagnosed dataset (Eq. 3/4)",
    ).set(pair_budget)


def dataset_statistics(
    dataset: GroupedDataset, overlap_samples: int = 256
) -> PlanStatistics:
    """Measure the shape parameters the evaluation section sweeps.

    Raises ``ValueError`` on datasets with no groups or with empty groups.
    The pair budget is also published to the process-global metrics
    registry as the ``skyline_dataset_pair_budget`` gauge.
    """
    # The planner imports the algorithms, which import this package.
    from ..plan.stats import collect_statistics

    _require_groups(dataset)
    # The overlap probe is content-memoised through the artifact cache:
    # `aggskyline stats` after a run (or vice versa) reuses it.
    statistics = collect_statistics(dataset, sample_pairs=overlap_samples)
    _publish(statistics.pair_budget)
    return statistics


def suggest_algorithm(
    dataset: GroupedDataset, overlap_samples: int = 256
) -> str:
    """Recommend an algorithm name for this dataset's shape.

    The planner's ``algorithm="auto"`` choice for a serial query at
    γ = 0.5 (:func:`repro.plan.optimizer.decide`, memoised like every
    planner decision): ``NL`` on tiny problems, never ``IN``/``LO`` under
    heavy MBB overlap (Figure 11's crossover), otherwise the cheapest
    candidate of the planner's cost model.  Raises ``ValueError`` on the
    inputs :func:`dataset_statistics` rejects, and publishes its gauge.
    """
    return serial_plan(dataset, overlap_samples).algorithm


def serial_plan(
    dataset: GroupedDataset, overlap_samples: int = 256
) -> PlanDecision:
    """The planner decision :func:`suggest_algorithm` reads.  Its
    ``statistics`` are :func:`dataset_statistics`' fields, so a caller
    wanting both probes the overlap once."""
    from ..plan.logical import logical_for_dataset
    from ..plan.optimizer import decide

    _require_groups(dataset)
    decision = decide(
        dataset,
        logical_for_dataset(dataset, gamma=0.5, algorithm="auto"),
        gamma=0.5,
        algorithm="auto",
        sample_pairs=overlap_samples,
    )
    _publish(decision.statistics["pair_budget"])
    return decision
