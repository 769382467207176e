"""Dataset diagnostics and algorithm suggestion.

The evaluation shows the winning algorithm depends on the data's shape:
group overlap (Figure 11), group-size distribution (Figure 13) and group
count all matter.  :func:`dataset_statistics` measures those shape
parameters; :func:`suggest_algorithm` asks the planner
(:mod:`repro.plan.optimizer`) which algorithm a serial query would run.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..obs.metrics import get_registry
from . import artifacts
from .groups import GroupedDataset

__all__ = ["DatasetStatistics", "dataset_statistics", "suggest_algorithm"]


@dataclass
class DatasetStatistics:
    """Shape parameters of a grouped dataset."""

    groups: int
    records: int
    dimensions: int
    min_group_size: int
    median_group_size: float
    max_group_size: int
    size_skew: float          # max / median; > ~5 means heavy tail
    overlap: float            # sampled fraction of intersecting MBB pairs
    pair_budget: int          # upper bound on record pairs (Eq. 3/4)

    def describe(self) -> str:
        return (
            f"{self.groups} groups, {self.records} records,"
            f" d={self.dimensions}; group sizes"
            f" {self.min_group_size}/{self.median_group_size:g}/"
            f"{self.max_group_size} (min/median/max,"
            f" skew {self.size_skew:.1f}); MBB overlap"
            f" {self.overlap:.0%}; worst-case record pairs"
            f" {self.pair_budget}"
        )


def dataset_statistics(
    dataset: GroupedDataset, overlap_samples: int = 256
) -> DatasetStatistics:
    """Measure the shape parameters the evaluation section sweeps.

    Raises ``ValueError`` on datasets with no groups or with empty groups
    (their zero sizes would poison the size-skew ratio and the pair
    budget).  The pair budget is also published to the process-global
    metrics registry as the ``skyline_dataset_pair_budget`` gauge.
    """
    sizes = np.array([group.size for group in dataset])
    if sizes.size == 0:
        raise ValueError("dataset_statistics needs at least one group")
    if int(sizes.min()) == 0:
        empty = [group.key for group in dataset if group.size == 0]
        raise ValueError(
            f"dataset contains empty groups {empty!r}; drop them before"
            " computing shape statistics"
        )
    median = float(np.median(sizes))
    pair_budget = int(
        (int(sizes.sum()) ** 2 - int((sizes**2).sum())) // 2
    )
    get_registry().gauge(
        "skyline_dataset_pair_budget",
        "Worst-case record pairs of the last diagnosed dataset (Eq. 3/4)",
    ).set(pair_budget)
    return DatasetStatistics(
        groups=len(dataset),
        records=int(sizes.sum()),
        dimensions=dataset.dimensions,
        min_group_size=int(sizes.min()),
        median_group_size=median,
        max_group_size=int(sizes.max()),
        size_skew=float(sizes.max() / max(median, 1.0)),
        # Content-memoised through the artifact cache: `aggskyline stats`
        # after a run (or vice versa) reuses the same probe.
        overlap=artifacts.overlap_estimate(
            dataset, sample_pairs=overlap_samples
        ),
        pair_budget=pair_budget,
    )


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
    dataset_statistics(dataset, overlap_samples=overlap_samples)
    # The planner imports the algorithms, which import this package.
    from ..plan.logical import logical_for_dataset
    from ..plan.optimizer import decide

    return decide(
        dataset,
        logical_for_dataset(dataset, gamma=0.5, algorithm="auto"),
        gamma=0.5,
        algorithm="auto",
        sample_pairs=overlap_samples,
    ).algorithm
