"""Partitioned (and optionally parallel) aggregate-skyline execution.

The paper's related work points at distributed skyline processing (its
reference [9]); this module provides the partitioned execution scheme that
is sound for *groups* despite the loss of transitivity:

1. **Local phase** — split the groups into partitions and compute the
   aggregate skyline of each partition independently.  Exclusion is sound
   here: a group γ-dominated by a partition peer is γ-dominated, period
   (Definition 2 quantifies over *any* other group).
2. **Merge phase** — local survivors are only *candidates*: their
   dominators may live in other partitions, and — because dominated groups
   still dominate (no transitivity!) — may even be groups excluded
   locally.  Each candidate is therefore verified against **all** original
   groups, every direction "group over candidate" in one bulk count
   (:func:`~repro.core.comparator.pair_counts`).

With ``execution=ExecutionConfig(workers=n)`` (``n > 1``) the local
phase fans out over a :class:`~repro.engine.pool.PersistentPool` opened
for the call (:meth:`~repro.engine.pool.PersistentPool.map`), with the
pool's start-method resolution and fail-fast: a dead worker raises
:class:`~repro.parallel.executor.WorkerCrashError` within a liveness
tick, and a wedged one :class:`~repro.parallel.executor.PoolTimeoutError`
after ``pool_timeout``.  The default runs the same two phases serially,
which already helps because the local phase shrinks the candidate set
that the expensive all-groups verification must touch.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from . import artifacts
from .api import _coerce_dataset
from .comparator import _bars, _holds, ordered_pairs, pair_counts
from .dominance import Direction
from .execution import ExecutionConfig, coerce_execution, reject_kwargs
from .gamma import GammaLike, GammaThresholds
from .groups import GroupedDataset
from .result import AggregateSkylineResult, AlgorithmStats, Timer

__all__ = ["partitioned_aggregate_skyline", "partition_keys"]

GroupsLike = Union[GroupedDataset, Mapping[Hashable, Iterable]]


def partition_keys(
    keys: Sequence[Hashable], partitions: int
) -> List[List[Hashable]]:
    """Round-robin split of group keys into ``partitions`` buckets."""
    if partitions < 1:
        raise ValueError("partitions must be positive")
    buckets: List[List[Hashable]] = [[] for _ in range(partitions)]
    for position, key in enumerate(keys):
        buckets[position % partitions].append(key)
    return [bucket for bucket in buckets if bucket]


def _local_skyline(
    payload: Tuple[Dict[Hashable, np.ndarray], object, bool]
) -> List[Hashable]:
    """Worker: the aggregate skyline of one partition (normalised data)."""
    groups, gamma, allow_non_finite = payload
    from .algorithms.nested_loop import NestedLoopAlgorithm

    dataset = GroupedDataset(groups, allow_non_finite=allow_non_finite)  # normalised
    return NestedLoopAlgorithm(gamma).compute(dataset).keys


def _survivors(
    dataset: GroupedDataset, candidates: List[Hashable], thresholds: GammaThresholds
) -> Tuple[List[Hashable], int]:
    """The candidates no group γ-dominates, in dataset order, and the
    region-B record pairs counted to find them."""
    keys = dataset.keys()
    position = {key: i for i, key in enumerate(keys)}
    columns = artifacts.record_columns(dataset)
    gamma = [thresholds.gamma.as_integer_ratio()]
    targets = sorted(position[key] for key in candidates)
    dominated = set()
    pairs = 0
    for block, x, y in ordered_pairs(len(keys), targets):
        count, pending = pair_counts(columns, x, y)
        totals = columns.sizes[x] * columns.sizes[y]
        holds = _holds(count, 0, totals, _bars(totals, gamma)[0])[0]
        pairs += int(pending.sum())
        beaten = holds.reshape(block.shape[0], len(keys) - 1).any(axis=1)
        dominated.update(block[beaten].tolist())
    return [keys[i] for i in targets if i not in dominated], pairs


def partitioned_aggregate_skyline(
    groups: GroupsLike,
    gamma: GammaLike = 0.5,
    partitions: int = 4,
    *,
    directions: Union[None, str, Direction, list, tuple] = None,
    execution: Union[None, ExecutionConfig, str, Mapping] = None,
    **removed,
) -> AggregateSkylineResult:
    """Exact aggregate skyline via local-then-merge execution.

    ``execution`` (an :class:`~repro.core.execution.ExecutionConfig`,
    mapping or ``"k=v,..."`` spec — see :meth:`ExecutionConfig.coerce`)
    controls the local phase: ``None`` (default) runs it serially, a
    config with ``workers >= 2`` fans it out over a process pool, which
    fails fast on a crashed worker and raises
    :class:`repro.parallel.PoolTimeoutError` after
    ``execution.pool_timeout`` seconds instead of hanging on a wedged
    one.

    ``stats.record_pairs_examined`` counts the region-B record pairs of
    the merge phase's directions, which its bulk count checks.
    """
    reject_kwargs("partitioned_aggregate_skyline", removed)
    execution = coerce_execution(execution)
    workers = (
        execution.resolve_workers()
        if execution is not None and execution.parallel
        else 1
    )
    effective_timeout = (
        execution.pool_timeout if execution is not None else 300.0
    )
    dataset = _coerce_dataset(groups, directions)
    thresholds = GammaThresholds(gamma)

    with Timer() as timer:
        buckets = partition_keys(dataset.keys(), partitions)
        # The exact Fraction travels to the workers: a float-rounded gamma
        # could make the local phase dominate slightly more than the merge
        # phase and wrongly exclude a borderline group.
        payloads = [
            (
                {key: dataset[key].values for key in bucket},
                thresholds.gamma,
                dataset.allow_non_finite,
            )
            for bucket in buckets
        ]
        if workers > 1 and len(payloads) > 1:
            # repro.engine imports from repro.core: imported at call time.
            from ..engine.pool import PersistentPool

            with PersistentPool(workers, max_respawns=0) as pool:
                local_survivors = pool.map(
                    _local_skyline, payloads, pool_timeout=effective_timeout
                )
        else:
            local_survivors = [_local_skyline(p) for p in payloads]

        surviving, pairs = _survivors(
            dataset,
            [key for bucket in local_survivors for key in bucket],
            thresholds,
        )

    stats = AlgorithmStats(
        algorithm=f"PART({partitions})",
        record_pairs_examined=pairs,
        elapsed_seconds=timer.elapsed,
    )
    return AggregateSkylineResult(
        keys=surviving, gamma=float(thresholds.gamma), stats=stats
    )
