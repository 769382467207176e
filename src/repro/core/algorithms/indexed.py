"""Indexed aggregate skyline (Algorithm 5 of the paper, "IN").

Group MBB *max corners* go into a spatial index.  When a group ``g1`` is
polled, only the groups returned by the window query over the space that
dominates ``g1``'s *min corner* — i.e. groups whose best record could
dominate some record of ``g1`` — are compared against it.  This is sound:
if ``s > r`` for some ``s ∈ g2``, ``r ∈ g1``, then componentwise
``g2.max >= s >= r >= g1.min``, so ``g2``'s max corner lies in the window
``[g1.min, +inf)``.

Under the safe policy every group's verdict is produced by its *own* window
loop over all potential dominators (none skipped), so a polled group whose
verdict is already sealed can be skipped entirely without affecting others.

A window is a candidate's row: the loop decides its first members ahead,
for the next candidates at once, in row batches (:mod:`repro.core.row_batch`),
and compares the members past that prefix with ``compare()``.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import List, Optional

import numpy as np

from ...index.rtree import FlatRTree
from .. import artifacts
from ...obs import metrics as obs_metrics
from ...obs import tracing as obs_tracing
from ...parallel.executor import (
    PoolRun,
    WorkerConfig,
    apply_verdicts,
    compare_candidate_span,
    run_spans,
)
from ...parallel.partition import chunk_ranges
from ...parallel.scheduler import guided_spans
from ..execution import ExecutionConfig, coerce_execution
from ..gamma import GammaLike
from ..groups import Group
from ..result import AlgorithmStats
from ..row_batch import RowBatch, windows
from .base import AggregateSkylineAlgorithm, GroupState
from .pooled import (
    absorb_outcomes,
    flush_pool_metrics,
    pool_run_kwargs,
    record_chunk_events,
)
from .sorted_access import SORT_KEYS

__all__ = ["IndexedAlgorithm"]


class IndexedAlgorithm(AggregateSkylineAlgorithm):
    """Algorithm 5: window queries restrict the groups compared."""

    name = "IN"

    #: Accepts ``execution=ExecutionConfig(...)`` (see ``core.execution``).
    supports_execution = True

    def __init__(
        self,
        gamma: GammaLike = 0.5,
        use_stopping_rule: bool = True,
        use_bbox: bool = False,
        prune_policy: str = "paper",
        block_size: int = 1024,
        sort_key: str = "size_corner",
        execution: Optional[ExecutionConfig] = None,
    ):
        super().__init__(
            gamma,
            use_stopping_rule=use_stopping_rule,
            use_bbox=use_bbox,
            prune_policy=prune_policy,
            block_size=block_size,
        )
        if sort_key not in SORT_KEYS:
            raise ValueError(f"unknown sort_key {sort_key!r}")
        self.sort_key = SORT_KEYS[sort_key]
        self.sort_key_name = sort_key
        #: ``None`` (or ``workers=None``) keeps the serial Algorithm-5 loop
        #: untouched; a config with ``workers`` set runs the parallel
        #: candidate-slab path (see :meth:`_run_parallel`).
        self.execution = coerce_execution(execution)
        #: Per-chunk worker statistics of the last compute() (pooled runs).
        self.worker_stats: List[AlgorithmStats] = []
        #: Full PoolRun of the last pooled compute(); None otherwise.
        self.last_pool_run: Optional[PoolRun] = None
        #: A warm engine's ``(pool, token)`` (see ParallelSkylineAlgorithm);
        #: ``None`` runs on a pool of its own.
        self._resident = None

    _verdicts_are_independent = True

    def _build_index(self, groups: List[Group]) -> FlatRTree:
        dataset = self._dataset
        if dataset is not None and len(dataset) == len(groups):
            # Columnar fast path: STR bulk-load straight from the dataset's
            # precomputed max-corner matrix, with the packed arrays
            # memoised in the content-keyed derived-artifact cache.
            return artifacts.packed_rtree(dataset)
        corners = np.array([group.bbox.max_corner for group in groups])
        items = np.array([group.index for group in groups], dtype=np.int64)
        return FlatRTree.bulk_load_points(corners, items)

    def _sorted_order(self, groups: List[Group]) -> List[int]:
        """Candidate access order, memoised content-wise when possible."""
        dataset = self._dataset
        if dataset is not None and len(dataset) == len(groups):
            return list(
                artifacts.sort_order(
                    dataset, self.sort_key_name, self.sort_key
                )
            )
        return sorted(range(len(groups)), key=lambda i: self.sort_key(groups[i]))

    def _run(self, groups: List[Group], state: GroupState) -> None:
        """Algorithm 5: each polled candidate against its window, in order.

        The loop decides ahead in row batches (:mod:`repro.core.row_batch`):
        a polled candidate no batch covers batches itself and the next
        candidates in ``order`` not yet excluded, querying each one's
        window and deciding its first members the policy still needs in
        one batch-kernel call.  Each candidate then walks its window in
        order — the same policy, marks and breaks via
        :meth:`_compare_pair` — settling batched members from the batch
        and comparing the members past its batched prefix with
        ``compare()``.  A settled outcome equals ``compare()``'s and
        updates the same counters, and ``compare()`` reads no state, so
        deciding ahead of marks that appear later changes no verdict and
        no counter.  The windows and members polled candidates walk are
        what the index counters count.
        """
        self.worker_stats = []
        self.last_pool_run = None
        if not groups:
            return
        if self.execution is not None and self.execution.parallel:
            self._run_parallel(groups, state)
            return
        tracer = obs_tracing.get_tracer()
        with tracer.span("index.build", groups=len(groups)):
            index = self._build_index(groups)
        upper = np.full(groups[0].dimensions, np.inf)
        order = self._sorted_order(groups)
        columns = self._batch_columns(groups)
        needs = partial(self._needs, state)
        polled = 0
        batch: Optional[RowBatch] = None
        for position, i in enumerate(order):
            if self._skip_as_candidate(i, state):
                continue
            if batch is None or i not in batch.rows:
                upcoming = (
                    candidate
                    for candidate in islice(order, position, None)
                    if not self._excluded_as_candidate(candidate, state)
                )
                batch = RowBatch(
                    self.comparator,
                    columns,
                    windows(index, groups, upcoming, upper),
                    needs,
                )
            window, prepared, _ = batch.rows[i]
            polled += 1
            self._index_candidates += len(window)
            for j in window:
                if j == i:
                    continue
                outcome = self._compare_pair(groups, i, j, state, prepared.get(j))
                if outcome is None:
                    continue
                if outcome.d21 or outcome.d21_strong:
                    # g1's verdict is sealed; under both policies its window
                    # loop may stop (paper: Algorithm 3 line 19 for strong;
                    # stopping on a mere γ-domination is also faithful here
                    # because in Algorithm 5 g1's remaining comparisons only
                    # serve g1's own verdict plus forward marks that the
                    # other groups' own window queries will redo anyway).
                    if self.prune_policy == "safe" or outcome.d21_strong:
                        break
        self._flush_index_counts(polled, self._index_candidates, tracer)
        self._final_sweep(groups, state)

    # ------------------------------------------------------------------
    # parallel candidate-slab path
    # ------------------------------------------------------------------

    def _run_parallel(self, groups: List[Group], state: GroupState) -> None:
        """Parallel Algorithm 5: candidate slabs against a shared index.

        The STR-bulk-loaded :class:`~repro.index.rtree.FlatRTree` is
        built once; workers reconstruct it
        read-only from shipped flat arrays (shared memory on spawn
        platforms, inherited pages under fork).  Each worker takes a slab
        of candidate groups and runs the window-query + γ-comparison
        inner loop under the *independent-candidate* discipline (see
        :func:`repro.parallel.executor.compare_candidate_span`): every
        group's verdict is a pure function of its own deterministic
        window loop, so results **and all work counters** are identical
        for any worker count, chunking and dispatch order — and exactly
        the Definition-2 skyline.
        """
        execution = self.execution
        assert execution is not None
        tracer = obs_tracing.get_tracer()
        with tracer.span("index.build", groups=len(groups)):
            index = self._build_index(groups)
        n = len(groups)
        order = self._sorted_order(groups)
        workers = execution.resolve_workers()
        scheduler = execution.scheduler
        span_attrs = dict(workers=workers, candidates=n, scheduler=scheduler)

        if workers == 1:
            # Inline degenerate case: same kernel and index, no pool.
            with tracer.span("parallel.chunks", **span_attrs):
                verdicts, window_queries, index_candidates = compare_candidate_span(
                    groups,
                    self.comparator,
                    index,
                    order,
                    (0, n),
                    columns=self._batch_columns(groups),
                )
                apply_verdicts(state, verdicts)
                self._index_candidates += index_candidates
            self._flush_index_counts(window_queries, index_candidates, tracer)
            self._final_sweep(groups, state)
            return

        min_chunk = execution.chunk_size
        if min_chunk is None:
            min_chunk = max(1, n // (workers * 16))
        if scheduler == "stealing":
            spans = guided_spans(n, workers, min_chunk=min_chunk)
        else:
            spans = chunk_ranges(n, workers * 4)
        config = WorkerConfig(
            gamma=self.thresholds.gamma,
            use_stopping_rule=self.comparator.use_stopping_rule,
            use_bbox=self.comparator.use_bbox,
            block_size=self.comparator.block_size,
            prune_policy=self.prune_policy,
        )
        with tracer.span("parallel.chunks", **span_attrs) as chunk_span:
            run = run_spans(
                groups,
                config,
                spans,
                workers,
                kind="candidates",
                index=index,
                order=order,
                **pool_run_kwargs(self),
            )
            record_chunk_events(chunk_span, run)
        with tracer.span("parallel.merge", chunks=len(run.outcomes)):
            self.last_pool_run = run
            for outcome in run.outcomes:
                apply_verdicts(state, outcome.verdicts)
            absorb_outcomes(self, run.outcomes, self.worker_stats)
            flush_pool_metrics(self.name, scheduler, run)
            self._flush_index_counts(
                sum(outcome.window_queries for outcome in run.outcomes),
                sum(outcome.index_candidates for outcome in run.outcomes),
                tracer,
            )
        self._final_sweep(groups, state)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _flush_index_counts(self, queries: int, candidates: int, tracer) -> None:
        span = tracer.current_span()
        if span.is_recording:
            span.set_attribute("index_window_queries", queries)
            span.set_attribute("index_window_candidates", candidates)
        registry = obs_metrics.get_registry()
        registry.counter(
            "index_window_queries_total",
            "Window queries issued by index-driven algorithms",
            ("algorithm",),
        ).inc(queries, algorithm=self.name)
        registry.counter(
            "index_window_candidates_total",
            "Candidate groups returned by index window queries",
            ("algorithm",),
        ).inc(candidates, algorithm=self.name)

    def _final_sweep(self, groups: List[Group], state: GroupState) -> None:
        """Hook for subclasses; the plain indexed algorithm needs nothing."""
