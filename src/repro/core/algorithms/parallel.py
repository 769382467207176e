"""Parallel aggregate skyline ("PAR"): group-pair chunks on a worker pool.

The aggregate skyline is quadratic twice over — O(m^2) group comparisons,
each up to O(n^2) record pairs (Equations 3-4 of the paper) — but the
comparison matrix decomposes into independent units, the structure group-
skyline work such as *Aggregate Skyline Join Queries* (Bhattacharya & Teja)
and *Efficient Contour Computation of Group-based Skyline* (Yu et al.)
exploits.  ``PAR`` partitions the upper-triangular pair space into chunks
(:mod:`repro.parallel.partition` / :mod:`repro.parallel.scheduler`) and
runs them through :func:`repro.parallel.executor.run_spans`: on the
calling thread for ``workers=1``, else on a process pool, shipping the
group ndarrays to the workers exactly once — inherited copy-on-write
under ``fork``, or through ``multiprocessing.shared_memory`` on spawn
platforms.

Scheduling (``ExecutionConfig.scheduler``)
------------------------------------------
* ``"static"`` — :data:`~repro.core.algorithms.pooled.CHUNKS_PER_WORKER`
  near-equal contiguous chunks per worker.  Lowest overhead for uniform
  workloads.
* ``"stealing"`` — guided decreasing chunk sizes down to 1/64 of a
  worker's share, so the small late chunks balance the tail.  This is
  the remedy for skewed (Zipfian) group sizes, where equal *pair
  counts* are wildly unequal *work*.

Either way the pool hands the chunks out in order to whichever worker
frees up, and executes every chunk exactly once with the same kernel, so
the determinism contract below is scheduler-independent.

Determinism contract (see ``docs/parallel.md``)
-----------------------------------------------
``PAR`` is a *two-phase* scheme: a parallel compare-everything pass
followed by a serial verdict merge.  Every pair is compared exactly once
in full, so the result **and every work counter** are bit-identical to
serial ``NL`` for any worker count, under either pruning policy and
either scheduler.

Every chunk's marks and counters are merged into the parent
(:func:`~repro.core.algorithms.pooled.merge_run`), so ``AlgorithmStats`` —
and therefore the observability registry flushed by
:meth:`~repro.core.algorithms.base.AggregateSkylineAlgorithm.compute` —
reconciles exactly with the work actually performed across all processes;
the per-chunk breakdown is kept in :attr:`ParallelSkylineAlgorithm.
worker_stats` and the chunk count and latency histogram flow into the
metrics registry.
"""

from __future__ import annotations

from typing import List, Optional

from ...obs import tracing as obs_tracing
from ...parallel.executor import PoolRun, WorkerConfig, run_spans
from ...parallel.partition import chunk_ranges, pair_count
from ...parallel.scheduler import guided_spans
from ..execution import ExecutionConfig, coerce_execution
from ..gamma import GammaLike
from ..groups import Group
from ..result import AlgorithmStats
from .base import AggregateSkylineAlgorithm, GroupState
from .pooled import (
    CHUNKS_PER_WORKER,
    merge_run,
    pool_run_kwargs,
    record_chunk_events,
)

__all__ = ["ParallelSkylineAlgorithm"]


class ParallelSkylineAlgorithm(AggregateSkylineAlgorithm):
    """Chunked nested-loop skyline on a process pool (extension)."""

    name = "PAR"

    #: Accepts ``execution=ExecutionConfig(...)`` (see ``core.execution``).
    supports_execution = True

    def __init__(
        self,
        gamma: GammaLike = 0.5,
        use_stopping_rule: bool = True,
        use_bbox: bool = False,
        prune_policy: str = "paper",
        block_size: int = 1024,
        execution: Optional[ExecutionConfig] = None,
    ):
        super().__init__(
            gamma,
            use_stopping_rule=use_stopping_rule,
            use_bbox=use_bbox,
            prune_policy=prune_policy,
            block_size=block_size,
        )
        execution = coerce_execution(execution) or ExecutionConfig()
        #: The unified execution configuration driving this instance.
        self.execution = execution
        #: Effective worker count (explicit > $REPRO_WORKERS > cpu-derived).
        self.workers = execution.resolve_workers()
        self.scheduler = execution.scheduler
        #: Per-chunk statistics of the last compute().
        self.worker_stats: List[AlgorithmStats] = []
        #: Full PoolRun of the last compute() (inline chunks too).
        self.last_pool_run: Optional[PoolRun] = None
        #: The ``(pool, token)`` a warm :class:`~repro.engine.SkylineEngine`
        #: sets so the spans run on its resident pool; ``None`` runs each
        #: pooled compute on a pool of its own
        #: (:func:`repro.parallel.executor.run_spans`).  Everything else —
        #: span layout, worker config, merge — is identical, which is what
        #: keeps warm results and counters bit-identical to cold runs.
        self._resident = None

    # ------------------------------------------------------------------

    def _spans(self, total: int):
        if self.scheduler == "stealing":
            return guided_spans(total, self.workers)
        return chunk_ranges(total, self.workers * CHUNKS_PER_WORKER)

    def _run(self, groups: List[Group], state: GroupState) -> None:
        self.worker_stats = []
        self.last_pool_run = None
        total = pair_count(len(groups))
        if total == 0:
            return
        spans = self._spans(total)
        config = WorkerConfig(
            gamma=self.thresholds.gamma,
            use_stopping_rule=self.comparator.use_stopping_rule,
            use_bbox=self.comparator.use_bbox,
            block_size=self.comparator.block_size,
        )
        # The inline kernel compares over this process's cached columns.
        columns = self._batch_columns(groups) if self.workers == 1 else None
        tracer = obs_tracing.get_tracer()
        with tracer.span(
            "parallel.chunks",
            workers=self.workers,
            chunks=len(spans),
            pairs=total,
            scheduler=self.scheduler,
        ) as chunk_span:
            run = run_spans(
                groups,
                config,
                spans,
                self.workers,
                columns=columns,
                **pool_run_kwargs(self),
            )
            record_chunk_events(chunk_span, run)
        with tracer.span("parallel.merge", chunks=len(run.outcomes)):
            merge_run(self, run, state)
