"""Shared merge and observability plumbing for pooled algorithm runs.

Both ``PAR`` (pair chunks) and the parallel IN/LO path (candidate slabs)
start a chunked run the same way — :func:`repro.parallel.executor.run_spans`,
inline for ``workers=1``, on a session's resident pool when an engine set
one, else on a pool opened for the query — and end it the same way,
:func:`merge_run`: mark the groups each chunk reported, absorb the
chunks' counters into the parent comparator so ``AlgorithmStats`` — and
therefore the always-on metrics flush — reconciles exactly with the work
done across all processes, keep the per-chunk breakdown for inspection,
and record the chunk count and latency.
"""

from __future__ import annotations

from typing import List

from ...obs import metrics as obs_metrics
from ...obs.tracing import Span
from ...parallel.executor import ChunkOutcome, PoolRun
from ..result import AlgorithmStats

__all__ = [
    "CHUNKS_PER_WORKER",
    "merge_run",
    "absorb_outcomes",
    "flush_pool_metrics",
    "record_chunk_events",
    "pool_progress_callback",
    "pool_run_kwargs",
]


#: Static chunks per worker, for PAR's pair spans and IN/LO's candidate
#: slabs alike.
CHUNKS_PER_WORKER = 4


def pool_run_kwargs(algorithm) -> dict:
    """What a pooled algorithm forwards to
    :func:`repro.parallel.executor.run_spans`: its pool, its progress
    callback, and the pool and fault-tolerance knobs of its
    ``execution`` config.

    Every pooled algorithm routes its execution config through here so
    the failure policy (``on_failure`` / ``max_retries``) reaches the
    pool uniformly — PAR, parallel IN and parallel LO all recover from
    worker crashes the same way.  ``algorithm._resident`` is the
    ``(pool, token)`` a warm :class:`~repro.engine.SkylineEngine` set for
    this query, or ``None`` for a pool of its own.
    """
    execution = algorithm.execution
    return dict(
        resident=algorithm._resident,
        progress=pool_progress_callback(algorithm),
        pool_timeout=execution.pool_timeout,
        shm=execution.shm,
        max_retries=execution.max_retries,
        on_failure=execution.on_failure,
    )


#: Chunk latency buckets: 10µs … 100s in decades.
CHUNK_SECONDS_BUCKETS = obs_metrics.log_buckets(1e-5, 10.0, 8)


def merge_run(algorithm, run: PoolRun, state) -> None:
    """The serial phase of a chunked run: mark what every chunk reported
    in ``state``, absorb the chunks' counters into ``algorithm`` and its
    ``worker_stats``, record the chunk metrics, keep ``last_pool_run``."""
    algorithm.last_pool_run = run
    for outcome in run.outcomes:
        state.mark(outcome.dominated, outcome.strong)
    absorb_outcomes(algorithm, run.outcomes, algorithm.worker_stats)
    flush_pool_metrics(algorithm.name, algorithm.execution.scheduler, run)


def absorb_outcomes(
    algorithm,
    outcomes: List[ChunkOutcome],
    worker_stats: List[AlgorithmStats],
) -> None:
    """Fold chunk counters into ``algorithm``'s comparator and stats.

    Updates the parent comparator (so the stats built by ``compute()``
    cover all processes), the index-candidate tally, the
    opt-in obs event counters, and appends one ``<name>.worker``
    :class:`AlgorithmStats` per chunk to *worker_stats*.
    """
    exits = 0
    shortcuts = 0
    for outcome in outcomes:
        algorithm.comparator.absorb(
            comparisons=outcome.comparisons,
            pairs_examined=outcome.pairs_examined,
            bbox_shortcuts=outcome.bbox_shortcuts,
            stopping_rule_exits=outcome.stopping_rule_exits,
        )
        algorithm._index_candidates += outcome.index_candidates
        exits += outcome.stopping_rule_exits
        shortcuts += outcome.bbox_shortcuts
        worker_stats.append(
            AlgorithmStats(
                algorithm=f"{algorithm.name}.worker",
                group_comparisons=outcome.comparisons,
                record_pairs_examined=outcome.pairs_examined,
                bbox_shortcuts=outcome.bbox_shortcuts,
                index_candidates=outcome.index_candidates,
                stopping_rule_exits=outcome.stopping_rule_exits,
                elapsed_seconds=outcome.elapsed_seconds,
            )
        )
    # Detailed per-comparison instruments cannot observe remote
    # comparisons one by one, but the event *counters* still reconcile.
    if algorithm.comparator._obs_exit_counter is not None and exits:
        algorithm.comparator._obs_exit_counter.inc(exits)
    if algorithm.comparator._obs_shortcut_counter is not None and shortcuts:
        algorithm.comparator._obs_shortcut_counter.inc(shortcuts)


def flush_pool_metrics(algorithm_name: str, scheduler: str, run: PoolRun) -> None:
    """Record the pooled run's chunks in the metrics registry.

    Always on (a handful of locked adds once per run), like the end-of-run
    counter flush in ``compute()``:

    * ``parallel_chunks_total`` — chunks executed;
    * ``parallel_chunk_seconds`` — per-chunk latency histogram.
    """
    registry = obs_metrics.get_registry()
    labels = {"algorithm": algorithm_name, "scheduler": scheduler}
    names = ("algorithm", "scheduler")
    registry.counter(
        "parallel_chunks_total",
        "Chunks executed by pooled skyline runs",
        names,
    ).inc(len(run.outcomes), **labels)
    histogram = registry.histogram(
        "parallel_chunk_seconds",
        "Wall-clock latency of one pooled chunk",
        names,
        buckets=CHUNK_SECONDS_BUCKETS,
    )
    for outcome in run.outcomes:
        histogram.observe(outcome.elapsed_seconds, **labels)


def pool_progress_callback(algorithm):
    """Adapt the algorithm's ``progress_reporter`` to the pool's callback.

    Returns the ``(chunks_done, chunks_total)`` callable that
    :func:`repro.parallel.executor.run_spans` polls, or ``None`` when no
    reporter is attached.  The reporter's ETA then comes from the chunk
    completion rate (:func:`repro.obs.progress.eta_from_chunks`) — the
    serial pair budget is meaningless when ``workers=N`` chew through
    pairs concurrently.
    """
    reporter = getattr(algorithm, "progress_reporter", None)
    if reporter is None:
        return None
    phase = f"{algorithm.name}.pool"

    def callback(chunks_done: int, chunks_total: int) -> None:
        reporter.update(
            done=chunks_done,
            total=chunks_total,
            phase=phase,
            chunks_done=chunks_done,
            chunks_total=chunks_total,
        )

    return callback


def record_chunk_events(span, run: PoolRun) -> None:
    """Merge the workers' trace output into *span*.

    Each :class:`ChunkOutcome` that ran with tracing enabled carries the
    serialized ``parallel.chunk`` span the worker recorded; those are
    rebuilt with :meth:`Span.from_dict` and adopted as children of *span*
    — by construction their ``parent_id`` already points at *span* (the
    :class:`~repro.obs.tracing.TraceContext` shipped to the pool was
    snapshotted while *span* was the innermost open span), so the whole
    ``workers=N`` run renders as one coherent tree.  Chunks with no
    recorded span (those the inline fallback ran) degrade to flat
    ``chunk`` events.
    """
    if not span.is_recording:
        return
    for outcome in run.outcomes:
        if outcome.spans:
            for data in outcome.spans:
                span.adopt(Span.from_dict(data))
            continue
        span.add_event(
            "chunk",
            start=outcome.start,
            stop=outcome.stop,
            pid=outcome.worker_pid,
            slot=outcome.slot,
            pairs_examined=outcome.pairs_examined,
            elapsed_seconds=outcome.elapsed_seconds,
        )
