"""Chunk kernels for pooled runs, and :func:`run_spans`, their one entry.

This is the machinery behind ``PAR``
(:class:`repro.core.algorithms.parallel.ParallelSkylineAlgorithm`) and the
parallel IN/LO path: the upper-triangular group-pair matrix (or the
candidate order) is cut into contiguous chunks
(:mod:`repro.parallel.partition`), each chunk is compared by a
:class:`ChunkKernel` with its own
:class:`~repro.core.comparator.GroupComparator`, and the parent merges
the groups each chunk marked plus its work counters.  Serial ``NL`` is
the two-phase pair kernel over one span.

The workers are the slots of :class:`repro.engine.pool.PersistentPool`,
the one process pool: a session's resident pool, or a pool that
:func:`run_spans` opens for one query and closes after it; with
``workers=1`` it runs the spans on the calling thread instead.  Tasks
are just ``(start, stop)`` span tuples.

A ``PAR`` run compares every pair exactly once in full, so its results
*and* work counters are bit-identical to serial ``NL`` for any worker
count.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal as signal_module
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.comparator import GroupComparator, RecordColumns
from ..core.execution import ON_FAILURE_POLICIES
from ..core.gamma import GammaThresholds
from ..core.groups import Group
from ..core.row_batch import RowBatch, backward_only, windows
from ..obs import tracing as obs_tracing
from ..obs.tracing import TraceContext, Tracer
from .faults import FaultSpec
from .partition import pair_arrays
from .shm import shm_available

__all__ = [
    "WorkerConfig",
    "ChunkOutcome",
    "ChunkKernel",
    "PoolRun",
    "resolve_workers",
    "preferred_start_method",
    "compare_span",
    "compare_candidate_span",
    "run_spans",
    "PoolTimeoutError",
    "WorkerCrashError",
    "ON_FAILURE_POLICIES",
]

#: Environment variable consulted when ``workers`` is not given explicitly.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment variable forcing a multiprocessing start method (``fork`` /
#: ``spawn`` / ``forkserver``).  CI uses ``REPRO_START_METHOD=spawn`` to
#: exercise the shared-memory shipping path on Linux.
START_METHOD_ENV_VAR = "REPRO_START_METHOD"


class PoolTimeoutError(RuntimeError):
    """The worker pool failed to deliver results within ``pool_timeout``."""


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-run (SIGKILL, segfault, ``os._exit``...).

    Raised by the pool's liveness survey within a fraction of a second
    of the death — long before ``pool_timeout`` — carrying everything
    the caller needs to re-execute exactly the lost work:

    Attributes
    ----------
    pids:
        Pids of the dead worker processes.
    exitcodes:
        Their ``Process.exitcode`` values (negative = killed by signal).
    signals:
        Human-readable signal names where the exitcode was a signal
        death (e.g. ``["SIGKILL"]``), empty strings otherwise.
    lost_spans:
        The ``(start, stop)`` chunk spans that had not been delivered
        when the crash was detected — the exact re-runnable remainder.
    """

    def __init__(
        self,
        message: str,
        *,
        pids: Sequence[int] = (),
        exitcodes: Sequence[int] = (),
        lost_spans: Sequence[Tuple[int, int]] = (),
    ):
        super().__init__(message)
        self.pids = tuple(pids)
        self.exitcodes = tuple(exitcodes)
        self.signals = tuple(_signal_name(code) for code in self.exitcodes)
        self.lost_spans = tuple(tuple(span) for span in lost_spans)


def _signal_name(exitcode: Optional[int]) -> str:
    """Signal name for a negative exitcode; empty string otherwise."""
    if exitcode is None or exitcode >= 0:
        return ""
    try:
        return signal_module.Signals(-exitcode).name
    except ValueError:  # pragma: no cover - unknown signal number
        return f"signal {-exitcode}"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit value, else ``$REPRO_WORKERS``,
    else ``min(4, usable CPUs)``.

    Usable CPUs are the ones this process may run on
    (``os.sched_getaffinity``, where the platform has it), not the
    host's count: under ``taskset`` or a cpuset the default pool must
    not oversubscribe.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if env:
            workers = int(env)
        elif hasattr(os, "sched_getaffinity"):
            workers = min(4, len(os.sched_getaffinity(0)))
        else:
            workers = min(4, os.cpu_count() or 1)
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def preferred_start_method() -> str:
    """Start method for the pool: ``$REPRO_START_METHOD`` override, else
    ``fork`` when the platform offers it (zero-copy data shipping)."""
    env = os.environ.get(START_METHOD_ENV_VAR, "").strip().lower()
    if env:
        available = mp.get_all_start_methods()
        if env not in available:
            raise ValueError(
                f"{START_METHOD_ENV_VAR}={env!r} is not available on this"
                f" platform (choices: {available})"
            )
        return env
    return "fork" if "fork" in mp.get_all_start_methods() else \
        mp.get_start_method(allow_none=False)


@dataclass(frozen=True)
class WorkerConfig:
    """Comparator configuration shipped to each worker once."""

    gamma: object  # GammaLike; Fractions/floats pickle fine
    use_stopping_rule: bool = True
    use_bbox: bool = False
    block_size: int = 1024


@dataclass
class ChunkOutcome:
    """What one chunk sent back: the groups it marked + its work counters.

    ``dominated`` (strongly dominated included) and ``strong`` are
    ascending, duplicate-free group indices."""

    start: int
    stop: int
    dominated: List[int] = field(default_factory=list)
    strong: List[int] = field(default_factory=list)
    comparisons: int = 0
    pairs_examined: int = 0
    bbox_shortcuts: int = 0
    stopping_rule_exits: int = 0
    elapsed_seconds: float = 0.0
    worker_pid: int = 0
    # candidate-slab runs (parallel IN/LO) additionally report the index
    # counters; ``slot`` is the pool slot that ran the chunk (-1 inline).
    window_queries: int = 0
    index_candidates: int = 0
    slot: int = -1
    # finished worker-side span trees (Span.to_dict form), grafted back
    # onto the parent trace when tracing is enabled; empty otherwise.
    spans: List[dict] = field(default_factory=list)


#: Group pairs one batch-kernel call of a two-phase span decides.
SPAN_PAIRS = 1 << 11


def compare_span(
    groups: Sequence[Group],
    comparator: GroupComparator,
    span: Tuple[int, int],
    *,
    columns: RecordColumns,
) -> Tuple[List[int], List[int]]:
    """Compare every pair in ``span`` (linear indices); the pair kernel.

    Returns ``(dominated, strong)``: the groups some pair of the span
    marked dominated (the strongly dominated ones included) and strongly
    dominated, each ascending and duplicate-free.

    A span compares every pair, both directions, and reads no state, so it
    runs on the batch kernel
    (:meth:`~repro.core.comparator.GroupComparator.compare_batch`,
    :data:`SPAN_PAIRS` pairs per call) over the dataset's record
    ``columns``, which every caller builds once per process and dataset.
    Serial ``NL`` is this kernel over all pairs.
    """
    start, stop = span
    n = len(groups)
    dominated = np.zeros(n, dtype=bool)
    strong = np.zeros(n, dtype=bool)
    for low in range(start, stop, SPAN_PAIRS):
        i, j = pair_arrays(low, min(stop, low + SPAN_PAIRS), n)
        d12, d12_strong, d21, d21_strong = comparator.compare_batch(columns, i, j)
        dominated[j[d12]] = True
        strong[j[d12_strong]] = True
        dominated[i[d21]] = True
        strong[i[d21_strong]] = True
    return np.flatnonzero(dominated | strong).tolist(), np.flatnonzero(strong).tolist()


def compare_candidate_span(
    groups: Sequence[Group],
    comparator: GroupComparator,
    index,
    order: Sequence[int],
    span: Tuple[int, int],
    *,
    columns: RecordColumns,
) -> Tuple[List[int], List[int], int, int]:
    """The parallel IN/LO chunk kernel: one slab of candidate groups.

    For every candidate position in ``span`` (indices into ``order``), run
    the Algorithm-5 window query against the read-only ``index`` and probe
    the returned groups *backward only* — does anyone γ-dominate the
    candidate?  The loop breaks at the first dominator.

    This is the *independent-candidate* discipline: each group's verdict
    is a pure function of its own window loop (whose candidate order the
    flat index fixes deterministically), never of marks produced by other
    candidates.  The window is a superset of the candidate's dominators
    (``g2 ⊳ g1`` implies ``g2.max ∈ [g1.min, +inf)``), so the result is
    exactly the Definition-2 skyline — and both the verdicts *and every
    work counter* are invariant under any partitioning of the candidates
    across chunks, workers and dispatch orders.

    Over the dataset's record ``columns`` (built once per process and
    dataset, never per chunk) the kernel decides ahead in row batches, as
    the serial loop does (:mod:`repro.core.row_batch`): a candidate that
    no batch covers yet batches the span's next candidates, querying each
    one's window and deciding its first members in one batch-kernel call,
    backward only.  The loop itself is unchanged — each candidate walks
    its window in order and the first dominator breaks — and a batched
    member is settled from the batch, identically to ``compare()``; the
    members past a candidate's batched prefix go through ``compare()``.
    Deciding ahead moves no counter, so the chunking invariance above
    holds for it too.

    Returns ``(dominated, strong, window_queries, index_candidates)``:
    the span's candidates found dominated (the strongly dominated ones
    included) and strongly dominated, each ascending.
    """
    start, stop = span
    upper = np.full(groups[0].dimensions, np.inf)
    dominated: List[int] = []
    strong: List[int] = []
    window_queries = 0
    index_candidates = 0
    batch: Optional[RowBatch] = None
    for position in range(start, stop):
        i = order[position]
        if batch is None or i not in batch.rows:
            upcoming = windows(index, groups, islice(order, position, stop), upper)
            batch = RowBatch(comparator, columns, upcoming, backward_only)
        window, prepared, _ = batch.rows[i]
        window_queries += 1
        index_candidates += len(window)
        for j in window:
            if j == i:
                continue
            settled = prepared.get(j)
            if settled is None:
                outcome = comparator.compare(
                    groups[i], groups[j], need_forward=False, need_backward=True
                )
            else:
                outcome = comparator.settle(
                    *settled, need_forward=False, need_backward=True
                )
            if outcome.d21 or outcome.d21_strong:
                dominated.append(i)
                if outcome.d21_strong:
                    strong.append(i)
                break
    return sorted(dominated), sorted(strong), window_queries, index_candidates


class ChunkKernel:
    """One query's chunk inputs, and the one way a chunk runs.

    A pool worker builds one per query at its ``prepare`` message;
    :func:`run_spans` builds one on the calling thread for ``workers=1``
    and for the inline fallback.  Either way :meth:`run` resets the
    comparator per chunk and runs the same kernel over the same
    deterministic span, so a chunk's outcome — marks *and* work
    counters — does not depend on where it ran.  ``columns`` (built here
    when missing) feed the batch kernel.
    """

    def __init__(
        self,
        groups: Sequence[Group],
        config: WorkerConfig,
        kind: str = "pairs",
        *,
        index=None,
        order: Optional[Sequence[int]] = None,
        columns: Optional[RecordColumns] = None,
        trace: Optional[TraceContext] = None,
    ):
        if columns is None:
            columns = RecordColumns.of_groups(groups)
        self.groups = groups
        self.kind = kind
        self.index = index
        self.order = order
        self.columns = columns
        self.comparator = GroupComparator(
            GammaThresholds(config.gamma),
            use_stopping_rule=config.use_stopping_rule,
            use_bbox=config.use_bbox,
            block_size=config.block_size,
        )
        self.tracer = (
            Tracer(context=trace) if trace is not None else obs_tracing.NOOP_TRACER
        )

    def run(self, span: Tuple[int, int], slot: int = -1) -> ChunkOutcome:
        """Run one chunk with the counters reset; its outcome.

        When the tracer records (the parent shipped a
        :class:`~repro.obs.tracing.TraceContext`), the chunk runs inside a
        ``parallel.chunk`` span carrying the span bounds, the kernel kind,
        the slot and pid; its serialized form travels back in
        :attr:`ChunkOutcome.spans` for the parent to graft onto its tree.
        """
        comparator = self.comparator
        comparator.reset_stats()
        chunk_span = self.tracer.span(
            "parallel.chunk",
            start=span[0],
            stop=span[1],
            kind=self.kind,
            slot=slot,
            pid=os.getpid(),
        )
        started = time.perf_counter()
        window_queries = 0
        index_candidates = 0
        with chunk_span:
            if self.kind == "candidates":
                found = compare_candidate_span(
                    self.groups,
                    comparator,
                    self.index,
                    self.order,
                    span,
                    columns=self.columns,
                )
                dominated, strong, window_queries, index_candidates = found
            else:
                dominated, strong = compare_span(
                    self.groups, comparator, span, columns=self.columns
                )
            if chunk_span.is_recording:
                chunk_span.set_attribute("dominated", len(dominated))
                chunk_span.set_attribute("comparisons", comparator.comparisons)
                chunk_span.set_attribute("pairs_examined", comparator.pairs_examined)
                if window_queries:
                    chunk_span.set_attribute("window_queries", window_queries)
                    chunk_span.set_attribute("index_candidates", index_candidates)
        outcome = ChunkOutcome(
            start=span[0],
            stop=span[1],
            dominated=dominated,
            strong=strong,
            comparisons=comparator.comparisons,
            pairs_examined=comparator.pairs_examined,
            bbox_shortcuts=comparator.bbox_shortcuts,
            stopping_rule_exits=comparator.stopping_rule_exits,
            elapsed_seconds=time.perf_counter() - started,
            worker_pid=os.getpid(),
            window_queries=window_queries,
            index_candidates=index_candidates,
            slot=slot,
        )
        if chunk_span.is_recording:
            outcome.spans = [chunk_span.to_dict()]
        return outcome


@dataclass
class PoolRun:
    """What a pooled run sent back: the chunk outcomes, in span order."""

    outcomes: List[ChunkOutcome] = field(default_factory=list)


def _resolve_shm(shm: Optional[bool], start_method: str) -> bool:
    """Auto policy: shm on spawn-family platforms, inheritance under fork."""
    if shm is None:
        return start_method != "fork" and shm_available()
    return bool(shm) and shm_available()


#: The token a one-query pool registers its groups under.
_QUERY_TOKEN = "query"


def run_spans(
    groups: Sequence[Group],
    config: WorkerConfig,
    spans: Sequence[Tuple[int, int]],
    workers: int,
    *,
    kind: str = "pairs",
    index=None,
    order: Optional[Sequence[int]] = None,
    columns: Optional[RecordColumns] = None,
    resident=None,
    progress: Optional[Callable[[int, int], None]] = None,
    pool_timeout: float = 300.0,
    shm: Optional[bool] = None,
    max_retries: int = 2,
    on_failure: str = "raise",
    faults: Optional[FaultSpec] = None,
) -> PoolRun:
    """Run one query's ``spans``; the chunk outcomes in span order.

    The one way ``PAR`` and the parallel IN/LO path run, for every worker
    count.  ``kind="pairs"`` interprets spans as linear pair-index ranges
    (:func:`compare_span`); ``kind="candidates"`` as slabs of positions
    into ``order`` (:func:`compare_candidate_span`, requires ``index`` —
    a :class:`~repro.index.rtree.FlatRTree` — and ``order``).

    ``workers=1`` (without ``resident``) runs every span through one
    :class:`ChunkKernel` on the calling thread: no pool, no shared
    memory, no ``pool_*`` event, slot -1.  That kernel, also the inline
    fallback's, compares over ``columns`` (the caller's cached record
    columns; built from ``groups`` when missing).

    ``resident`` is a session's ``(pool, token)``: its slots hold the
    groups under ``token`` already, and the index and order are pinned
    there by content digest, so repeats ship nothing.  Without it, a
    :class:`~repro.engine.pool.PersistentPool` of ``workers`` slots opens
    for this query and closes after it.  Its groups, index and order are
    registered before the slots start, and each slot receives them as its
    process arguments: inherited under ``fork``, through shared memory
    under ``spawn`` (``shm=None`` decides by start method).

    Faults: a dead worker surfaces within a liveness tick, and
    ``on_failure`` decides what happens next.  ``"raise"`` (default)
    fails fast with :class:`WorkerCrashError`, or re-raises the worker's
    own exception.  ``"retry"`` respawns the dead slot and re-dispatches
    exactly the tasks it held, and re-queues a chunk that raised; each
    slot may do either ``max_retries`` times.  ``"serial"`` is
    ``"retry"`` plus an inline run, on the calling thread, of whatever
    is left once every slot is gone.  Re-run chunks are the same
    deterministic spans through the same kernel, so a recovered run's
    results and counters are bit-identical to an undisturbed one.  A
    pool that delivers nothing for ``pool_timeout`` seconds raises
    :class:`PoolTimeoutError`.  ``faults`` (default ``$REPRO_FAULTS``)
    injects worker failures into a one-query pool — see
    :mod:`repro.parallel.faults`.

    ``progress`` is called with ``(chunks_done, chunks_total)`` as
    deliveries arrive.  When the caller has tracing enabled and a span
    open, its :class:`~repro.obs.tracing.TraceContext` goes to the
    workers, so their per-chunk spans come back in
    :attr:`ChunkOutcome.spans`; pool lifecycle and faults go to the run
    log (``docs/observability.md``).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if kind not in ("pairs", "candidates"):
        raise ValueError(f"kind must be 'pairs' or 'candidates', got {kind!r}")
    if kind == "candidates" and (index is None or order is None):
        raise ValueError("kind='candidates' requires index and order")
    if on_failure not in ON_FAILURE_POLICIES:
        raise ValueError(
            f"on_failure must be one of {ON_FAILURE_POLICIES}, got {on_failure!r}"
        )
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if not spans:
        return PoolRun()

    kernel: Optional[ChunkKernel] = None

    def inline(span: Tuple[int, int]) -> ChunkOutcome:
        # Built at the first chunk that has to run here, if any.
        nonlocal kernel
        if kernel is None:
            kernel = ChunkKernel(
                groups, config, kind, index=index, order=order, columns=columns
            )
        return kernel.run(span)

    if workers == 1 and resident is None:
        outcomes = []
        for span in spans:
            outcomes.append(inline(span))
            if progress is not None:
                progress(len(outcomes), len(spans))
        return PoolRun(outcomes=outcomes)

    with ExitStack() as stack:
        if resident is not None:
            pool, token = resident
        else:
            # The pool module imports this one, so it is imported here.
            from ..engine.pool import PersistentPool

            start_method = preferred_start_method()
            pool = stack.enter_context(
                PersistentPool(
                    workers,
                    start_method=start_method,
                    shm=_resolve_shm(shm, start_method),
                    # a fail-fast query ends at the first crash: no respawn
                    max_respawns=max_retries if on_failure != "raise" else 0,
                    faults=faults,
                )
            )
            token = _QUERY_TOKEN
            pool.attach(token, groups, timeout=pool_timeout)
        index_key = order_key = None
        if index is not None:
            index_key = pool.pin_index(token, index, timeout=pool_timeout)
        if order is not None:
            order_key = pool.pin_order(token, order, timeout=pool_timeout)
        outcomes = pool.run_query(
            token,
            config,
            spans,
            kind=kind,
            index_key=index_key,
            order_key=order_key,
            pool_timeout=pool_timeout,
            on_failure=on_failure,
            progress=progress,
            inline_fallback=inline,
        )
    return PoolRun(outcomes=outcomes)
