"""Chunk kernels for pooled runs, and :func:`run_spans`, their one entry.

This is the machinery behind ``PAR``
(:class:`repro.core.algorithms.parallel.ParallelSkylineAlgorithm`) and the
parallel IN/LO path: the upper-triangular group-pair matrix (or the
candidate order) is cut into contiguous chunks
(:mod:`repro.parallel.partition`), each chunk is compared by a worker with
its own :class:`~repro.core.comparator.GroupComparator`, and the parent
merges the compact verdict lists plus the per-chunk work counters.

The workers are the slots of :class:`repro.engine.pool.PersistentPool`,
the one process pool: a session's resident pool, or a pool that
:func:`run_spans` opens for one query and closes after it.  Tasks are
just ``(start, stop)`` span tuples, and results are compact
``(i, j, verdict-bits)`` triples for the (typically sparse) pairs where
some dominance verdict fired.

Pruning exchange
----------------
With ``exchange_interval > 0`` the workers additionally share a byte per
group (bit 0 = dominated, bit 1 = strongly dominated) in a writable
shared-memory array the pool creates per query.  Every
``exchange_interval`` pairs a worker refreshes its local snapshot and
skips work the rest of the pool has already made redundant:

* ``prune_policy="paper"`` — pairs with a *strongly* dominated endpoint are
  skipped entirely (the serial Algorithm-3 rule; the result carries the same
  superset-of-Definition-2 guarantee as serial ``TR``);
* ``prune_policy="safe"`` — only comparison *directions* that can no longer
  change any verdict are dropped, so the result stays exactly the
  Definition-2 skyline regardless of scheduling.

Flag writes are monotonic 0->1, so the unlocked read-modify-write races are
benign: a lost update can only cost a pruning opportunity, never
correctness — the authoritative verdicts always travel back to the parent
in the chunk results.  For the same reason a worker that cannot map the
shared array keeps private flags.  With ``exchange_interval == 0`` (the
default) every pair is compared exactly once in full, which makes the
run — results *and* work counters — bit-identical to serial ``NL`` for
any worker count.
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
from ..core.gamma import GammaThresholds
from ..core.groups import Group
from ..core.row_batch import RowBatch, backward_only, windows
from ..obs import tracing as obs_tracing
from ..obs.tracing import TraceContext, Tracer
from .faults import FaultSpec
from .partition import iter_pairs, pair_arrays
from .shm import ShmArena, shm_available

__all__ = [
    "D12",
    "D12_STRONG",
    "D21",
    "D21_STRONG",
    "WorkerConfig",
    "ChunkOutcome",
    "ChunkKernel",
    "PoolRun",
    "resolve_workers",
    "preferred_start_method",
    "comparator_for",
    "compare_span",
    "compare_candidate_span",
    "apply_verdicts",
    "run_spans",
    "PoolTimeoutError",
    "WorkerCrashError",
    "ON_FAILURE_POLICIES",
]

#: Verdict bit flags packed into one int per pair (forward = g_i over g_j).
D12, D12_STRONG, D21, D21_STRONG = 1, 2, 4, 8

#: Flag-byte bits of the shared pruning-exchange array.
_FLAG_DOMINATED, _FLAG_STRONG = 1, 2

#: Environment variable consulted when ``workers`` is not given explicitly.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment variable forcing a multiprocessing start method (``fork`` /
#: ``spawn`` / ``forkserver``).  CI uses ``REPRO_START_METHOD=spawn`` to
#: exercise the shared-memory shipping path on Linux.
START_METHOD_ENV_VAR = "REPRO_START_METHOD"


#: What to do when a pool worker crashes or a chunk raises (see
#: :class:`repro.core.execution.ExecutionConfig`): fail fast, re-run the
#: lost chunks on respawned slots, or finish them inline once every slot
#: is gone.
ON_FAILURE_POLICIES: Tuple[str, ...] = ("raise", "retry", "serial")


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
    """Comparator + policy configuration shipped to each worker once."""

    gamma: object  # GammaLike; Fractions/floats pickle fine
    use_stopping_rule: bool = True
    use_bbox: bool = False
    block_size: int = 1024
    prune_policy: str = "paper"
    exchange_interval: int = 0


def comparator_for(config: WorkerConfig) -> GroupComparator:
    """A fresh comparator matching *config* — the one every execution site
    (pool workers, the inline fallback) must build so that chunk counters
    stay bit-identical regardless of where a chunk runs."""
    return GroupComparator(
        GammaThresholds(config.gamma),
        use_stopping_rule=config.use_stopping_rule,
        use_bbox=config.use_bbox,
        block_size=config.block_size,
    )


@dataclass
class ChunkOutcome:
    """What one chunk sent back: verdicts + the worker's work counters."""

    start: int
    stop: int
    verdicts: List[Tuple[int, int, int]] = field(default_factory=list)
    comparisons: int = 0
    pairs_examined: int = 0
    bbox_shortcuts: int = 0
    stopping_rule_exits: int = 0
    pairs_skipped: int = 0
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


def _encode(outcome) -> int:
    code = 0
    if outcome.d12:
        code |= D12
    if outcome.d12_strong:
        code |= D12_STRONG
    if outcome.d21:
        code |= D21
    if outcome.d21_strong:
        code |= D21_STRONG
    return code


def apply_verdicts(state, verdicts: Sequence[Tuple[int, int, int]]) -> None:
    """Apply packed pair verdicts to a group-state (NL merge semantics)."""
    for i, j, code in verdicts:
        if code & D12_STRONG:
            state.mark_strong(j)
        elif code & D12:
            state.mark_dominated(j)
        if code & D21_STRONG:
            state.mark_strong(i)
        elif code & D21:
            state.mark_dominated(i)


#: Group pairs one batch-kernel call of a two-phase chunk decides.
SPAN_PAIRS = 1 << 11


def compare_span(
    groups: Sequence[Group],
    comparator: GroupComparator,
    span: Tuple[int, int],
    *,
    prune_policy: str = "paper",
    flags=None,
    exchange_interval: int = 0,
    columns: Optional[RecordColumns] = None,
) -> Tuple[List[Tuple[int, int, int]], int]:
    """Compare every pair in ``span`` (linear indices); the chunk kernel.

    Returns ``(verdicts, pairs_skipped)`` where ``verdicts`` holds only the
    pairs for which some dominance predicate fired, in pair order.

    Two-phase chunks (no exchange) compare every pair, both directions,
    and read no state, so they run on the batch kernel
    (:meth:`~repro.core.comparator.GroupComparator.compare_batch`,
    :data:`SPAN_PAIRS` pairs per call) over the dataset's record
    ``columns``, which every caller builds once per process and dataset.
    ``flags`` (any byte-indexable, byte-assignable buffer — the pool's
    shared array in a worker, a plain ``bytearray`` otherwise) with
    ``exchange_interval > 0`` enables the pruning exchange instead: the
    kernel refreshes its snapshot of the flags every ``exchange_interval``
    pairs and compares pair by pair with ``compare()``, because which
    directions a pair still needs depends on marks published meanwhile.
    """
    start, stop = span
    n = len(groups)
    verdicts: List[Tuple[int, int, int]] = []
    if not (flags is not None and exchange_interval > 0):
        if columns is None:
            raise ValueError("two-phase chunks need the dataset's record columns")
        for low in range(start, stop, SPAN_PAIRS):
            i, j = pair_arrays(low, min(stop, low + SPAN_PAIRS), n)
            d12, d12_strong, d21, d21_strong = comparator.compare_batch(
                columns, i, j
            )
            codes = d12 * D12 | d12_strong * D12_STRONG
            codes |= d21 * D21 | d21_strong * D21_STRONG
            fired = np.flatnonzero(codes)
            verdicts.extend(
                zip(i[fired].tolist(), j[fired].tolist(), codes[fired].tolist())
            )
        return verdicts, 0
    skipped = 0
    local = bytes(flags)
    since_refresh = 0
    for i, j in iter_pairs(start, stop, n):
        if since_refresh >= exchange_interval:
            local = bytes(flags)
            since_refresh = 0
        since_refresh += 1
        if prune_policy == "paper":
            if (local[i] | local[j]) & _FLAG_STRONG:
                skipped += 1
                continue
            need_forward = need_backward = True
        else:
            need_forward = not local[j] & _FLAG_DOMINATED
            need_backward = not local[i] & _FLAG_DOMINATED
            if not (need_forward or need_backward):
                skipped += 1
                continue
        outcome = comparator.compare(
            groups[i],
            groups[j],
            need_forward=need_forward,
            need_backward=need_backward,
        )
        code = _encode(outcome)
        if not code:
            continue
        verdicts.append((i, j, code))
        # Publish monotonic marks (benign unlocked read-modify-write: a
        # lost bit only costs pruning, never correctness).
        if code & D12_STRONG:
            flags[j] |= _FLAG_DOMINATED | _FLAG_STRONG
        elif code & D12:
            flags[j] |= _FLAG_DOMINATED
        if code & D21_STRONG:
            flags[i] |= _FLAG_DOMINATED | _FLAG_STRONG
        elif code & D21:
            flags[i] |= _FLAG_DOMINATED
    return verdicts, skipped


def compare_candidate_span(
    groups: Sequence[Group],
    comparator: GroupComparator,
    index,
    order: Sequence[int],
    span: Tuple[int, int],
    *,
    columns: RecordColumns,
) -> Tuple[List[Tuple[int, int, int]], int, int]:
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

    Returns ``(verdicts, window_queries, index_candidates)`` where the
    verdicts are ``(i, i, D21|D21_STRONG)`` self-marks.
    """
    start, stop = span
    upper = np.full(groups[0].dimensions, np.inf)
    verdicts: List[Tuple[int, int, int]] = []
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
            if outcome.d21_strong:
                verdicts.append((i, i, D21_STRONG))
                break
            if outcome.d21:
                verdicts.append((i, i, D21))
                break
    return verdicts, window_queries, index_candidates


class ChunkKernel:
    """One query's chunk inputs, and the one way a chunk runs.

    A pool worker builds one per query at its ``prepare`` message; the
    inline fallback builds one on the calling thread.  Either way
    :meth:`run` resets the comparator per chunk and runs the same kernel
    over the same deterministic span, so a chunk's outcome — verdicts
    *and* work counters — does not depend on where it ran.  ``columns``
    (built here when missing) feed the batch kernel; exchange-mode pair
    chunks without shared ``flags`` keep private ones.
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
        flags=None,
        trace: Optional[TraceContext] = None,
    ):
        exchange = kind == "pairs" and config.exchange_interval > 0
        if columns is None and not exchange:
            columns = RecordColumns.of_groups(groups)
        if flags is None and exchange:
            flags = bytearray(len(groups))
        self.groups = groups
        self.config = config
        self.kind = kind
        self.index = index
        self.order = order
        self.columns = columns
        self.flags = flags
        self.comparator = comparator_for(config)
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
        skipped = 0
        window_queries = 0
        index_candidates = 0
        with chunk_span:
            if self.kind == "candidates":
                verdicts, window_queries, index_candidates = compare_candidate_span(
                    self.groups,
                    comparator,
                    self.index,
                    self.order,
                    span,
                    columns=self.columns,
                )
            else:
                verdicts, skipped = compare_span(
                    self.groups,
                    comparator,
                    span,
                    prune_policy=self.config.prune_policy,
                    flags=self.flags,
                    exchange_interval=self.config.exchange_interval,
                    columns=self.columns,
                )
            if chunk_span.is_recording:
                chunk_span.set_attribute("verdicts", len(verdicts))
                chunk_span.set_attribute("comparisons", comparator.comparisons)
                chunk_span.set_attribute("pairs_examined", comparator.pairs_examined)
                if skipped:
                    chunk_span.set_attribute("pairs_skipped", skipped)
                if window_queries:
                    chunk_span.set_attribute("window_queries", window_queries)
                    chunk_span.set_attribute("index_candidates", index_candidates)
        outcome = ChunkOutcome(
            start=span[0],
            stop=span[1],
            verdicts=verdicts,
            comparisons=comparator.comparisons,
            pairs_examined=comparator.pairs_examined,
            bbox_shortcuts=comparator.bbox_shortcuts,
            stopping_rule_exits=comparator.stopping_rule_exits,
            pairs_skipped=skipped,
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
    resident=None,
    progress: Optional[Callable[[int, int], None]] = None,
    pool_timeout: float = 300.0,
    shm: Optional[bool] = None,
    max_retries: int = 2,
    on_failure: str = "raise",
    faults: Optional[FaultSpec] = None,
) -> PoolRun:
    """Run one query's ``spans`` on a process pool; outcomes in span order.

    The entry point behind both ``PAR`` and the parallel IN/LO path.
    ``kind="pairs"`` interprets spans as linear pair-index ranges
    (:func:`compare_span`); ``kind="candidates"`` as slabs of positions
    into ``order`` (:func:`compare_candidate_span`, requires ``index`` —
    a :class:`~repro.index.rtree.FlatRTree` — and ``order``).

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
    # The pool module imports this one, so it is imported at call time.
    from ..engine.pool import PersistentPool

    kernel: Optional[ChunkKernel] = None

    def inline(span: Tuple[int, int]) -> ChunkOutcome:
        # Built at the first chunk that has to run here, if any.
        nonlocal kernel
        if kernel is None:
            kernel = ChunkKernel(groups, config, kind, index=index, order=order)
        return kernel.run(span)

    with ExitStack() as stack:
        if resident is not None:
            pool, token = resident
        else:
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
        flags = None
        if kind == "pairs" and config.exchange_interval > 0 and shm_available():
            arena = stack.enter_context(ShmArena())
            flags = arena.share(np.zeros(len(groups), dtype=np.uint8))
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
            flags=flags,
            pool_timeout=pool_timeout,
            on_failure=on_failure,
            progress=progress,
            inline_fallback=inline,
        )
    return PoolRun(outcomes=outcomes)
