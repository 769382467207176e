"""Process-pool execution of group-pair comparison chunks.

This is the machinery behind ``PAR``
(:class:`repro.core.algorithms.parallel.ParallelSkylineAlgorithm`): the
upper-triangular group-pair matrix is cut into contiguous linear-index
chunks (:mod:`repro.parallel.partition`), each chunk is compared by a pool
worker with its own :class:`~repro.core.comparator.GroupComparator`, and the
parent merges the compact verdict lists plus the per-chunk work counters.

Shipping the data once
----------------------
Group ndarrays are **never pickled per task**.  The pool is created with an
initializer that receives the full group list once:

* under the ``fork`` start method (Linux default) the worker inherits the
  parent's memory copy-on-write — zero serialization;
* under ``spawn`` the initializer arguments are pickled **once per worker**
  at pool start-up.

Tasks submitted afterwards are just ``(start, stop)`` linear-index ranges,
and results are compact ``(i, j, verdict-bits)`` triples for the (typically
sparse) pairs where some dominance verdict fired.

Pruning exchange
----------------
With ``exchange_interval > 0`` the workers additionally share a byte per
group (bit 0 = dominated, bit 1 = strongly dominated) in a lock-free
``RawArray``.  Every ``exchange_interval`` pairs a worker refreshes its
local snapshot and skips work the rest of the pool has already made
redundant:

* ``prune_policy="paper"`` — pairs with a *strongly* dominated endpoint are
  skipped entirely (the serial Algorithm-3 rule; the result carries the same
  superset-of-Definition-2 guarantee as serial ``TR``);
* ``prune_policy="safe"`` — only comparison *directions* that can no longer
  change any verdict are dropped, so the result stays exactly the
  Definition-2 skyline regardless of scheduling.

Flag writes are monotonic 0->1, so the unlocked read-modify-write races are
benign: a lost update can only cost a pruning opportunity, never
correctness — the authoritative verdicts always travel back to the parent
in the chunk results.  With ``exchange_interval == 0`` (the default) every
pair is compared exactly once in full, which makes the run — results *and*
work counters — bit-identical to serial ``NL`` for any worker count.

Fault tolerance
---------------
Every chunk is an independent, deterministic unit of work, so losing a
worker must never lose the run.  The parent polls worker liveness while
draining results: a worker that dies (OOM kill, segfault, ``os._exit``)
raises :class:`WorkerCrashError` within about one liveness-poll interval
(:data:`_LIVENESS_POLL_SECONDS` seconds) — naming the pid, signal and the unfinished chunk spans — instead
of hanging until ``pool_timeout``.  What happens next is policy
(``on_failure``): ``"raise"`` fails fast (the default), ``"retry"``
re-executes *only the lost chunks* on a fresh pool up to ``max_retries``
times with exponential backoff, and ``"serial"`` additionally finishes any
still-missing chunks inline on the parent after retries are exhausted.
Because retried and fallback chunks re-run the same deterministic spans
with the same kernel, a recovered run's results and work counters are
bit-identical to an undisturbed one.  :mod:`repro.parallel.faults`
injects worker failures on demand to keep all of this testable.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal as signal_module
import time
from itertools import islice
from multiprocessing import sharedctypes
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.comparator import GroupComparator, RecordColumns
from ..core.gamma import GammaThresholds
from ..core.groups import Group
from ..core.window_batch import WindowBatch
from ..obs import metrics as obs_metrics
from ..obs import runlog as obs_runlog
from ..obs import tracing as obs_tracing
from ..obs.tracing import TraceContext, Tracer
from .faults import ArmedFault, FaultSpec
from .partition import iter_pairs, pair_arrays
from .scheduler import ChunkLedger, WorkerReport, assign_owners
from .shm import (
    GroupShipment,
    ShmArena,
    load_arrays,
    load_groups,
    ship_arrays,
    ship_groups,
    shm_available,
)

__all__ = [
    "D12",
    "D12_STRONG",
    "D21",
    "D21_STRONG",
    "WorkerConfig",
    "ChunkOutcome",
    "PoolRun",
    "resolve_workers",
    "preferred_start_method",
    "comparator_for",
    "compare_span",
    "compare_candidate_span",
    "apply_verdicts",
    "execute_span_inline",
    "run_spans",
    "map_tasks",
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
#: :class:`repro.core.execution.ExecutionConfig`): fail fast, retry the
#: lost chunks on a fresh pool, or finish them serially after retries.
ON_FAILURE_POLICIES: Tuple[str, ...] = ("raise", "retry", "serial")


class PoolTimeoutError(RuntimeError):
    """The worker pool failed to deliver results within ``pool_timeout``."""


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-run (SIGKILL, segfault, ``os._exit``...).

    Raised by the liveness poll in :func:`_collect_results` within
    seconds of the death — long before ``pool_timeout`` — carrying
    everything the retry layer (or the caller) needs to re-execute
    exactly the lost work:

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


class _AttemptFailure(Exception):
    """Internal: one pool attempt failed; carries the partial results.

    ``partial`` holds the task results delivered before the failure
    (``ChunkOutcome`` for the static scheduler, ``(outcomes, report)``
    per slot for stealing), ``dead`` the ``(pid, exitcode)`` of crashed
    workers and ``cause`` the worker exception when the failure was a
    raised traceback rather than a death.
    """

    def __init__(self, partial: List, dead: List, cause: Optional[BaseException]):
        super().__init__("pool attempt failed")
        self.partial = partial
        self.dead = dead
        self.cause = cause


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
    (pool initializer, serial fallback, engine workers) must build so that
    chunk counters stay bit-identical regardless of where a chunk runs."""
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
    # counters; stealing runs tag where the chunk actually executed.
    window_queries: int = 0
    index_candidates: int = 0
    slot: int = -1
    stolen: bool = False
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
    ``flags`` (any byte-indexable, byte-assignable buffer — a shared
    ``RawArray`` in pool workers, a plain ``bytearray`` inline) with
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
    across chunks, workers and steal orders.

    Over the dataset's record ``columns`` (built once per process and
    dataset, never per chunk) the kernel speculates as the serial loop
    does (:mod:`repro.core.window_batch`): a candidate that no batch
    covers yet batches the span's next candidates, deciding each one's
    leading window members in one batch-kernel call, backward only.  The
    loop itself is unchanged — one ``search_window`` per candidate, the
    window in order, the first dominator breaks — and a compare whose
    member is the candidate's next batched one is settled from the batch,
    identically to ``compare()``; the rest go through ``compare()``.
    Speculation moves no counter, so the chunking invariance above holds
    for it too.

    Returns ``(verdicts, window_queries, index_candidates)`` where the
    verdicts are ``(i, i, D21|D21_STRONG)`` self-marks.
    """
    start, stop = span
    upper = np.full(groups[0].dimensions, np.inf)
    verdicts: List[Tuple[int, int, int]] = []
    window_queries = 0
    index_candidates = 0
    batch: Optional[WindowBatch] = None
    for position in range(start, stop):
        i = order[position]
        g1 = groups[i]
        if batch is None or i not in batch.members:
            batch = WindowBatch(
                comparator,
                columns,
                index,
                islice(order, position, stop),
                upper,
                forward=False,
            )
        members, slot = batch.members[i]
        candidates = index.search_window(g1.bbox.min_corner, upper)
        window_queries += 1
        index_candidates += len(candidates)
        taken = 0
        for j in candidates:
            if j == i:
                continue
            if taken < len(members) and members[taken] == j:
                outcome = comparator.settle(
                    *batch.prepared(slot + taken),
                    need_forward=False,
                    need_backward=True,
                )
                taken += 1
            else:
                outcome = comparator.compare(
                    g1, groups[j], need_forward=False, need_backward=True
                )
            if outcome.d21_strong:
                verdicts.append((i, i, D21_STRONG))
                break
            if outcome.d21:
                verdicts.append((i, i, D21))
                break
    return verdicts, window_queries, index_candidates


@dataclass
class PoolRun:
    """Everything a pooled run sent back: chunk results + scheduling telemetry."""

    outcomes: List[ChunkOutcome] = field(default_factory=list)
    reports: List[WorkerReport] = field(default_factory=list)


@dataclass
class _PoolPayload:
    """Initializer argument: the one-shot shipment to every worker."""

    shipment: GroupShipment
    config: WorkerConfig
    kind: str = "pairs"  # "pairs" | "candidates"
    flags: Any = None
    index_arrays: Optional[Dict[str, Any]] = None
    order: Optional[Tuple[int, ...]] = None
    spans: Optional[Tuple[Tuple[int, int], ...]] = None
    owners: Optional[Tuple[Tuple[int, ...], ...]] = None
    claimed: Any = None
    lock: Any = None
    trace: Optional[TraceContext] = None
    # fault injection (testing/demos): the spec plus the shared fire
    # budget, so retried pools don't re-fire a spent max_fires=1 fault.
    faults: Optional[FaultSpec] = None
    fault_state: Any = None


# ----------------------------------------------------------------------
# pool plumbing: per-worker globals set once by the initializer
# ----------------------------------------------------------------------

_WORKER_GROUPS: Optional[Sequence[Group]] = None
_WORKER_COMPARATOR: Optional[GroupComparator] = None
_WORKER_CONFIG: Optional[WorkerConfig] = None
_WORKER_FLAGS = None
_WORKER_KIND: str = "pairs"
_WORKER_INDEX = None
_WORKER_COLUMNS: Optional[RecordColumns] = None
_WORKER_ORDER: Optional[Sequence[int]] = None
_WORKER_SPANS: Optional[Sequence[Tuple[int, int]]] = None
_WORKER_LEDGER: Optional[ChunkLedger] = None
_WORKER_FAULT: Optional[ArmedFault] = None


def _init_pool(payload: _PoolPayload) -> None:
    """Pool initializer: materialise the one-shot shipment into globals."""
    global _WORKER_GROUPS, _WORKER_COMPARATOR, _WORKER_CONFIG, _WORKER_FLAGS
    global _WORKER_KIND, _WORKER_INDEX, _WORKER_COLUMNS, _WORKER_ORDER
    global _WORKER_SPANS, _WORKER_LEDGER, _WORKER_FAULT
    config = payload.config
    _WORKER_GROUPS = load_groups(payload.shipment)
    _WORKER_CONFIG = config
    _WORKER_FLAGS = payload.flags
    _WORKER_KIND = payload.kind
    _WORKER_ORDER = payload.order
    _WORKER_SPANS = payload.spans
    _WORKER_INDEX = None
    if payload.index_arrays is not None:
        from ..index.rtree import FlatRTree

        _WORKER_INDEX = FlatRTree.from_arrays(load_arrays(payload.index_arrays))
    # Record columns for the batch kernel: candidate slabs and two-phase
    # pair chunks use them, exchange-mode pair chunks compare pair by pair.
    _WORKER_COLUMNS = None
    if payload.kind == "candidates" or config.exchange_interval == 0:
        _WORKER_COLUMNS = RecordColumns.of_groups(_WORKER_GROUPS)
    _WORKER_LEDGER = None
    if payload.owners is not None:
        _WORKER_LEDGER = ChunkLedger(
            payload.owners, payload.claimed, payload.lock
        )
    _WORKER_FAULT = None
    if payload.faults is not None:
        _WORKER_FAULT = payload.faults.arm(payload.fault_state)
    _WORKER_COMPARATOR = comparator_for(config)
    # Observability hand-off.  A fork-started worker inherits the parent's
    # tracer and run-log handle; recording into either from here would
    # corrupt parent state (duplicate sink emits, interleaved writes).
    # Each worker therefore gets its own tracer parented on the shipped
    # TraceContext — or the no-op tracer when the parent wasn't tracing —
    # and a silenced run log (pool lifecycle is the parent's to record).
    if payload.trace is not None:
        obs_tracing.set_tracer(Tracer(context=payload.trace))
    else:
        obs_tracing.set_tracer(obs_tracing.NOOP_TRACER)
    obs_runlog.set_runlog(obs_runlog.NOOP_RUNLOG)


def _run_chunk(
    span: Tuple[int, int], slot: int = -1, stolen: bool = False
) -> ChunkOutcome:
    """Task body executed in a pool worker: one chunk, counters reset.

    When the worker tracer records (the parent shipped a
    :class:`~repro.obs.tracing.TraceContext`), the chunk runs inside a
    ``parallel.chunk`` span carrying the span bounds, the kernel kind and
    the scheduling telemetry (slot / stolen / pid); its serialized form
    travels back in :attr:`ChunkOutcome.spans` for the parent to graft
    onto its own tree.
    """
    assert _WORKER_GROUPS is not None and _WORKER_COMPARATOR is not None
    if _WORKER_FAULT is not None:
        _WORKER_FAULT.maybe_fire()
    config = _WORKER_CONFIG
    comparator = _WORKER_COMPARATOR
    comparator.reset_stats()
    chunk_span = obs_tracing.get_tracer().span(
        "parallel.chunk",
        start=span[0],
        stop=span[1],
        kind=_WORKER_KIND,
        slot=slot,
        stolen=stolen,
        pid=os.getpid(),
    )
    started = time.perf_counter()
    skipped = 0
    window_queries = 0
    index_candidates = 0
    with chunk_span:
        if _WORKER_KIND == "candidates":
            verdicts, window_queries, index_candidates = compare_candidate_span(
                _WORKER_GROUPS,
                comparator,
                _WORKER_INDEX,
                _WORKER_ORDER,
                span,
                columns=_WORKER_COLUMNS,
            )
        else:
            verdicts, skipped = compare_span(
                _WORKER_GROUPS,
                comparator,
                span,
                prune_policy=config.prune_policy,
                flags=_WORKER_FLAGS,
                exchange_interval=config.exchange_interval,
                columns=_WORKER_COLUMNS,
            )
        if chunk_span.is_recording:
            chunk_span.set_attribute("verdicts", len(verdicts))
            chunk_span.set_attribute("comparisons", comparator.comparisons)
            chunk_span.set_attribute(
                "pairs_examined", comparator.pairs_examined
            )
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
        stolen=stolen,
    )
    if chunk_span.is_recording:
        outcome.spans = [chunk_span.to_dict()]
    return outcome


def _steal_loop(slot: int) -> Tuple[List[ChunkOutcome], WorkerReport]:
    """Long-running task for one worker slot under the stealing scheduler.

    The slot drains its own chunk queue front-to-back, then steals small
    chunks from the tails of the most-loaded victims until the shared
    ledger is empty.  Returns the chunk outcomes plus the slot's
    scheduling telemetry.
    """
    assert _WORKER_LEDGER is not None and _WORKER_SPANS is not None
    report = WorkerReport(slot=slot, worker_pid=os.getpid())
    outcomes: List[ChunkOutcome] = []
    while True:
        idle_from = time.perf_counter()
        claim = _WORKER_LEDGER.claim(slot)
        report.idle_seconds += time.perf_counter() - idle_from
        if claim is None:
            break
        chunk_id, stolen = claim
        outcome = _run_chunk(tuple(_WORKER_SPANS[chunk_id]), slot, stolen)
        outcomes.append(outcome)
        report.chunks_done += 1
        if stolen:
            report.chunks_stolen += 1
        report.busy_seconds += outcome.elapsed_seconds
        report.chunk_seconds.append(outcome.elapsed_seconds)
    return outcomes, report


def _reports_from_outcomes(outcomes: List[ChunkOutcome]) -> List[WorkerReport]:
    """Synthesise per-process reports for static runs (no ledger)."""
    by_pid: Dict[int, WorkerReport] = {}
    for slot, outcome in enumerate(outcomes):
        report = by_pid.get(outcome.worker_pid)
        if report is None:
            report = WorkerReport(slot=len(by_pid), worker_pid=outcome.worker_pid)
            by_pid[outcome.worker_pid] = report
        report.chunks_done += 1
        report.busy_seconds += outcome.elapsed_seconds
        report.chunk_seconds.append(outcome.elapsed_seconds)
    return list(by_pid.values())


def _resolve_shm(shm: Optional[bool], start_method: str) -> bool:
    """Auto policy: shm on spawn-family platforms, inheritance under fork."""
    if shm is None:
        return start_method != "fork" and shm_available()
    return bool(shm) and shm_available()


def _timeout_error(
    pool_timeout: float, workers: int, chunks: int, scheduler: str
) -> PoolTimeoutError:
    return PoolTimeoutError(
        f"parallel skyline pool produced no result within"
        f" {pool_timeout:.0f}s ({workers} workers,"
        f" {chunks} chunks, scheduler={scheduler});"
        f" pool terminated"
    )


#: How often the parent samples pool progress while a ``progress``
#: callback is installed (seconds).
_PROGRESS_POLL_SECONDS = 0.2

#: How often the parent checks worker liveness while draining results —
#: the detection latency for a crashed worker is a few of these, seconds
#: at most, regardless of ``pool_timeout``.
_LIVENESS_POLL_SECONDS = 0.25


def _watch_workers(pool, known: Dict[int, Any]) -> List[Tuple[int, int]]:
    """Track the pool's worker processes; return newly dead ones.

    ``known`` accumulates every worker ``Process`` ever seen in
    ``pool._pool`` (the pool replaces dead workers, so the live list
    alone forgets casualties).  While results are outstanding no worker
    legitimately exits — the pool is neither closing nor recycling
    (``maxtasksperchild`` unset) — so *any* recorded exitcode means a
    crash (negative = killed by a signal, e.g. the OOM killer).
    """
    dead: List[Tuple[int, int]] = []
    for proc in list(getattr(pool, "_pool", ())):
        if proc.pid is not None:
            known.setdefault(proc.pid, proc)
    for pid, proc in list(known.items()):
        exitcode = proc.exitcode
        if exitcode is not None:
            dead.append((pid, exitcode))
            del known[pid]
    return dead


def _collect_results(
    pool,
    task_fn: Callable,
    tasks: Sequence,
    pool_timeout: float,
    *,
    scheduler: str,
    workers: int,
    total_chunks: int,
    attempt_chunks: int,
    claimed,
    progress: Optional[Callable[[int, int], None]],
    done_offset: int = 0,
) -> List:
    """Drain the pool, polling worker liveness between deliveries.

    Results stream back through ``imap_unordered`` (the caller restores
    deterministic chunk order afterwards); between deliveries the parent
    wakes every :data:`_LIVENESS_POLL_SECONDS` to check the worker
    processes and, when a ``progress`` callback is installed, report
    ``(chunks_done, chunks_total)`` — under the stealing scheduler from
    the shared claim table (claims lead completion by at most one
    in-flight chunk per worker), under the static scheduler from the
    completion count.

    Failure modes: a dead worker raises :class:`_AttemptFailure` (with
    the partial results and the casualty list) within a poll tick or
    two; a chunk that raised in a surviving worker arrives as its
    exception and is wrapped the same way; total silence past
    ``pool_timeout`` raises :class:`PoolTimeoutError`.
    """
    deadline = time.monotonic() + pool_timeout
    poll = _LIVENESS_POLL_SECONDS
    if progress is not None:
        poll = min(poll, _PROGRESS_POLL_SECONDS)
    iterator = pool.imap_unordered(task_fn, tasks, chunksize=1)
    results: List = []
    known: Dict[int, Any] = {}
    _watch_workers(pool, known)  # snapshot the initial worker set
    last_liveness = time.monotonic()

    def _check_liveness() -> None:
        dead = _watch_workers(pool, known)
        if dead:
            raise _AttemptFailure(results, dead, None) from None

    def _report(done_now: int) -> None:
        if progress is None:
            return
        if scheduler == "stealing" and claimed is not None:
            done_now = min(int(sum(claimed)), attempt_chunks)
        progress(min(done_offset + done_now, total_chunks), total_chunks)

    while len(results) < len(tasks):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise _timeout_error(
                pool_timeout, workers, total_chunks, scheduler
            ) from None
        try:
            results.append(iterator.next(timeout=min(poll, remaining)))
        except mp.TimeoutError:
            last_liveness = time.monotonic()
            _check_liveness()
            _report(len(results))
            continue
        except Exception as exc:
            # A chunk raised inside a surviving worker and the traceback
            # travelled back through the pool; the rest of the attempt's
            # chunks are unaccounted for — same recovery as a crash.
            raise _AttemptFailure(results, [], exc) from exc
        if time.monotonic() - last_liveness >= _LIVENESS_POLL_SECONDS:
            # Results streaming from surviving workers must not starve
            # crash detection — a casualty still surfaces within a tick.
            last_liveness = time.monotonic()
            _check_liveness()
        _report(len(results))
    return results


def _normalize_results(results: List, scheduler: str):
    """Flatten attempt results to ``(outcomes, reports)``.

    Static results are already :class:`ChunkOutcome`\\ s (reports are
    synthesised at the end of the run); stealing results are one
    ``(outcomes, report)`` pair per worker slot.
    """
    if scheduler != "stealing":
        return list(results), []
    outcomes: List[ChunkOutcome] = []
    reports: List[WorkerReport] = []
    for slot_outcomes, report in results:
        outcomes.extend(slot_outcomes)
        reports.append(report)
    return outcomes, reports


def _pool_counter(name: str, help: str):
    """Fault-tolerance counter, labelled by scheduler and kernel kind."""
    return obs_metrics.get_registry().counter(name, help, ("scheduler", "kind"))


def _crash_error(
    dead: List[Tuple[int, int]],
    lost_spans: Sequence[Tuple[int, int]],
    workers: int,
    scheduler: str,
) -> WorkerCrashError:
    pids = [pid for pid, _ in dead]
    codes = [code for _, code in dead]
    detail = ", ".join(
        f"pid {pid} ({_signal_name(code) or f'exit {code}'})"
        for pid, code in dead
    )
    return WorkerCrashError(
        f"pool worker crashed mid-run: {detail};"
        f" {len(lost_spans)} chunk(s) undelivered"
        f" ({workers} workers, scheduler={scheduler})",
        pids=pids,
        exitcodes=codes,
        lost_spans=lost_spans,
    )


def execute_span_inline(
    groups, comparator, config: WorkerConfig, kind, index, order, flags, span,
    columns: RecordColumns,
) -> ChunkOutcome:
    """Run one chunk on the parent's serial engine (retry/fallback path).

    Same kernel, same deterministic span, a fresh comparator reset per
    chunk — the resulting :class:`ChunkOutcome` (verdicts *and* work
    counters) is bit-identical to what a pool worker would have returned,
    so the merge and ``AlgorithmStats`` reconciliation are unaffected by
    where the chunk actually ran.  Besides the retry layer here, the
    persistent engine (:mod:`repro.engine`) uses this as its last-resort
    fallback when every worker slot has exhausted its respawn budget.
    ``columns`` are the groups' record columns, built once per fallback.
    """
    comparator.reset_stats()
    started = time.perf_counter()
    skipped = 0
    window_queries = 0
    index_candidates = 0
    if kind == "candidates":
        verdicts, window_queries, index_candidates = compare_candidate_span(
            groups, comparator, index, order, span, columns=columns
        )
    else:
        verdicts, skipped = compare_span(
            groups,
            comparator,
            span,
            prune_policy=config.prune_policy,
            flags=flags,
            exchange_interval=config.exchange_interval,
            columns=columns,
        )
    return ChunkOutcome(
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
    )


def _pool_attempt(
    ctx,
    base: dict,
    spans_part: List[Tuple[int, int]],
    workers: int,
    *,
    scheduler: str,
    pool_timeout: float,
    progress,
    done_offset: int,
    total_chunks: int,
    owners,
    attempt: int,
    run_fields: dict,
):
    """One pool lifecycle over ``spans_part``: create, drain, tear down.

    Emits the paired run-log lifecycle events: every ``pool_start`` is
    closed by exactly one of ``pool_end`` (success), ``pool_timeout``, or
    — for any other failure, including crashes, worker tracebacks and
    ``KeyboardInterrupt`` — a ``pool_error`` recorded by this function or
    by :func:`run_spans`'s failure handling.  Teardown discipline: a
    clean attempt uses ``close()`` + ``join()`` so workers run their own
    teardown (shm handle close, ``atexit`` hooks, coverage flushes under
    spawn); ``terminate()`` is reserved for the failure paths.
    """
    payload = _PoolPayload(trace=obs_tracing.current_trace_context(), **base)
    if scheduler == "stealing":
        if owners is None:
            owners = assign_owners(len(spans_part), workers)
        payload.spans = tuple((int(a), int(b)) for a, b in spans_part)
        payload.owners = tuple(tuple(queue) for queue in owners)
        payload.claimed = sharedctypes.RawArray("B", len(spans_part))
        payload.lock = ctx.Lock()
        tasks: Sequence = list(range(workers))
        task_fn: Callable = _steal_loop
    else:
        tasks = list(spans_part)
        task_fn = _run_chunk
    pool = ctx.Pool(
        processes=workers, initializer=_init_pool, initargs=(payload,)
    )
    obs_runlog.emit(
        "pool_start",
        workers=workers,
        scheduler=scheduler,
        chunks=len(spans_part),
        attempt=attempt,
        **run_fields,
    )
    pool_started = time.perf_counter()
    try:
        results = _collect_results(
            pool,
            task_fn,
            tasks,
            pool_timeout,
            scheduler=scheduler,
            workers=workers,
            total_chunks=total_chunks,
            attempt_chunks=len(spans_part),
            claimed=payload.claimed,
            progress=progress,
            done_offset=done_offset,
        )
    except PoolTimeoutError:
        pool.terminate()
        pool.join()
        obs_runlog.emit(
            "pool_timeout",
            workers=workers,
            scheduler=scheduler,
            chunks=len(spans_part),
            timeout_seconds=pool_timeout,
            attempt=attempt,
        )
        raise
    except _AttemptFailure:
        pool.terminate()
        pool.join()
        raise  # run_spans emits the pool_error with full context
    except BaseException as exc:
        # Anything else escaping the drain loop — KeyboardInterrupt
        # included — must not leave a dangling pool_start in the log.
        pool.terminate()
        pool.join()
        obs_runlog.emit_error(
            "pool_error",
            exc,
            workers=workers,
            scheduler=scheduler,
            chunks=len(spans_part),
            attempt=attempt,
        )
        raise
    pool.close()
    pool.join()
    obs_runlog.emit(
        "pool_end",
        workers=workers,
        scheduler=scheduler,
        chunks=len(spans_part),
        elapsed_seconds=time.perf_counter() - pool_started,
        attempt=attempt,
    )
    return _normalize_results(results, scheduler)


def run_spans(
    groups: Sequence[Group],
    config: WorkerConfig,
    spans: Sequence[Tuple[int, int]],
    workers: int,
    *,
    pool_timeout: float = 300.0,
    scheduler: str = "static",
    shm: Optional[bool] = None,
    kind: str = "pairs",
    index=None,
    order: Optional[Sequence[int]] = None,
    owners: Optional[Sequence[Sequence[int]]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.1,
    on_failure: str = "raise",
    faults: Optional[FaultSpec] = None,
) -> PoolRun:
    """Run ``spans`` on a pool under the chosen scheduler and shipping mode.

    The general entry point behind both ``PAR`` and the parallel IN/LO
    path.  ``kind="pairs"`` interprets spans as linear pair-index ranges
    (:func:`compare_span`); ``kind="candidates"`` as slabs of positions
    into ``order`` (:func:`compare_candidate_span`, requires ``index`` —
    a :class:`~repro.index.rtree.FlatRTree` — and ``order``).

    ``scheduler="static"`` streams the spans through the pool one chunk
    per task; ``"stealing"`` ships the whole span list plus a shared
    claim table and runs one :func:`_steal_loop` per worker slot
    (``owners`` may pre-assign chunk queues; defaults to round-robin).

    ``shm=None`` auto-selects shared-memory shipping on spawn platforms.
    A wedged pool raises :class:`PoolTimeoutError` after ``pool_timeout``
    seconds in every mode.

    Fault tolerance: worker liveness is polled while draining, so a dead
    worker surfaces within seconds as :class:`WorkerCrashError` instead
    of hanging to ``pool_timeout``.  ``on_failure`` decides what happens
    to a crash or a worker traceback: ``"raise"`` (default) fails fast;
    ``"retry"`` re-executes only the undelivered chunks on a fresh pool,
    up to ``max_retries`` times with exponential backoff starting at
    ``retry_backoff`` seconds, then raises; ``"serial"`` is ``"retry"``
    plus a final inline re-run of whatever is still missing on the
    parent's serial engine, so the run completes regardless.  Retried and
    fallback chunks are the same deterministic spans through the same
    kernel, so a recovered run's results and counters are bit-identical
    to an undisturbed one.  ``faults`` (or ``$REPRO_FAULTS``) injects
    worker failures for tests and demos — see :mod:`repro.parallel.faults`.

    ``progress`` is called periodically with ``(chunks_done,
    chunks_total)`` while the pool runs (see :func:`_collect_results`).
    When the caller has tracing enabled and a span open, its
    :class:`~repro.obs.tracing.TraceContext` is shipped to the workers so
    their per-chunk spans come back in :attr:`ChunkOutcome.spans`; pool
    lifecycle (``pool_start`` / ``pool_end`` / ``pool_timeout`` /
    ``pool_error`` / ``chunk_retry`` / ``pool_fallback``) goes to the
    structured run log.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if kind not in ("pairs", "candidates"):
        raise ValueError(f"kind must be 'pairs' or 'candidates', got {kind!r}")
    if kind == "candidates" and (index is None or order is None):
        raise ValueError("kind='candidates' requires index and order")
    if scheduler not in ("static", "stealing"):
        raise ValueError(
            f"scheduler must be 'static' or 'stealing', got {scheduler!r}"
        )
    if on_failure not in ON_FAILURE_POLICIES:
        raise ValueError(
            f"on_failure must be one of {ON_FAILURE_POLICIES}, got {on_failure!r}"
        )
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if retry_backoff < 0:
        raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
    if not spans:
        return PoolRun()
    start_method = preferred_start_method()
    ctx = mp.get_context(start_method)
    use_shm = _resolve_shm(shm, start_method)
    if faults is None:
        faults = FaultSpec.from_env()
    fault_state = ctx.Value("i", 0) if faults is not None else None
    flags = (
        sharedctypes.RawArray("B", len(groups))
        if kind == "pairs" and config.exchange_interval > 0
        else None
    )
    arena = ShmArena() if use_shm else None
    tracer = obs_tracing.get_tracer()
    labels = {"scheduler": scheduler, "kind": kind}
    try:
        shipment = ship_groups(groups, arena)
        index_arrays = None
        if index is not None:
            index_arrays = ship_arrays(index.arrays(), arena)
        base = dict(
            shipment=shipment,
            config=config,
            kind=kind,
            flags=flags,
            index_arrays=index_arrays,
            order=tuple(order) if order is not None else None,
            faults=faults,
            fault_state=fault_state,
        )
        run_fields = dict(
            start_method=start_method, kind=kind, shm=bool(use_shm)
        )
        all_spans = [(int(a), int(b)) for a, b in spans]
        remaining: List[Tuple[int, int]] = list(all_spans)
        outcomes: List[ChunkOutcome] = []
        reports: List[WorkerReport] = []
        attempt = 0
        while remaining:
            attempt_kwargs = dict(
                scheduler=scheduler,
                pool_timeout=pool_timeout,
                progress=progress,
                done_offset=len(outcomes),
                total_chunks=len(all_spans),
                owners=owners if attempt == 0 else None,
                attempt=attempt,
                run_fields=run_fields,
            )
            try:
                if attempt:
                    with tracer.span(
                        "parallel.retry", attempt=attempt, chunks=len(remaining)
                    ):
                        part_outcomes, part_reports = _pool_attempt(
                            ctx, base, remaining, workers, **attempt_kwargs
                        )
                else:
                    part_outcomes, part_reports = _pool_attempt(
                        ctx, base, remaining, workers, **attempt_kwargs
                    )
            except _AttemptFailure as failure:
                part_outcomes, part_reports = _normalize_results(
                    failure.partial, scheduler
                )
                outcomes.extend(part_outcomes)
                reports.extend(part_reports)
                done = {(o.start, o.stop) for o in outcomes}
                remaining = [s for s in remaining if s not in done]
                crash = _crash_error(failure.dead, remaining, workers, scheduler)
                error: BaseException = (
                    crash if failure.dead else failure.cause
                )
                obs_runlog.emit(
                    "pool_error",
                    error=type(error).__name__,
                    message=str(error),
                    workers=workers,
                    scheduler=scheduler,
                    kind=kind,
                    attempt=attempt,
                    crashed_pids=list(crash.pids),
                    signals=[s for s in crash.signals if s],
                    lost_chunks=len(remaining),
                )
                if failure.dead:
                    _pool_counter(
                        "worker_crashes_total",
                        "Pool worker processes that died mid-run",
                    ).inc(len(failure.dead), **labels)
                if on_failure == "raise":
                    raise error
                if attempt < max_retries:
                    attempt += 1
                    delay = retry_backoff * (2 ** (attempt - 1))
                    obs_runlog.emit(
                        "chunk_retry",
                        attempt=attempt,
                        max_retries=max_retries,
                        chunks=len(remaining),
                        backoff_seconds=delay,
                        scheduler=scheduler,
                        kind=kind,
                    )
                    _pool_counter(
                        "chunk_retries_total",
                        "Chunks re-executed after a pool failure",
                    ).inc(len(remaining), **labels)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                if on_failure == "serial":
                    obs_runlog.emit(
                        "pool_fallback",
                        chunks=len(remaining),
                        attempts=attempt + 1,
                        scheduler=scheduler,
                        kind=kind,
                    )
                    _pool_counter(
                        "pool_fallbacks_total",
                        "Pooled runs finished on the parent's serial engine",
                    ).inc(1, **labels)
                    with tracer.span(
                        "parallel.serial_fallback", chunks=len(remaining)
                    ):
                        comparator = comparator_for(config)
                        columns = RecordColumns.of_groups(groups)
                        for lost in remaining:
                            outcomes.append(
                                execute_span_inline(
                                    groups, comparator, config, kind,
                                    index, order, flags, lost, columns,
                                )
                            )
                    if progress is not None:
                        progress(len(all_spans), len(all_spans))
                    remaining = []
                    continue
                raise error from failure.cause
            else:
                outcomes.extend(part_outcomes)
                reports.extend(part_reports)
                remaining = []
    finally:
        if arena is not None:
            arena.close()
    # Deterministic merge order regardless of scheduler, steal order,
    # delivery order and which attempt (or the fallback) ran each chunk.
    outcomes.sort(key=lambda outcome: (outcome.start, outcome.stop))
    if reports:
        reports.sort(key=lambda report: (report.slot, report.worker_pid))
    else:
        reports = _reports_from_outcomes(outcomes)
    return PoolRun(outcomes=outcomes, reports=reports)


def map_tasks(
    task_fn: Callable,
    items: Sequence,
    workers: int,
    pool_timeout: float = 300.0,
) -> List:
    """Map picklable ``items`` over a pool with the shared failure mode.

    Generic helper for coarse-grained fan-out (the partitioned baseline's
    local phase): same start-method resolution, the same
    :class:`PoolTimeoutError` fail-fast as the chunk executor, and the
    same liveness poll — a dead worker raises :class:`WorkerCrashError`
    within seconds instead of hanging to ``pool_timeout``.  (No chunk
    retry here: items are opaque, so the caller owns re-execution.)
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    items = list(items)
    if not items:
        return []
    ctx = mp.get_context(preferred_start_method())
    pool = ctx.Pool(processes=workers)
    try:
        pending = pool.map_async(task_fn, items, chunksize=1)
        deadline = time.monotonic() + pool_timeout
        known: Dict[int, Any] = {}
        _watch_workers(pool, known)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise PoolTimeoutError(
                    f"worker pool produced no result within {pool_timeout:.0f}s"
                    f" ({workers} workers, {len(items)} tasks); pool terminated"
                ) from None
            try:
                results = pending.get(
                    timeout=min(_LIVENESS_POLL_SECONDS, remaining)
                )
            except mp.TimeoutError:
                dead = _watch_workers(pool, known)
                if dead:
                    raise _crash_error(
                        dead, (), workers, "static"
                    ) from None
                continue
            break
    except BaseException:
        pool.terminate()
        pool.join()
        raise
    # Clean teardown: let workers run their exit hooks (see run_spans).
    pool.close()
    pool.join()
    return results
