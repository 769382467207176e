"""The persistent worker pool behind :class:`repro.engine.SkylineEngine`.

The one-shot executor (:mod:`repro.parallel.executor`) builds a fresh
``multiprocessing.Pool`` per run and ships the dataset through the pool
initializer — correct, but every query pays interpreter spawn, payload
shipping and worker-side ``Group`` materialisation again.  This module
keeps the worker processes *alive across queries*:

* **slots** — the pool is a fixed set of worker slots, each one long-lived
  ``Process`` with one inbox pipe that carries its control messages and
  its chunk tasks in send order; the worker's only blocking call is an
  untimed ``recv()`` on it.  The parent's router thread keeps one FIFO
  backlog of ``(qid, span)`` tasks and tops every live slot up to two
  tasks (one running, one queued) as deliveries come back, so a drained
  worker is fed from the shared tail without waiting on any poll (the
  engine analogue of the work-stealing scheduler).  A slot gets a
  query's ``prepare`` right before that query's first task, in the same
  pipe, and its ``finish`` when the query ends.  The parent writes the
  pipe itself, under the pool lock, with no feeder thread in between.
* **attach once** — a dataset is shipped once (``ShmArena`` segments when
  shared memory is available, pickled inline otherwise) and pinned in
  every worker under a token; packed R-tree arrays and candidate orders
  are pinned the same way, keyed by content digest, so repeat queries
  ship nothing but tiny ``(qid, span)`` tuples.
* **surviving-pool reuse** — when a worker dies the pool respawns *only
  the dead slot*: the survivors keep their pids and their pinned state,
  the replacement replays the attach/pin log, and exactly the tasks the
  dead slot held go back to the front of the backlog.  Duplicated deliveries are harmless — chunks are
  deterministic, the parent keeps the first result per span.
* **per-worker retry budgets** — each slot may be respawned at most
  ``max_respawns`` times over the pool's lifetime (not per run).  A slot
  that exhausts its budget is retired; the pool narrows.  When every slot
  is gone the query either finishes inline on the parent
  (``on_failure="serial"``) or raises
  :class:`~repro.parallel.executor.WorkerCrashError`.
* **concurrent admission** — many threads may call :meth:`run_query`
  at once (the network front-end in :mod:`repro.net` does).  Every
  delivery is tagged ``(qid, span)``: the router thread drains the one
  shared result queue and routes each message to its
  query's pending record, deduplicating by span within the query, so
  interleaved chunk streams never cross.  Workers hold one
  ``_WorkerQuery`` per active qid — each query keeps its own
  comparator, reset per chunk — which is why interleaving does not
  perturb any ``AlgorithmStats`` counter.

Determinism: chunks execute the exact kernels of the one-shot executor
(:func:`~repro.parallel.executor.compare_span` /
:func:`~repro.parallel.executor.compare_candidate_span`) with a fresh
comparator reset per chunk, and the parent merges outcomes in span order —
so results *and every work counter* are bit-identical to a cold serial
run, regardless of scheduling, crashes and respawns.

Telemetry rides the obs v2 vocabulary: ``slot_respawn`` run-log events,
``engine_*`` metrics counters and worker-side ``parallel.chunk`` trace
spans grafted back through :attr:`ChunkOutcome.spans`.
"""

from __future__ import annotations

import multiprocessing as mp
import hashlib
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from queue import Empty
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..core.comparator import RecordColumns
from ..obs import metrics as obs_metrics
from ..obs import runlog as obs_runlog
from ..obs import tracing as obs_tracing
from ..obs.tracing import TraceContext, Tracer
from ..parallel.executor import (
    ChunkOutcome,
    PoolTimeoutError,
    WorkerConfig,
    WorkerCrashError,
    _signal_name,
    comparator_for,
    compare_candidate_span,
    compare_span,
    preferred_start_method,
)
from ..parallel.faults import FaultSpec
from ..parallel.shm import (
    ArrayRef,
    ShmArena,
    detach_all,
    load_arrays,
    load_groups,
    ship_arrays,
    ship_groups,
    shm_available,
)

__all__ = ["PersistentPool", "EngineClosedError"]


class EngineClosedError(RuntimeError):
    """The engine (or its pool) was used after :meth:`close`."""


#: Parent-side liveness cadence while draining results (mirrors the
#: one-shot executor's ``_LIVENESS_POLL_SECONDS``).
_LIVENESS_POLL_SECONDS = 0.25

#: Tasks a live slot holds at most: one running and one queued behind it,
#: so a worker never idles while its next task crosses the pipe.
_SLOT_DEPTH = 2


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


class _WorkerQuery:
    """Per-query state inside one worker: comparator, kernel inputs, tracer."""

    __slots__ = (
        "config",
        "kind",
        "groups",
        "index",
        "order",
        "columns",
        "comparator",
        "tracer",
    )

    def __init__(self, config, kind, groups, index, order, columns, trace_ctx):
        self.config = config
        self.kind = kind
        self.groups = groups
        self.index = index
        self.order = order
        self.columns = columns
        self.comparator = comparator_for(config)
        self.tracer = (
            Tracer(context=trace_ctx)
            if trace_ctx is not None
            else obs_tracing.NOOP_TRACER
        )


def _execute_worker_chunk(query: _WorkerQuery, span, slot: int, fault) -> ChunkOutcome:
    """One chunk in an engine worker — mirrors the executor's ``_run_chunk``
    exactly (fresh counter reset, same kernels, same outcome fields), so a
    warm chunk is bit-identical to a cold pool or inline chunk."""
    if fault is not None:
        fault.maybe_fire()
    comparator = query.comparator
    comparator.reset_stats()
    chunk_span = query.tracer.span(
        "parallel.chunk",
        start=span[0],
        stop=span[1],
        kind=query.kind,
        slot=slot,
        stolen=False,
        pid=os.getpid(),
    )
    started = time.perf_counter()
    skipped = 0
    window_queries = 0
    index_candidates = 0
    with chunk_span:
        if query.kind == "candidates":
            verdicts, window_queries, index_candidates = compare_candidate_span(
                query.groups,
                comparator,
                query.index,
                query.order,
                span,
                columns=query.columns,
            )
        else:
            verdicts, skipped = compare_span(
                query.groups,
                comparator,
                span,
                prune_policy=query.config.prune_policy,
                columns=query.columns,
            )
        if chunk_span.is_recording:
            chunk_span.set_attribute("verdicts", len(verdicts))
            chunk_span.set_attribute("comparisons", comparator.comparisons)
            chunk_span.set_attribute("pairs_examined", comparator.pairs_examined)
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
        stolen=False,
    )
    if chunk_span.is_recording:
        outcome.spans = [chunk_span.to_dict()]
    return outcome


class _WorkerState:
    """Everything a long-lived engine worker accumulates."""

    def __init__(self):
        self.groups: Dict[str, list] = {}  # token -> List[Group]
        #: token -> RecordColumns, built at the attached dataset's first
        #: query (the batch kernel's input), dropped at detach
        self.columns: Dict[str, RecordColumns] = {}
        self.pinned: Dict[str, Any] = {}  # digest key -> index / order
        self.queries: Dict[int, _WorkerQuery] = {}


def _worker_handle_ctrl(state: _WorkerState, msg, slot: int, results) -> None:
    kind = msg[0]
    if kind == "attach":
        _, token, shipment = msg
        state.groups[token] = load_groups(shipment)
        results.put(("ack", slot, os.getpid(), token))
    elif kind == "pin":
        _, key, tag, payload = msg
        if tag == "index":
            from ..index.rtree import FlatRTree

            state.pinned[key] = FlatRTree.from_arrays(load_arrays(payload))
        else:  # "order"
            if isinstance(payload, ArrayRef):
                from ..parallel.shm import attach_array

                state.pinned[key] = attach_array(payload)
            else:
                state.pinned[key] = payload
        results.put(("ack", slot, os.getpid(), key))
    elif kind == "prepare":
        _, qid, token, config, qkind, index_key, order_key, trace_ctx = msg
        # Candidate slabs and (always two-phase) pair chunks both run on
        # the batch kernel.
        columns = state.columns.get(token)
        if columns is None:
            columns = RecordColumns.of_groups(state.groups[token])
            state.columns[token] = columns
        state.queries[qid] = _WorkerQuery(
            config,
            qkind,
            state.groups[token],
            state.pinned[index_key] if index_key is not None else None,
            state.pinned[order_key] if order_key is not None else None,
            columns,
            trace_ctx,
        )
    elif kind == "finish":
        _, qid = msg
        state.queries.pop(qid, None)
    elif kind == "detach":
        _, token, keys = msg
        state.groups.pop(token, None)
        state.columns.pop(token, None)
        for key in keys:
            state.pinned.pop(key, None)
        results.put(("ack", slot, os.getpid(), token))


def _engine_worker_main(slot, inbox, results, faults, fault_state) -> None:
    """Main loop of one engine worker slot.

    Everything arrives on the slot's ``inbox`` pipe in send order:
    control messages (attach / pin / prepare / finish / detach / stop)
    and chunk tasks ``("task", qid, span)``.  The parent sends a query's
    prepare before its first task here and its finish after the last,
    so a task always finds its query prepared, and every task gets
    exactly one reply.

    Observability mirrors the pool initializer: the run log is silenced,
    the global tracer is a no-op, and each query carries its own
    :class:`TraceContext` so worker chunk spans graft back onto the
    parent trace.
    """
    obs_runlog.set_runlog(obs_runlog.NOOP_RUNLOG)
    obs_tracing.set_tracer(obs_tracing.NOOP_TRACER)
    fault = faults.arm(fault_state) if faults is not None else None
    state = _WorkerState()
    try:
        while True:
            try:
                msg = inbox.recv()
            except EOFError:  # the parent closed the pipe without a stop
                break
            kind = msg[0]
            if kind == "stop":
                break
            if kind != "task":
                _worker_handle_ctrl(state, msg, slot, results)
                continue
            _, qid, span = msg
            try:
                outcome = _execute_worker_chunk(state.queries[qid], span, slot, fault)
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                results.put(("chunk_error", slot, os.getpid(), qid, span, exc))
                continue
            results.put(("chunk", slot, os.getpid(), qid, outcome))
    finally:
        detach_all()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


@dataclass
class _Slot:
    """One worker slot: its live process, inbox, tasks and retry budget."""

    index: int
    process: Any
    inbox: Any
    pid: int
    #: ``(qid, span)`` tasks sent to this process and not yet answered,
    #: in send order (at most ``_SLOT_DEPTH``)
    outstanding: List[Tuple[int, Tuple[int, int]]] = field(default_factory=list)
    #: qids whose prepare this process has been sent and no finish yet
    prepared: Set[int] = field(default_factory=set)
    respawns: int = 0
    failures: int = 0  # worker tracebacks charged against the budget
    disabled: bool = False


def _release_pool_state(state: Dict[str, list]) -> None:
    """GC / exit-time cleanup: kill processes, close queues and pipes,
    free segments.

    Idempotent and exception-safe; registered through ``weakref.finalize``
    so an engine that is never closed still cannot leak processes, pipe
    feeder threads or ``/dev/shm`` segments.
    """
    for proc in state.get("processes", ()):
        try:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    state["processes"] = []
    for q in state.get("queues", ()):
        try:
            q.close()
            q.cancel_join_thread()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    state["queues"] = []
    for conn in state.get("pipes", ()):
        conn.close()
    state["pipes"] = []
    for arena in state.get("arenas", ()):
        try:
            arena.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    state["arenas"] = []


def _engine_counter(name: str, help_text: str):
    return obs_metrics.get_registry().counter(name, help_text, ())


class _AckWait:
    """One thread blocked on attach/pin acknowledgements from every slot."""

    __slots__ = ("key", "pending", "cond", "error")

    def __init__(self, key: str, pending: Set[int], cond: "threading.Condition"):
        self.key = key
        self.pending = pending  # slot indices still owing an ack
        self.cond = cond
        self.error: Optional[BaseException] = None


class _PendingQuery:
    """Parent-side record of one in-flight query on the shared pool.

    The router thread owns delivery: it moves spans out of
    ``outstanding`` into ``outcomes`` (worker deliveries, deduplicated
    by span) or ``inline`` (serial-fallback spans the *waiting* thread
    must execute itself — chunk kernels never run on the router).  All
    fields are guarded by the pool lock; ``cond`` shares it.
    """

    __slots__ = (
        "qid", "prepare", "outstanding", "outcomes", "inline", "total",
        "on_failure", "progress", "inline_fallback", "cond", "error",
    )

    def __init__(
        self, qid, prepare, outstanding, total, on_failure, progress,
        inline_fallback, cond,
    ):
        self.qid = qid
        self.prepare = prepare  # sent to a slot before its first task
        self.outstanding: Set[Tuple[int, int]] = outstanding
        self.outcomes: List[ChunkOutcome] = []
        self.inline: List[Tuple[int, int]] = []
        self.total = total
        self.on_failure = on_failure
        self.progress = progress
        self.inline_fallback = inline_fallback
        self.cond = cond
        self.error: Optional[BaseException] = None

    def fail(self, exc: BaseException) -> None:
        if self.error is None:
            self.error = exc
        self.cond.notify_all()


class PersistentPool:
    """A fixed set of long-lived worker slots shared by many queries.

    Created by :class:`~repro.engine.SkylineEngine` at first attach and
    safe to use from many threads at once.  See the module docstring for
    the protocol and the fault model.
    """

    def __init__(
        self,
        workers: int,
        *,
        start_method: Optional[str] = None,
        shm: Optional[bool] = None,
        max_respawns: int = 2,
        faults: Optional[FaultSpec] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        self.workers = workers
        self.start_method = start_method or preferred_start_method()
        self._ctx = mp.get_context(self.start_method)
        # Workers outlive any single attach, so fork inheritance cannot
        # carry late-attached datasets: shared memory is the default
        # shipping path whenever the platform offers it.
        self.use_shm = shm_available() if shm is None else bool(shm) and shm_available()
        self.max_respawns = max_respawns
        self.total_respawns = 0
        self._faults = faults
        self._fault_state = self._ctx.Value("i", 0) if faults is not None else None
        self._results = self._ctx.Queue()
        #: ``(qid, span)`` tasks not yet sent to any slot, oldest first
        self._backlog: Deque[Tuple[int, Tuple[int, int]]] = deque()
        self._replay: List[tuple] = []  # attach/pin log replayed on respawn
        self._arenas: Dict[str, ShmArena] = {}
        self._pinned: Dict[str, tuple] = {}  # key -> (tag, strong payload ref)
        self._pin_keys_by_token: Dict[str, List[str]] = {}
        self._next_qid = 0
        self._closed = False
        # Concurrent admission: the pool lock guards qid allocation, the
        # backlog and every slot's sends, slot casualty handling, the
        # replay log and every pending record; the
        # ship lock serialises attach/pin shipping (rare, content-deduped)
        # so two threads never double-ship the same payload.
        self._lock = threading.Lock()
        self._ship_lock = threading.Lock()
        self._pending: Dict[int, _PendingQuery] = {}
        self._ack_waits: Dict[str, List[_AckWait]] = {}
        self._router_stop = False
        self._last_survey = time.monotonic()
        self._state = {
            "processes": [],
            "queues": [self._results],
            "pipes": [],
            "arenas": [],
        }
        self._finalizer = weakref.finalize(self, _release_pool_state, self._state)
        self._slots: List[_Slot] = [self._spawn_slot(i) for i in range(workers)]
        self._router = threading.Thread(
            target=self._route_loop, name="repro-engine-router", daemon=True
        )
        self._router.start()

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def live_slots(self) -> List[_Slot]:
        return [slot for slot in self._slots if not slot.disabled]

    @property
    def pids(self) -> List[int]:
        """Current pid of every non-retired slot (tests assert on these)."""
        return [slot.pid for slot in self.live_slots]

    def _spawn_slot(self, index: int) -> _Slot:
        """Start a worker for slot *index* (caller holds the pool lock, or
        is the constructor); its inbox first replays the attach/pin log.

        The parent keeps only the pipe's write end, so once the worker is
        gone a send fails with ``BrokenPipeError`` instead of filling the
        pipe and blocking.
        """
        reader, inbox = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_engine_worker_main,
            args=(index, reader, self._results, self._faults, self._fault_state),
            daemon=True,
            name=f"repro-engine-{index}",
        )
        try:
            process.start()
        finally:
            reader.close()
        self._state["processes"].append(process)
        self._state["pipes"].append(inbox)
        slot = _Slot(index=index, process=process, inbox=inbox, pid=process.pid)
        for msg in self._replay:
            self._send(slot, msg)
        return slot

    def close(self) -> None:
        """Stop the workers and release every owned resource (idempotent).

        The router goes first, woken by a sentinel on the result queue so
        it neither waits out its liveness poll nor mistakes the stopping
        workers for casualties.  Then a ``stop`` message lets each worker
        run its own teardown (shm detach), and the ``weakref.finalize``
        hook terminates stragglers, drops the queue feeder threads and
        unlinks the shared-memory arenas.
        """
        if self._closed:
            return
        self._closed = True
        self._router_stop = True
        router = getattr(self, "_router", None)
        if (
            router is not None
            and router.is_alive()
            and router is not threading.current_thread()
        ):
            self._results.put(("wake",))
            router.join(timeout=2.0)
        with self._lock:
            closed = EngineClosedError("the engine pool has been closed")
            for pending in self._pending.values():
                pending.fail(closed)
            for waits in self._ack_waits.values():
                for wait in waits:
                    wait.error = closed
                    wait.cond.notify_all()
            for slot in self.live_slots:
                self._send(slot, ("stop",))
        deadline = time.monotonic() + 5.0
        for slot in self.live_slots:
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
        self._finalizer()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise EngineClosedError("the engine pool has been closed")

    # ------------------------------------------------------------------
    # shipping: attach datasets, pin derived artifacts

    def attach(self, token: str, groups: Sequence, *, timeout: float = 300.0) -> bool:
        """Ship *groups* to every worker and pin them under *token*.

        Returns True when the payload travelled via shared memory.
        """
        self._require_open()
        with self._ship_lock:
            arena = None
            if self.use_shm:
                arena = ShmArena()
                self._arenas[token] = arena
                self._state["arenas"].append(arena)
            shipment = ship_groups(groups, arena)
            msg = ("attach", token, shipment)
            wait = self._ship(msg, token, replay=msg)
            self._await_acks(wait, timeout)
            return shipment.via_shm

    def detach(self, token: str, *, timeout: float = 300.0) -> None:
        """Drop the dataset and its pinned artifacts from every worker."""
        self._require_open()
        with self._ship_lock:
            with self._lock:
                keys = self._pin_keys_by_token.pop(token, [])
                msg = ("detach", token, tuple(keys))
                self._replay = [
                    m
                    for m in self._replay
                    if not (m[0] == "attach" and m[1] == token)
                    and not (m[0] == "pin" and m[1] in keys)
                ]
                for key in keys:
                    self._pinned.pop(key, None)
                wait = self._register_ack_wait(token)
                self._broadcast(msg)
            self._await_acks(wait, timeout)
            arena = self._arenas.pop(token, None)
            if arena is not None:
                arena.close()

    def pin_index(self, token: str, index, *, timeout: float = 300.0) -> str:
        """Pin a packed FlatRTree's arrays in every worker; returns its key.

        Keys are content digests, so the same cached artifact
        (:func:`repro.core.artifacts.packed_rtree` returns the same array
        dict across queries) ships exactly once per engine — including
        when two concurrent queries race to pin it.
        """
        arrays = index.arrays()
        digest = hashlib.blake2b(digest_size=12)
        for name in sorted(arrays):
            array = arrays[name]
            digest.update(name.encode())
            digest.update(str(array.shape).encode())
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
        key = f"{token}/index/{digest.hexdigest()}"
        with self._ship_lock:
            if key in self._pinned:
                return key
            payload = ship_arrays(arrays, self._arenas.get(token))
            self._pin(token, key, "index", payload, arrays, timeout)
        return key

    def pin_order(self, token: str, order: Sequence[int], *, timeout: float = 300.0) -> str:
        """Pin a candidate access order in every worker; returns its key."""
        import numpy as np

        array = np.asarray(list(order), dtype=np.int64)
        digest = hashlib.blake2b(array.tobytes(), digest_size=12).hexdigest()
        key = f"{token}/order/{digest}"
        with self._ship_lock:
            if key in self._pinned:
                return key
            arena = self._arenas.get(token)
            payload: Any
            if arena is not None:
                payload = arena.share(array)
            else:
                payload = tuple(int(i) for i in array)
            self._pin(token, key, "order", payload, array, timeout)
        return key

    def _pin(self, token, key, tag, payload, strong_ref, timeout) -> None:
        self._require_open()
        msg = ("pin", key, tag, payload)
        with self._lock:
            self._pinned[key] = (tag, strong_ref)
            self._pin_keys_by_token.setdefault(token, []).append(key)
            self._replay.append(msg)
            wait = self._register_ack_wait(key)
            self._broadcast(msg)
        self._await_acks(wait, timeout)

    def _ship(self, msg: tuple, ack_key: str, *, replay: Optional[tuple]) -> _AckWait:
        """Broadcast *msg* with the pool lock held; returns the ack wait.

        The wait is registered *before* the broadcast so the router
        cannot drop acks that race the registration.
        """
        with self._lock:
            if replay is not None:
                self._replay.append(replay)
            wait = self._register_ack_wait(ack_key)
            self._broadcast(msg)
        return wait

    def _register_ack_wait(self, key: str) -> _AckWait:
        """Create an ack wait for *key* (caller holds the pool lock)."""
        wait = _AckWait(
            key,
            {slot.index for slot in self.live_slots},
            threading.Condition(self._lock),
        )
        self._ack_waits.setdefault(key, []).append(wait)
        return wait

    def _broadcast(self, msg: tuple) -> None:
        """Send *msg* to every live slot (caller holds the pool lock)."""
        for slot in self.live_slots:
            self._send(slot, msg)

    @staticmethod
    def _send(slot: _Slot, msg: tuple) -> None:
        """Write *msg* to a slot's inbox (caller holds the pool lock, which
        keeps each pipe's messages whole and in order).  A dead worker's
        pipe is broken: the liveness survey replaces the slot and reclaims
        its tasks, so the message is simply dropped."""
        try:
            slot.inbox.send(msg)
        except BrokenPipeError:
            pass

    def _await_acks(self, wait: _AckWait, timeout: float) -> None:
        """Block until every live slot acknowledged the wait's key.

        Crashes during the wait are handled by the router's liveness
        survey: a dead slot is respawned (budget permitting) and its
        replayed attach/pin log produces the missing ack from the new
        process; a retired slot is dropped from the wait.  The router
        notifies on every change, so the wait needs no poll.
        """
        deadline = time.monotonic() + timeout
        try:
            with self._lock:
                while wait.pending and wait.error is None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise PoolTimeoutError(
                            f"engine workers failed to acknowledge"
                            f" {wait.key!r} within {timeout:.0f}s"
                            f" ({len(wait.pending)} slot(s) pending)"
                        )
                    wait.cond.wait(timeout=remaining)
            if wait.error is not None:
                raise wait.error
        finally:
            with self._lock:
                waits = self._ack_waits.get(wait.key)
                if waits is not None and wait in waits:
                    waits.remove(wait)
                    if not waits:
                        self._ack_waits.pop(wait.key, None)

    # ------------------------------------------------------------------
    # queries

    def run_query(
        self,
        token: str,
        config: WorkerConfig,
        spans: Sequence[Tuple[int, int]],
        *,
        kind: str = "pairs",
        index_key: Optional[str] = None,
        order_key: Optional[str] = None,
        pool_timeout: float = 300.0,
        on_failure: str = "raise",
        progress: Optional[Callable[[int, int], None]] = None,
        inline_fallback: Optional[Callable[[Tuple[int, int]], ChunkOutcome]] = None,
    ) -> List[ChunkOutcome]:
        """Run *spans* of one query over the warm pool; ordered outcomes.

        Safe to call from many threads at once: the parent broadcasts the
        query's prepare, appends every chunk as a ``(qid, span)`` task to
        the shared backlog, and the router feeds the backlog to the slots
        as they deliver; deliveries are routed back to this query's
        pending record (deduplicating by span within the query), and the
        calling thread blocks on the record until it completes, fails, or
        the pool timeout expires.  On a crash the router respawns only
        the dead slot and re-dispatches exactly the tasks it held
        (``on_failure != "raise"``).  ``inline_fallback`` finishes
        remaining chunks on the *calling* thread when no slot survives
        and the policy is ``"serial"``.
        """
        self._require_open()
        self.ensure_healthy()
        if not self.live_slots:
            if on_failure == "serial" and inline_fallback is not None:
                return self._finish_inline(spans, [], set(spans), inline_fallback)
            raise WorkerCrashError(
                "no live engine worker slots remain (respawn budgets exhausted)"
            )
        trace_ctx = obs_tracing.current_trace_context()
        outstanding = {(int(a), int(b)) for a, b in spans}
        with self._lock:
            qid = self._next_qid
            self._next_qid += 1
            prepare = (
                "prepare",
                qid,
                token,
                config,
                kind,
                index_key,
                order_key,
                trace_ctx,
            )
            pending = _PendingQuery(
                qid,
                prepare,
                outstanding=set(outstanding),
                total=len(outstanding),
                on_failure=on_failure,
                progress=progress,
                inline_fallback=inline_fallback,
                cond=threading.Condition(self._lock),
            )
            self._pending[qid] = pending
            self._backlog.extend((qid, span) for span in sorted(outstanding))
            self._dispatch_locked()
        try:
            self._drain_pending(pending, pool_timeout)
        finally:
            with self._lock:
                self._pending.pop(qid, None)
                if any(task[0] == qid for task in self._backlog):
                    # failed, fell back inline, or a late delivery beat a
                    # re-dispatch: drop what the query no longer needs
                    self._backlog = deque(
                        task for task in self._backlog if task[0] != qid
                    )
                if not self._closed:
                    # after any task of the query still held by a slot
                    for slot in self.live_slots:
                        if qid in slot.prepared:
                            slot.prepared.discard(qid)
                            self._send(slot, ("finish", qid))
        outcomes = pending.outcomes
        outcomes.sort(key=lambda outcome: (outcome.start, outcome.stop))
        return outcomes

    def _drain_pending(self, pending: _PendingQuery, pool_timeout: float) -> None:
        """Block until *pending* completes; run its serial-fallback spans.

        Inline spans are executed outside the pool lock — the router only
        ever *assigns* them, the thread that owns the query runs them.
        """
        deadline = time.monotonic() + pool_timeout
        while True:
            inline_spans: List[Tuple[int, int]] = []
            with self._lock:
                while True:
                    if pending.error is not None:
                        raise pending.error
                    if pending.inline:
                        inline_spans = sorted(pending.inline)
                        pending.inline.clear()
                        break
                    if not pending.outstanding:
                        return
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise PoolTimeoutError(
                            f"engine pool produced no result within"
                            f" {pool_timeout:.0f}s ({len(self.live_slots)} live"
                            f" slots, {len(pending.outstanding)} chunks"
                            f" outstanding)"
                        )
                    pending.cond.wait(timeout=remaining)
            for span in inline_spans:
                outcome = pending.inline_fallback(tuple(span))
                with self._lock:
                    pending.outcomes.append(outcome)

    # ------------------------------------------------------------------
    # the router: delivery routing, liveness, fault handling

    def _route_loop(self) -> None:
        """Drain the shared result queue and run the liveness survey.

        The single reader of ``self._results``: chunk deliveries, chunk
        errors and attach/pin acks are routed to their pending records
        under the pool lock, and every answered task frees its slot for
        the next one in the backlog.  Casualties are detected here too,
        on the same cadence as the one-shot executor's liveness poll;
        :meth:`close` wakes the loop with a sentinel.
        """
        while not self._router_stop:
            try:
                msg = self._results.get(timeout=_LIVENESS_POLL_SECONDS)
            except Empty:
                msg = None
            except (OSError, ValueError, EOFError):  # pragma: no cover
                break  # queue torn down under us mid-close
            if self._router_stop:
                break
            with self._lock:
                if msg is not None:
                    self._route_locked(msg)
                now = time.monotonic()
                if now - self._last_survey >= _LIVENESS_POLL_SECONDS:
                    self._last_survey = now
                    self._survey_locked()

    def _route_locked(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "chunk":
            _, slot_index, pid, qid, outcome = msg
            span = (outcome.start, outcome.stop)
            self._answered_locked(slot_index, pid, qid, span)
            pending = self._pending.get(qid)
            # else: a stale delivery for a finished/abandoned query, or a
            # duplicate that raced a re-dispatch (dedup by span)
            if pending is not None and span in pending.outstanding:
                pending.outstanding.discard(span)
                pending.outcomes.append(outcome)
                if pending.progress is not None:
                    done = pending.total - len(pending.outstanding) - len(pending.inline)
                    pending.progress(done, pending.total)
                if not pending.outstanding:
                    pending.cond.notify_all()
            self._dispatch_locked()
        elif kind == "chunk_error":
            _, slot_index, pid, qid, span, exc = msg
            span = tuple(span)
            self._answered_locked(slot_index, pid, qid, span)
            pending = self._pending.get(qid)
            if pending is not None and span in pending.outstanding:
                self._handle_chunk_error_locked(pending, slot_index, span, exc)
            self._dispatch_locked()
        elif kind == "ack":
            _, slot_index, pid, key = msg
            for wait in self._ack_waits.get(key, ()):
                wait.pending.discard(slot_index)
                if not wait.pending:
                    wait.cond.notify_all()
        # anything else is the close sentinel or a stale message: ignore

    def _answered_locked(self, slot_index: int, pid: int, qid: int, span) -> None:
        """A slot's process replied to one task: free its place.

        A reply from a slot's dead predecessor frees nothing — the tasks
        that process held were reclaimed when it was replaced.
        """
        slot = self._slots[slot_index]
        if slot.pid == pid and (qid, span) in slot.outstanding:
            slot.outstanding.remove((qid, span))

    def _dispatch_locked(self) -> None:
        """Send backlog tasks, oldest first, to the least-loaded live slots.

        Every live slot holds at most ``_SLOT_DEPTH`` tasks.  A task whose
        query has ended, failed, or already got that span is dropped.
        """
        backlog = self._backlog
        while backlog:
            slot = min(
                (
                    slot
                    for slot in self._slots
                    if not slot.disabled and len(slot.outstanding) < _SLOT_DEPTH
                ),
                key=lambda slot: len(slot.outstanding),
                default=None,
            )
            if slot is None:
                return
            qid, span = task = backlog.popleft()
            pending = self._pending.get(qid)
            if pending is None or pending.error is not None or span not in pending.outstanding:
                continue
            if qid not in slot.prepared:
                slot.prepared.add(qid)
                self._send(slot, pending.prepare)
            slot.outstanding.append(task)
            self._send(slot, ("task", qid, span))

    def _reclaim_locked(self, slot: _Slot) -> int:
        """Put a dead slot's unanswered tasks back at the backlog front,
        in their original order; returns how many."""
        reclaimed = len(slot.outstanding)
        self._backlog.extendleft(reversed(slot.outstanding))
        slot.outstanding.clear()
        return reclaimed

    def _handle_chunk_error_locked(
        self, pending: _PendingQuery, slot_index: int, span, exc
    ) -> None:
        """A chunk raised inside a surviving worker (worker-traceback model)."""
        obs_runlog.emit_error(
            "pool_error",
            exc,
            slot=slot_index,
            chunk=list(span),
            scope="engine",
        )
        if pending.on_failure == "raise":
            pending.fail(exc)
            return
        slot = self._slots[slot_index]
        if slot.failures < self.max_respawns:
            slot.failures += 1
            obs_runlog.emit(
                "chunk_retry",
                attempt=slot.failures,
                max_retries=self.max_respawns,
                chunks=1,
                scope="engine",
                slot=slot_index,
            )
            self._backlog.appendleft((pending.qid, span))
            return
        if pending.on_failure == "serial" and pending.inline_fallback is not None:
            pending.outstanding.discard(span)
            pending.inline.append(span)
            obs_runlog.emit("pool_fallback", chunks=1, scope="engine")
            pending.cond.notify_all()
            return
        pending.fail(exc)

    def _survey_locked(self) -> None:
        """Liveness poll: detect casualties, respawn/retire, recover chunks.

        A casualty fails every fail-fast (``on_failure="raise"``) query in
        flight, and its slot is respawned (or retired) at once, so the
        next query finds the pool whole.  Exactly the tasks the dead slot
        held go back to the front of the backlog, for the queries under
        ``"retry"``/``"serial"``; when no slot survives, those finish
        inline (``"serial"``) or fail.
        """
        crashed = self._collect_casualties()
        if not crashed:
            return
        _engine_counter(
            "engine_worker_crashes_total",
            "Engine worker processes that died mid-session",
        ).inc(len(crashed))
        pids = [slot.pid for slot in crashed]
        exitcodes = [slot.process.exitcode for slot in crashed]
        detail = ", ".join(
            f"pid {slot.pid}"
            f" ({_signal_name(slot.process.exitcode) or f'exit {slot.process.exitcode}'})"
            for slot in crashed
        )
        for pending in self._pending.values():
            if pending.error is None and pending.on_failure == "raise":
                pending.fail(
                    WorkerCrashError(
                        f"engine worker crashed mid-query: {detail};"
                        f" {len(pending.outstanding)} chunk(s) undelivered",
                        pids=pids,
                        exitcodes=exitcodes,
                        lost_spans=sorted(pending.outstanding),
                    )
                )
        for slot in crashed:
            self._handle_casualty(slot, respawn=True)
        if self.live_slots:
            self._dispatch_locked()
            return
        for waits in self._ack_waits.values():
            for wait in waits:
                if wait.error is None:
                    wait.error = WorkerCrashError(
                        "every engine worker slot died while attaching",
                        pids=pids,
                        exitcodes=exitcodes,
                    )
                    wait.cond.notify_all()
        for pending in self._pending.values():
            if pending.error is not None:
                continue
            if pending.on_failure == "serial" and pending.inline_fallback is not None:
                spans = sorted(pending.outstanding)
                pending.outstanding.clear()
                pending.inline.extend(spans)
                obs_runlog.emit("pool_fallback", chunks=len(spans), scope="engine")
                _engine_counter(
                    "engine_serial_fallbacks_total",
                    "Engine queries finished inline after losing every"
                    " worker slot",
                ).inc(1)
                pending.cond.notify_all()
            else:
                pending.fail(
                    WorkerCrashError(
                        "every engine worker slot is gone (respawn"
                        " budgets exhausted);"
                        f" {len(pending.outstanding)} chunk(s) undelivered",
                        pids=pids,
                        exitcodes=exitcodes,
                        lost_spans=sorted(pending.outstanding),
                    )
                )

    # ------------------------------------------------------------------
    # fault handling

    def _collect_casualties(self) -> List[_Slot]:
        return [
            slot
            for slot in self._slots
            if not slot.disabled and slot.process.exitcode is not None
        ]

    def _handle_casualty(self, slot: _Slot, *, respawn: bool) -> None:
        """Retire or respawn one dead slot (caller holds the pool lock).

        Its unanswered tasks go back to the backlog front, and ack waits
        stop expecting what the slot will never send: a retired slot
        sends nothing, a replacement re-sends only the acks its replayed
        attach/pin log produces (no detach acks).
        """
        reclaimed = self._reclaim_locked(slot)
        exitcode = slot.process.exitcode
        old_pid = slot.pid
        can_respawn = respawn and slot.respawns < self.max_respawns
        slot.inbox.close()
        slot.prepared.clear()
        if can_respawn:
            replacement = self._spawn_slot(slot.index)
            slot.process = replacement.process
            slot.inbox = replacement.inbox
            slot.pid = replacement.pid
            slot.respawns += 1
            self.total_respawns += 1
            _engine_counter(
                "engine_slot_respawns_total",
                "Engine worker slots respawned after a crash",
            ).inc(1)
        else:
            slot.disabled = True
            _engine_counter(
                "engine_slots_retired_total",
                "Engine worker slots retired after exhausting their"
                " respawn budget",
            ).inc(1)
        replayed = {msg[1] for msg in self._replay} if can_respawn else set()
        for key, waits in self._ack_waits.items():
            if key in replayed:
                continue
            for wait in waits:
                wait.pending.discard(slot.index)
                if not wait.pending:
                    wait.cond.notify_all()
        obs_runlog.emit(
            "slot_respawn",
            slot=slot.index,
            old_pid=old_pid,
            new_pid=slot.pid if can_respawn else None,
            exitcode=exitcode,
            signal=_signal_name(exitcode),
            respawned=can_respawn,
            respawns=slot.respawns,
            budget=self.max_respawns,
            reclaimed=reclaimed,
        )

    def _finish_inline(self, spans, outcomes, outstanding, inline_fallback):
        """Run every remaining chunk on the parent (serial fallback)."""
        obs_runlog.emit("pool_fallback", chunks=len(outstanding), scope="engine")
        _engine_counter(
            "engine_serial_fallbacks_total",
            "Engine queries finished inline after losing every worker slot",
        ).inc(1)
        for span in sorted(outstanding):
            outcomes.append(inline_fallback(tuple(span)))
        outstanding.clear()
        outcomes.sort(key=lambda outcome: (outcome.start, outcome.stop))
        return outcomes

    def ensure_healthy(self) -> int:
        """Respawn every repairable dead slot; returns the live-slot count.

        Called at the top of each query, so a worker that died since the
        router's last liveness survey is replaced before the query's
        tasks are sent.
        """
        self._require_open()
        with self._lock:
            casualties = self._collect_casualties()
            for slot in casualties:
                self._handle_casualty(slot, respawn=True)
            if casualties:
                self._dispatch_locked()
            return len(self.live_slots)
