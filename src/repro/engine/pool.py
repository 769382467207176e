"""The process pool: :class:`PersistentPool`, a fixed set of worker slots.

It serves a :class:`repro.engine.SkylineEngine` session for its whole
life, and every one-shot pooled query for one query
(:func:`repro.parallel.executor.run_spans` opens and closes one):

* **slots** — the pool is a fixed set of worker slots, each one long-lived
  ``Process`` with one inbox pipe that carries its control messages and
  its tasks in send order; the worker's only blocking call is an untimed
  ``recv()`` on it.  The parent's router thread keeps one FIFO backlog of
  ``(qid, span)`` tasks and tops every live slot up to two tasks (one
  running, one queued) as deliveries come back, so a drained worker is
  fed from the shared tail without waiting on any poll (backlog
  dispatch).  A slot gets a query's ``prepare`` right before that
  query's first task, in the same pipe, and its ``finish`` when the
  query ends.  The parent writes the pipe itself, under the pool lock,
  with no feeder thread in between.
* **data ships at slot start** — :meth:`attach` registers a dataset under
  a token, and :meth:`pin_index` / :meth:`pin_order` register a packed
  R-tree's arrays and a candidate order under content-digest keys, in
  the pool's replay log.  A slot process receives the whole log as its
  process arguments when it starts: inherited copy-on-write under
  ``fork``, pickled once under ``spawn``, where ``ShmArena`` segments
  keep the payload small when shared memory is used.  Slots start
  lazily, at the first query or :meth:`start`, so a pool opened for one
  query registers everything first and needs no acknowledgement round
  trip.  What is registered after the slots started is broadcast and
  acknowledged by every slot, and repeat queries ship nothing but tiny
  ``(qid, span)`` tuples.
* **per-slot respawn** — when a worker dies the pool respawns *only the
  dead slot*: the survivors keep their pids and their state, the
  replacement starts with the replay log, and exactly the tasks the dead
  slot held go back to the front of the backlog.  Duplicated deliveries
  are harmless — chunks are deterministic, the parent keeps the first
  result per span.  Each slot may be respawned at most ``max_respawns``
  times over the pool's lifetime, and may re-run at most as many chunks
  that raised; a slot past its budget is retired and the pool narrows.
  When every slot is gone a query finishes inline on the calling thread
  (``on_failure="serial"``) or raises
  :class:`~repro.parallel.executor.WorkerCrashError`.
* **concurrent admission** — many threads may call :meth:`run_query`
  at once (the network front-end in :mod:`repro.net` does).  Every
  delivery is tagged ``(qid, span)``: the router thread drains the one
  shared result queue and routes each message to its query's pending
  record, deduplicating by span within the query, so interleaved chunk
  streams never cross.  Workers hold one
  :class:`~repro.parallel.executor.ChunkKernel` per active qid — each
  query keeps its own comparator, reset per chunk — which is why
  interleaving does not perturb any ``AlgorithmStats`` counter.

Determinism: chunks run :meth:`ChunkKernel.run
<repro.parallel.executor.ChunkKernel.run>` — the same kernels with a
fresh comparator reset per chunk, also on the inline fallback — and the
parent merges outcomes in span order, so results *and every work
counter* are bit-identical to a serial run, regardless of scheduling,
crashes and respawns.

Telemetry is emitted here and nowhere else: the ``pool_start`` /
``pool_end`` / ``pool_timeout`` / ``pool_error`` / ``chunk_retry`` /
``slot_respawn`` / ``pool_fallback`` run-log events and the ``pool_*``
metrics counters (see ``docs/observability.md``); worker-side
``parallel.chunk`` trace spans are grafted back through
:attr:`~repro.parallel.executor.ChunkOutcome.spans`.
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
from ..parallel.executor import (
    ChunkKernel,
    ChunkOutcome,
    PoolTimeoutError,
    WorkerConfig,
    WorkerCrashError,
    _signal_name,
    preferred_start_method,
)
from ..parallel.faults import FaultSpec
from ..parallel.shm import (
    ArrayRef,
    ShmArena,
    attach_array,
    detach,
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


#: How often the router surveys slot liveness while it waits for
#: deliveries: a crashed worker is detected within about this long.
_LIVENESS_POLL_SECONDS = 0.25

#: Tasks a live slot holds at most: one running and one queued behind it,
#: so a worker never idles while its next task crosses the pipe.
_SLOT_DEPTH = 2

#: Control messages every live slot acknowledges (the parent waits).
_ACKED = ("attach", "pin", "detach")


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


class _WorkerState:
    """Everything a long-lived worker accumulates."""

    def __init__(self, slot: int):
        self.slot = slot
        self.groups: Dict[str, list] = {}  # token -> List[Group]
        #: token -> RecordColumns, built at the attached dataset's first
        #: query (the batch kernel's input), dropped at detach
        self.columns: Dict[str, RecordColumns] = {}
        self.pinned: Dict[str, Any] = {}  # digest key -> index / order
        #: qid -> the query's task body, ``(span, item) -> result``
        self.queries: Dict[int, Callable] = {}
        #: qid -> name of the query's shared exchange-flags segment
        self.flags: Dict[int, str] = {}

    def apply(self, msg: tuple) -> None:
        """Apply one control message (replayed at start, or received)."""
        kind = msg[0]
        if kind == "attach":
            _, token, shipment = msg
            self.groups[token] = load_groups(shipment)
        elif kind == "pin":
            _, key, tag, payload = msg
            if tag == "index":
                from ..index.rtree import FlatRTree

                self.pinned[key] = FlatRTree.from_arrays(load_arrays(payload))
            elif isinstance(payload, ArrayRef):  # an order in shared memory
                self.pinned[key] = attach_array(payload)
            else:
                self.pinned[key] = payload
        elif kind == "prepare":
            _, qid, job = msg
            self.queries[qid] = self._prepare(qid, job)
        elif kind == "finish":
            _, qid = msg
            self.queries.pop(qid, None)
            name = self.flags.pop(qid, None)
            if name is not None:
                detach(name)
        elif kind == "detach":
            _, token, keys = msg
            self.groups.pop(token, None)
            self.columns.pop(token, None)
            for key in keys:
                self.pinned.pop(key, None)

    def _prepare(self, qid: int, job: tuple) -> Callable:
        """The task body of one query: a mapped function, or a chunk kernel."""
        if job[0] == "map":
            fn = job[1]
            return lambda span, item: fn(item)
        _, token, config, kind, index_key, order_key, trace, flags_ref = job
        groups = self.groups[token]
        # Candidate slabs and two-phase pair chunks run on the batch
        # kernel; exchange-mode pair chunks compare pair by pair.
        columns = None
        if kind == "candidates" or config.exchange_interval == 0:
            columns = self.columns.get(token)
            if columns is None:
                columns = RecordColumns.of_groups(groups)
                self.columns[token] = columns
        flags = None
        if flags_ref is not None:
            try:
                flags = attach_array(flags_ref, writable=True)
                self.flags[qid] = flags_ref.name
            except FileNotFoundError:
                # The query ended before this slot prepared it; its tasks
                # are dropped, and private flags would only prune less.
                flags = None
        kernel = ChunkKernel(
            groups,
            config,
            kind,
            index=self.pinned[index_key] if index_key is not None else None,
            order=self.pinned[order_key] if order_key is not None else None,
            columns=columns,
            flags=flags,
            trace=trace,
        )
        slot = self.slot
        return lambda span, item: kernel.run(span, slot)


def _worker_main(slot, inbox, results, replay, faults, fault_state) -> None:
    """Main loop of one worker slot.

    ``replay`` is the pool's attach/pin log as it stood when the slot
    started; it is applied before the first message.  Everything else
    arrives on the slot's ``inbox`` pipe in send order: control messages
    (attach / pin / prepare / finish / detach / stop) and tasks
    ``("task", qid, span, item)``.  The parent sends a query's prepare
    before its first task here and its finish after the last, so a task
    always finds its query prepared, and every task gets exactly one
    reply.  ``stop`` is answered with ``stopped``, which wakes the
    parent's router for its own exit.

    The run log is silenced and the global tracer is a no-op: pool
    lifecycle is the parent's to record, and each query carries its own
    :class:`~repro.obs.tracing.TraceContext` so worker chunk spans graft
    back onto the parent trace.
    """
    obs_runlog.set_runlog(obs_runlog.NOOP_RUNLOG)
    obs_tracing.set_tracer(obs_tracing.NOOP_TRACER)
    fault = faults.arm(fault_state) if faults is not None else None
    state = _WorkerState(slot)
    pid = os.getpid()
    try:
        for msg in replay:
            state.apply(msg)
        while True:
            try:
                msg = inbox.recv()
            except EOFError:  # the parent closed the pipe without a stop
                break
            kind = msg[0]
            if kind == "stop":
                results.put(("stopped", slot, pid))
                break
            if kind != "task":
                state.apply(msg)
                if kind in _ACKED:
                    results.put(("ack", slot, pid, msg[1]))
                continue
            _, qid, span, item = msg
            try:
                if fault is not None:
                    fault.maybe_fire()
                result = state.queries[qid](span, item)
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                results.put(("error", slot, pid, qid, span, exc))
                continue
            results.put(("done", slot, pid, qid, span, result))
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
    so a pool that is never closed still cannot leak processes, queue
    threads or ``/dev/shm`` segments.
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


def _pool_counter(name: str, help_text: str):
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
    ``outstanding`` into ``results`` (worker deliveries, deduplicated by
    span) or ``inline`` (serial-fallback spans the *waiting* thread must
    execute itself — chunk kernels never run on the router).  All fields
    are guarded by the pool lock; ``cond`` shares it.  ``trace`` holds
    the submitting thread's trace ids, which the router's fault events
    for the query carry (the router has no span of its own).
    """

    __slots__ = (
        "qid", "prepare", "items", "outstanding", "results", "inline",
        "total", "on_failure", "progress", "inline_fallback", "cond", "error",
        "trace",
    )

    def __init__(
        self, qid, prepare, items, outstanding, on_failure, progress,
        inline_fallback, cond,
    ):
        self.qid = qid
        self.prepare = prepare  # sent to a slot before its first task
        self.items = items  # map queries: the item of task (k, k + 1)
        self.outstanding: Set[Tuple[int, int]] = outstanding
        self.results: Dict[Tuple[int, int], Any] = {}
        self.inline: List[Tuple[int, int]] = []
        self.total = len(outstanding)
        self.on_failure = on_failure
        self.progress = progress
        self.inline_fallback = inline_fallback
        self.cond = cond
        self.error: Optional[BaseException] = None
        context = obs_tracing.current_trace_context()
        self.trace: Dict[str, str] = {}
        if context is not None:
            self.trace["trace_id"] = context.trace_id
            if context.span_id is not None:
                self.trace["span_id"] = context.span_id

    def task(self, span: Tuple[int, int]) -> tuple:
        item = self.items[span[0]] if self.items is not None else None
        return ("task", self.qid, span, item)

    def fail(self, exc: BaseException) -> None:
        if self.error is None:
            self.error = exc
        self.cond.notify_all()


class PersistentPool:
    """A fixed set of long-lived worker slots shared by many queries.

    Safe to use from many threads at once.  See the module docstring for
    the protocol and the fault model; ``faults`` defaults to
    ``$REPRO_FAULTS`` (see :mod:`repro.parallel.faults`).
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
        # ``None`` ships through shared memory whenever the platform
        # offers it: a session's slots outlive any single attach, so fork
        # inheritance cannot carry late-attached datasets.
        self.use_shm = shm_available() if shm is None else bool(shm) and shm_available()
        self.max_respawns = max_respawns
        self.total_respawns = 0
        self._faults = faults if faults is not None else FaultSpec.from_env()
        self._fault_state = (
            self._ctx.Value("i", 0) if self._faults is not None else None
        )
        self._results = self._ctx.Queue()
        #: ``(qid, span)`` tasks not yet sent to any slot, oldest first
        self._backlog: Deque[Tuple[int, Tuple[int, int]]] = deque()
        self._replay: List[tuple] = []  # attach/pin log every slot starts with
        self._arenas: Dict[str, ShmArena] = {}
        self._pinned: Dict[str, tuple] = {}  # key -> (tag, strong payload ref)
        self._pin_keys_by_token: Dict[str, List[str]] = {}
        self._next_qid = 0
        self._closed = False
        self._started_at: Optional[float] = None
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
        self._slots: List[_Slot] = []
        self._router: Optional[threading.Thread] = None

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

    def start(self) -> "PersistentPool":
        """Start the slots and the router, once (later calls do nothing).

        Each slot receives what is registered so far as its process
        arguments.  The slots fork before the router thread exists.
        """
        self._require_open()
        with self._lock:
            if self._started_at is not None:
                return self
            self._started_at = time.perf_counter()
            self._slots = [self._spawn_slot(i) for i in range(self.workers)]
        self._router = threading.Thread(
            target=self._route_loop, name="repro-pool-router", daemon=True
        )
        self._router.start()
        obs_runlog.emit(
            "pool_start",
            workers=self.workers,
            start_method=self.start_method,
            shm=self.use_shm,
            pids=self.pids,
            respawn_budget=self.max_respawns,
        )
        return self

    def _spawn_slot(self, index: int) -> _Slot:
        """Start a worker for slot *index* (caller holds the pool lock).

        The process gets the replay log as its arguments.  The parent
        keeps only the inbox's write end, so once the worker is gone a
        send fails with ``BrokenPipeError`` instead of filling the pipe
        and blocking.
        """
        reader, inbox = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                index,
                reader,
                self._results,
                tuple(self._replay),
                self._faults,
                self._fault_state,
            ),
            daemon=True,
            name=f"repro-pool-{index}",
        )
        try:
            process.start()
        finally:
            reader.close()
        self._state["processes"].append(process)
        self._state["pipes"].append(inbox)
        return _Slot(index=index, process=process, inbox=inbox, pid=process.pid)

    def close(self) -> None:
        """Stop the workers and release every owned resource (idempotent).

        Idle slots get a ``stop`` message, so each worker runs its own
        teardown (shm detach); a slot still holding tasks — busy, or
        hung — is terminated instead of waited for.  The router exits at
        the first ``stopped`` reply (or its next liveness tick) without
        mistaking the stopping workers for casualties, and the
        ``weakref.finalize`` hook terminates stragglers, closes the queue
        and unlinks the shared-memory arenas.
        """
        if self._closed:
            return
        self._closed = True
        self._router_stop = True
        with self._lock:
            closed = EngineClosedError("the pool has been closed")
            for pending in self._pending.values():
                pending.fail(closed)
            for waits in self._ack_waits.values():
                for wait in waits:
                    wait.error = closed
                    wait.cond.notify_all()
            for slot in self.live_slots:
                if slot.outstanding:
                    slot.process.terminate()
                else:
                    self._send(slot, ("stop",))
        router = self._router
        if router is not None and router is not threading.current_thread():
            router.join(timeout=2.0)
        deadline = time.monotonic() + 5.0
        for slot in self.live_slots:
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
        if self._started_at is not None:
            obs_runlog.emit(
                "pool_end",
                queries=self._next_qid,
                respawns=self.total_respawns,
                elapsed_seconds=time.perf_counter() - self._started_at,
            )
        self._finalizer()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise EngineClosedError("the pool has been closed")

    # ------------------------------------------------------------------
    # shipping: attach datasets, pin derived artifacts

    def attach(self, token: str, groups: Sequence, *, timeout: float = 300.0) -> bool:
        """Register *groups* under *token* in every worker.

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
            self._register(("attach", token, shipment), timeout)
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
        (:func:`repro.core.artifacts.packed_rtree` returns the same index
        across queries) ships exactly once per pool — including when two
        concurrent queries race to pin it.
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
        with self._lock:
            self._pinned[key] = (tag, strong_ref)
            self._pin_keys_by_token.setdefault(token, []).append(key)
        self._register(("pin", key, tag, payload), timeout)

    def _register(self, msg: tuple, timeout: float) -> None:
        """Add *msg* to the replay log and send it to every live slot.

        Slots started later receive it as a process argument.  The ack
        wait is registered *before* the broadcast so the router cannot
        drop acks that race the registration; with no slot started yet
        there is nothing to wait for.
        """
        with self._lock:
            self._replay.append(msg)
            wait = self._register_ack_wait(msg[1])
            self._broadcast(msg)
        self._await_acks(wait, timeout)

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
        survey: a dead slot owes no ack (a replacement starts with the
        replay log, which already holds the key), so it is dropped from
        the wait.  The router notifies on every change, so the wait needs
        no poll.
        """
        deadline = time.monotonic() + timeout
        try:
            with self._lock:
                while wait.pending and wait.error is None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise PoolTimeoutError(
                            f"pool workers failed to acknowledge"
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
        flags: Optional[ArrayRef] = None,
        pool_timeout: float = 300.0,
        on_failure: str = "raise",
        progress: Optional[Callable[[int, int], None]] = None,
        inline_fallback: Optional[Callable[[Tuple[int, int]], ChunkOutcome]] = None,
    ) -> List[ChunkOutcome]:
        """Run *spans* of one query over the pool; outcomes in span order.

        Safe to call from many threads at once: every chunk joins the
        shared backlog as a ``(qid, span)`` task, the router feeds the
        backlog to the slots as they deliver, deliveries are routed back
        to this query's pending record (deduplicating by span within the
        query), and the calling thread blocks on the record until it
        completes, fails, or ``pool_timeout`` expires.  ``flags`` names
        the query's shared exchange-flags array (exchange-mode pair
        chunks).  On a crash the router respawns only the dead slot and
        re-dispatches exactly the tasks it held (``on_failure !=
        "raise"``).  ``inline_fallback`` finishes remaining chunks on the
        *calling* thread when no slot survives and the policy is
        ``"serial"``.
        """
        job = (
            "chunks",
            token,
            config,
            kind,
            index_key,
            order_key,
            obs_tracing.current_trace_context(),
            flags,
        )
        return self._run(
            job, spans, None, pool_timeout, on_failure, progress, inline_fallback
        )

    def map(self, fn: Callable, items: Sequence, *, pool_timeout: float = 300.0) -> list:
        """``[fn(item) for item in items]``, one task per item, on the slots.

        ``fn`` must be picklable under ``spawn`` (a module-level
        function); each item travels with its task.  Fail-fast: a crash
        raises :class:`~repro.parallel.executor.WorkerCrashError` within
        a liveness tick, an exception in ``fn`` re-raises here, and
        silence past ``pool_timeout`` raises
        :class:`~repro.parallel.executor.PoolTimeoutError`.
        """
        items = list(items)
        spans = [(k, k + 1) for k in range(len(items))]
        return self._run(("map", fn), spans, items, pool_timeout, "raise", None, None)

    def _run(self, job, spans, items, pool_timeout, on_failure, progress, inline_fallback):
        """One query: queue its tasks, wait for them, clean up after it."""
        self.start()
        self.ensure_healthy()
        spans = sorted({(int(a), int(b)) for a, b in spans})
        with self._lock:
            self._require_open()  # close() may have run since start()
            qid = self._next_qid
            self._next_qid += 1
            pending = _PendingQuery(
                qid,
                ("prepare", qid, job),
                items,
                outstanding=set(spans),
                on_failure=on_failure,
                progress=progress,
                inline_fallback=inline_fallback,
                cond=threading.Condition(self._lock),
            )
            self._pending[qid] = pending
            if self.live_slots:
                self._backlog.extend((qid, span) for span in spans)
                self._dispatch_locked()
            elif on_failure == "serial" and inline_fallback is not None:
                self._fallback_locked(pending)
            else:
                pending.fail(
                    WorkerCrashError(
                        "no live pool worker slots remain (respawn budgets"
                        " exhausted)"
                    )
                )
        try:
            self._drain_pending(pending, pool_timeout)
        except PoolTimeoutError as exc:
            obs_runlog.emit(
                "pool_timeout",
                timeout_seconds=pool_timeout,
                chunks=len(pending.outstanding),
                live_slots=len(self.live_slots),
                message=str(exc),
            )
            raise
        except BaseException as exc:
            fields: Dict[str, Any] = {"chunks": len(pending.outstanding)}
            if isinstance(exc, WorkerCrashError):
                fields.update(
                    pids=list(exc.pids),
                    signals=[name for name in exc.signals if name],
                    lost_chunks=len(exc.lost_spans),
                )
            obs_runlog.emit_error("pool_error", exc, **fields)
            raise
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
        return [pending.results[span] for span in spans]

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
                            f"worker pool produced no result within"
                            f" {pool_timeout:g}s ({len(self.live_slots)} live"
                            f" slots, {len(pending.outstanding)} chunks"
                            f" outstanding)"
                        )
                    pending.cond.wait(timeout=remaining)
            for span in inline_spans:
                result = pending.inline_fallback(span)
                with self._lock:
                    pending.results[span] = result

    # ------------------------------------------------------------------
    # the router: delivery routing, liveness, fault handling

    def _route_loop(self) -> None:
        """Drain the shared result queue and run the liveness survey.

        The single reader of ``self._results``: deliveries, chunk errors
        and attach/pin acks are routed to their pending records under the
        pool lock, and every answered task frees its slot for the next
        one in the backlog.  Casualties are detected here too, every
        :data:`_LIVENESS_POLL_SECONDS`; :meth:`close` stops the loop.
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
        if kind in ("done", "error"):
            _, slot_index, pid, qid, span, payload = msg
            span = tuple(span)
            self._answered_locked(slot_index, pid, qid, span)
            pending = self._pending.get(qid)
            # else: a stale delivery for a finished/abandoned query, or a
            # duplicate that raced a re-dispatch (dedup by span)
            if pending is not None and span in pending.outstanding:
                if kind == "error":
                    self._chunk_failed_locked(pending, slot_index, span, payload)
                else:
                    pending.outstanding.discard(span)
                    pending.results[span] = payload
                    if pending.progress is not None:
                        done = pending.total - len(pending.outstanding) - len(pending.inline)
                        pending.progress(done, pending.total)
                    if not pending.outstanding:
                        pending.cond.notify_all()
            self._dispatch_locked()
        elif kind == "ack":
            _, slot_index, pid, key = msg
            for wait in self._ack_waits.get(key, ()):
                wait.pending.discard(slot_index)
                if not wait.pending:
                    wait.cond.notify_all()
        # anything else is a stop reply or a stale message: ignore

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
            self._send(slot, pending.task(span))

    def _chunk_failed_locked(
        self, pending: _PendingQuery, slot_index: int, span, exc
    ) -> None:
        """A chunk raised inside a surviving worker (worker-traceback model).

        Fail-fast fails the query; otherwise the chunk goes back to the
        backlog front while the slot has budget, and past it the chunk
        finishes inline (``"serial"``) or the query fails.
        """
        if pending.on_failure == "raise":
            pending.fail(exc)
            return
        slot = self._slots[slot_index]
        if slot.failures < self.max_respawns:
            slot.failures += 1
            obs_runlog.emit(
                "chunk_retry",
                slot=slot_index,
                chunk=list(span),
                error=type(exc).__name__,
                attempt=slot.failures,
                budget=self.max_respawns,
                **pending.trace,
            )
            self._backlog.appendleft((pending.qid, span))
            return
        if pending.on_failure == "serial" and pending.inline_fallback is not None:
            pending.outstanding.discard(span)
            self._fallback_locked(pending, [span])
            return
        pending.fail(exc)

    def _fallback_locked(self, pending: _PendingQuery, spans=None) -> None:
        """Hand *spans* (default: all outstanding) to the query's own
        thread, which runs them inline."""
        spans = sorted(pending.outstanding) if spans is None else list(spans)
        pending.outstanding.difference_update(spans)
        pending.inline.extend(spans)
        obs_runlog.emit("pool_fallback", chunks=len(spans), **pending.trace)
        _pool_counter(
            "pool_inline_fallbacks_total",
            "Chunk batches finished inline after the pool could not run them",
        ).inc(1)
        pending.cond.notify_all()

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
                        f"pool worker crashed mid-query: {detail};"
                        f" {len(pending.outstanding)} chunk(s) undelivered",
                        pids=pids,
                        exitcodes=exitcodes,
                        lost_spans=sorted(pending.outstanding),
                    )
                )
        for slot in crashed:
            self._handle_casualty(slot)
        if self.live_slots:
            self._dispatch_locked()
            return
        for waits in self._ack_waits.values():
            for wait in waits:
                if wait.error is None:
                    wait.error = WorkerCrashError(
                        "every pool worker slot died while attaching",
                        pids=pids,
                        exitcodes=exitcodes,
                    )
                    wait.cond.notify_all()
        for pending in self._pending.values():
            if pending.error is not None:
                continue
            if pending.on_failure == "serial" and pending.inline_fallback is not None:
                self._fallback_locked(pending)
            else:
                pending.fail(
                    WorkerCrashError(
                        "every pool worker slot is gone (respawn"
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
        if self._closed:  # stopping workers are not casualties
            return []
        return [
            slot
            for slot in self._slots
            if not slot.disabled and slot.process.exitcode is not None
        ]

    def _handle_casualty(self, slot: _Slot) -> None:
        """Retire or respawn one dead slot (caller holds the pool lock).

        Its unanswered tasks go back to the backlog front, in their
        original order, and ack waits stop expecting the slot: a retired
        slot sends nothing, and a replacement starts with the replay log,
        which holds everything registered so far.
        """
        _pool_counter(
            "pool_slot_crashes_total",
            "Pool worker processes that died mid-run",
        ).inc(1)
        reclaimed = len(slot.outstanding)
        # The event joins the trace of the first query the slot held a
        # task of, if any.
        trace = next(
            (
                self._pending[qid].trace
                for qid, _ in slot.outstanding
                if qid in self._pending
            ),
            {},
        )
        self._backlog.extendleft(reversed(slot.outstanding))
        slot.outstanding.clear()
        exitcode = slot.process.exitcode
        old_pid = slot.pid
        can_respawn = slot.respawns < self.max_respawns
        slot.inbox.close()
        slot.prepared.clear()
        if can_respawn:
            replacement = self._spawn_slot(slot.index)
            slot.process = replacement.process
            slot.inbox = replacement.inbox
            slot.pid = replacement.pid
            slot.respawns += 1
            self.total_respawns += 1
            _pool_counter(
                "pool_slot_respawns_total",
                "Pool worker slots respawned after a crash",
            ).inc(1)
        else:
            slot.disabled = True
            _pool_counter(
                "pool_slots_retired_total",
                "Pool worker slots retired after exhausting their"
                " respawn budget",
            ).inc(1)
        for waits in self._ack_waits.values():
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
            **trace,
        )

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
                self._handle_casualty(slot)
            if casualties:
                self._dispatch_locked()
            return len(self.live_slots)
