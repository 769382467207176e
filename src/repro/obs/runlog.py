"""Structured JSONL run logs correlated with trace IDs.

While metrics aggregate and traces nest, the *run log* is the flat,
append-only record of what happened when: one JSON object per line, one
line per event, flushed immediately so a crashed or timed-out run still
leaves its history on disk.  Events carry the ``trace_id``/``span_id`` of
the span that was open when they were emitted, so a log line can be joined
back to the exact subtree of the trace it belongs to.

Event schema
------------
Every line has at least::

    {"ts": <unix seconds>, "event": "<name>", "pid": <int>}

plus ``trace_id``/``span_id`` when tracing is enabled, plus event-specific
fields.  Events emitted by the engine:

``run_start`` / ``run_end`` / ``run_error``
    One aggregate-skyline ``compute()`` (algorithm, groups, gamma;
    end adds elapsed/survivors/counters; error adds the traceback).
``phase_start`` / ``phase_end``
    A named phase inside a run (``harness.figure``, ``bench.run``, ...).
``pool_start`` / ``pool_end``
    A :class:`repro.engine.pool.PersistentPool` — an engine session's,
    or one a pooled query opened for itself — starting its slots
    (workers, start method, shm, pids, respawn budget) and closing
    (queries, respawns, elapsed).
``pool_timeout`` / ``pool_error``
    A pooled query failed: it timed out (timeout, chunks outstanding,
    live slots), or raised (exception type, message, traceback, chunks
    outstanding; for a worker crash also pids, signals, lost chunks).
``chunk_retry`` / ``slot_respawn`` / ``pool_fallback``
    Fault tolerance: a chunk that raised in a worker goes back to the
    backlog (slot, chunk, error, attempt vs budget); a dead worker slot
    is respawned or retired (slot, old/new pid, exitcode/signal,
    respawn count vs budget, and ``reclaimed``: the unanswered tasks it
    held, put back at the front of the backlog) — surviving slots keep
    their pids and pinned data; chunks finish inline on the calling
    thread once no slot can run them.
``cache_hit`` / ``cache_miss``
    Derived-artifact cache traffic (kind).
``api_call``
    One public-API invocation (``aggregate_skyline``: algorithm, groups,
    gamma, execution).
``engine_end``
    A :class:`repro.engine.SkylineEngine` session's summary at close
    (queries, warm queries, attaches, slot respawns).
``attach``
    A dataset made resident in an engine (token prefix, groups, records,
    via_shm, warm pre-pinning, elapsed).
``query_start`` / ``query_end``
    One engine query (algorithm, gamma, groups, warm/cold, dims; end
    adds survivors and elapsed, or the error payload on failure).
``engine_teardown_error``
    The engine's GC safety net failed to release the pool (possible
    leaked shm segments or worker slots) — previously swallowed
    silently; also bumps ``engine_teardown_errors_total``.
``net_accept`` / ``net_request`` / ``net_response`` / ``net_timeout``
    The network front-end (:mod:`repro.net`): a TCP connection accepted
    (conn, peer), one request frame (conn, id, op), its response frame
    (status ``ok`` or the error code, elapsed), and a request whose
    ``deadline_ms`` expired while waiting or executing.  ``net_drain``
    / ``net_shutdown`` bracket graceful shutdown.
``error``
    Any caught exception worth recording, with ``traceback``.

Usage
-----
The process-global run log defaults to a no-op whose :meth:`RunLog.emit`
is a single attribute check.  Enable it with::

    from repro.obs import runlog
    runlog.enable_runlog("run.jsonl")     # or RunLog(path) + set_runlog

or from the CLI with ``--log-json PATH``.  :func:`read_events` reads a
log back, tolerating a partially written trailing line.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
import traceback as traceback_module
from contextlib import contextmanager
from pathlib import Path
from typing import IO, List, Optional, Union

from . import tracing as obs_tracing

__all__ = [
    "RunLog",
    "NoopRunLog",
    "NOOP_RUNLOG",
    "get_runlog",
    "set_runlog",
    "use_runlog",
    "enable_runlog",
    "disable_runlog",
    "emit",
    "phase",
    "emit_error",
    "read_events",
]


def _json_default(value):
    """Last-resort JSON coercion so emit() never raises on odd values."""
    try:
        return str(value)
    except Exception:  # pragma: no cover - pathological __str__
        return "<unserializable>"


class RunLog:
    """Append-only JSONL event log with immediate flush.

    Parameters
    ----------
    target:
        A path (opened in append mode) or an already-open text stream.
    clock:
        Injectable wall clock (tests).

    Durability: each event is one ``write`` + ``flush`` under a lock, and
    the handle is closed by the context-manager protocol *and* an
    ``atexit`` hook, so events survive crashed or killed runs; readers
    use :func:`read_events`, which skips a torn trailing line.
    """

    enabled = True

    def __init__(
        self,
        target: Union[str, Path, IO[str]],
        clock=time.time,
    ):
        self._lock = threading.Lock()
        self._clock = clock
        if hasattr(target, "write"):
            self.path: Optional[Path] = None
            self._handle = target
            self._owns_handle = False
        else:
            self.path = Path(target)
            self._handle = open(self.path, "a", encoding="utf-8")
            self._owns_handle = True
        self.events_emitted = 0
        self._atexit = atexit.register(self.close)

    # ------------------------------------------------------------------

    def emit(self, event: str, **fields) -> None:
        """Write one event line (timestamp, trace correlation, fields)."""
        record = {
            "ts": self._clock(),
            "event": str(event),
            "pid": os.getpid(),
        }
        context = obs_tracing.current_trace_context()
        if context is not None:
            record["trace_id"] = context.trace_id
            if context.span_id is not None:
                record["span_id"] = context.span_id
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=_json_default)
        with self._lock:
            if getattr(self._handle, "closed", False):
                return
            self._handle.write(line + "\n")
            self._handle.flush()
            self.events_emitted += 1

    # ------------------------------------------------------------------

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        with self._lock:
            if self._owns_handle and not getattr(self._handle, "closed", True):
                self._handle.close()
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


class NoopRunLog:
    """Disabled run log; ``emit`` costs one attribute lookup at call sites."""

    enabled = False
    path = None
    events_emitted = 0

    def emit(self, event: str, **fields) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NoopRunLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_RUNLOG = NoopRunLog()


# ----------------------------------------------------------------------
# process-global run log
# ----------------------------------------------------------------------

_runlog = NOOP_RUNLOG
_state_lock = threading.Lock()


def get_runlog():
    """The process-global run log (no-op unless enabled)."""
    return _runlog


def set_runlog(runlog) -> object:
    """Replace the global run log (returns the previous one)."""
    global _runlog
    with _state_lock:
        previous, _runlog = _runlog, runlog
    return previous


def enable_runlog(target: Union[str, Path, IO[str]]) -> RunLog:
    """Install (and return) a recording run log as the global one."""
    runlog = RunLog(target)
    set_runlog(runlog)
    return runlog


def disable_runlog() -> None:
    """Back to the no-op run log (closing the recording one, if any)."""
    previous = set_runlog(NOOP_RUNLOG)
    if previous is not NOOP_RUNLOG:
        previous.close()


@contextmanager
def use_runlog(runlog):
    """Scope the global run log to ``runlog``."""
    previous = set_runlog(runlog)
    try:
        yield runlog
    finally:
        set_runlog(previous)


# ----------------------------------------------------------------------
# convenience emitters used by the engine
# ----------------------------------------------------------------------


def emit(event: str, **fields) -> None:
    """Emit on the global run log (no-op when disabled)."""
    _runlog.emit(event, **fields)


@contextmanager
def phase(name: str, **fields):
    """Emit ``phase_start``/``phase_end`` around a block (errors recorded)."""
    log = _runlog
    if not log.enabled:
        yield
        return
    log.emit("phase_start", phase=name, **fields)
    started = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        log.emit(
            "phase_end",
            phase=name,
            elapsed_seconds=time.perf_counter() - started,
            error=type(exc).__name__,
            **fields,
        )
        raise
    log.emit(
        "phase_end",
        phase=name,
        elapsed_seconds=time.perf_counter() - started,
        **fields,
    )


def emit_error(event: str, exc: BaseException, **fields) -> None:
    """Emit an error event carrying the exception type and traceback."""
    if not _runlog.enabled:
        return
    _runlog.emit(
        event,
        error=type(exc).__name__,
        message=str(exc),
        traceback="".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        ),
        **fields,
    )


def read_events(path: Union[str, Path]) -> List[dict]:
    """Read a run log back (partial trailing lines are skipped)."""
    return obs_tracing.read_jsonl(path)
