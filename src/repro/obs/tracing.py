"""Span-based tracing for the skyline engine.

A :class:`Tracer` produces :class:`Span` context managers with monotonic
timestamps, parent/child nesting, per-span attributes and events.  Finished
*root* spans are handed to a sink: the ring-buffer :class:`InMemorySink`
(default) or the append-only :class:`JsonlSink`.  :func:`render_trace`
pretty-prints a span tree for terminals.

Distributed tracing (v2)
------------------------
Every recorded span carries three stable identifiers:

* ``trace_id`` — shared by every span of one logical run, across threads
  *and processes*;
* ``span_id`` — unique per span;
* ``parent_id`` — the ``span_id`` of the parent span (``None`` for a true
  root).

A :class:`TraceContext` snapshots ``(trace_id, span_id)`` of the current
span so it can be shipped to pool workers (it is a tiny frozen dataclass
that pickles under both ``fork`` and ``spawn``); a worker-side
:class:`Tracer` built with that context parents its root spans under the
originating span.  The serialized worker spans travel back with the chunk
results and are re-attached to the parent tree via :meth:`Span.from_dict`,
so a ``workers=4`` run still renders as one coherent tree.

Overhead discipline
-------------------
The process-global tracer defaults to :data:`NOOP_TRACER`, whose ``span()``
returns a shared, stateless no-op span — entering it is two cheap method
calls and no allocation, so instrumentation points can be left in hot code
unconditionally.  :func:`enable_tracing` swaps in a recording tracer;
callers that need to branch can check ``span.is_recording``.

Example::

    from repro.obs import tracing

    tracer = tracing.enable_tracing()
    with tracer.span("skyline.compute", algorithm="LO") as root:
        with tracer.span("index.build"):
            ...
    print(tracing.render_trace(root))
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "NOOP_SPAN",
    "InMemorySink",
    "JsonlSink",
    "render_trace",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "enable_tracing",
    "disable_tracing",
    "current_trace_context",
    "new_trace_id",
    "new_span_id",
]


def new_trace_id() -> str:
    """A fresh 128-bit trace identifier (32 hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span identifier (16 hex chars)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """Picklable snapshot of "where we are" in a trace.

    Shipped to pool workers in each query's ``prepare`` message so spans
    recorded in worker processes share the parent run's ``trace_id`` and
    parent under the span that queued the query.
    """

    trace_id: str
    span_id: Optional[str] = None


class Span:
    """One timed operation; a context manager that nests automatically."""

    __slots__ = (
        "name",
        "attributes",
        "events",
        "children",
        "start_wall",
        "trace_id",
        "span_id",
        "parent_id",
        "_start",
        "_end",
        "_tracer",
    )

    is_recording = True

    def __init__(self, name: str, tracer: "Tracer", attributes: Optional[Dict] = None):
        self.name = name
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.events: List[Dict[str, object]] = []
        self.children: List["Span"] = []
        self.start_wall: Optional[float] = None
        #: Stable identifiers; assigned when the span is opened (the trace
        #: and parent ids depend on the enclosing span at that moment).
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self._start: Optional[float] = None
        self._end: Optional[float] = None
        self._tracer = tracer

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "Span":
        self.start_wall = time.time()
        self._start = time.perf_counter()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._end = time.perf_counter()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    # -- recording ------------------------------------------------------

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attributes) -> None:
        offset = (
            time.perf_counter() - self._start
            if self._start is not None
            else 0.0
        )
        self.events.append(
            {"name": name, "offset_seconds": offset, **attributes}
        )

    @property
    def duration_seconds(self) -> float:
        """Elapsed time; live while the span is still open."""
        if self._start is None:
            return 0.0
        end = self._end if self._end is not None else time.perf_counter()
        return end - self._start

    @property
    def ended(self) -> bool:
        return self._end is not None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_wall,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
            "events": list(self.events),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a finished span tree from its :meth:`to_dict` form.

        Used to graft spans recorded in pool workers back onto the parent
        process's tree.  The rebuilt spans are closed (``ended`` is true)
        and render/serialize exactly like locally recorded ones.
        """
        span = cls(str(data.get("name", "")), _DETACHED_TRACER)
        span.trace_id = data.get("trace_id")
        span.span_id = data.get("span_id")
        span.parent_id = data.get("parent_id")
        span.start_wall = data.get("start_unix")
        span.attributes = dict(data.get("attributes") or {})
        span.events = [dict(event) for event in data.get("events") or ()]
        duration = float(data.get("duration_seconds") or 0.0)
        span._start = 0.0
        span._end = duration
        span.children = [
            cls.from_dict(child) for child in data.get("children") or ()
        ]
        return span

    def adopt(self, child: "Span") -> None:
        """Attach an already-finished span (e.g. a worker span) as a child."""
        self.children.append(child)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Span({self.name!r}, {self.duration_seconds * 1e3:.2f}ms,"
            f" children={len(self.children)})"
        )


class _NoopSpan:
    """Shared, stateless span used when tracing is disabled."""

    __slots__ = ()

    is_recording = False
    name = ""
    attributes: Dict[str, object] = {}
    events: List[Dict[str, object]] = []
    children: List["Span"] = []
    duration_seconds = 0.0
    ended = False
    trace_id = None
    span_id = None
    parent_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def add_event(self, name: str, **attributes) -> None:
        pass

    def to_dict(self) -> dict:
        return {}


NOOP_SPAN = _NoopSpan()


class InMemorySink:
    """Ring buffer of the most recent finished root spans."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._spans: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def emit(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    @property
    def traces(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def close(self) -> None:
        pass


class JsonlSink:
    """Append every finished root span as one JSON line.

    Durability: every emit is written and flushed as a single line while
    holding the lock, and the handle is additionally closed via ``atexit``
    (and the context-manager protocol), so spans from runs that crash or
    time out later are still on disk.  Partially written trailing lines
    (a crash *mid*-write) are tolerated by :func:`read_jsonl`.
    """

    def __init__(self, path: Union[str, Path]):
        import atexit

        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._atexit = atexit.register(self.close)

    def emit(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        import atexit

        with self._lock:
            if not self._handle.closed:
                self._handle.close()
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


def read_jsonl(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL file written by :class:`JsonlSink` (or the run log).

    Tolerates a partially written final line — the tail a crashed or
    killed process leaves behind — by skipping lines that fail to parse,
    so everything that *was* flushed remains readable.
    """
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


class Tracer:
    """Produces spans; tracks the per-thread span stack for nesting.

    ``context`` optionally parents this tracer's *root* spans under a
    remote span: they inherit ``context.trace_id`` and set their
    ``parent_id`` to ``context.span_id``.  This is how worker processes
    keep recording into the trace of the run that spawned them.
    """

    enabled = True

    def __init__(self, sink=None, context: Optional[TraceContext] = None):
        self.sink = sink if sink is not None else InMemorySink()
        self.context = context
        self._local = threading.local()

    def span(self, name: str, **attributes) -> Span:
        return Span(name, self, attributes)

    def current_span(self):
        """Innermost open span of this thread (``NOOP_SPAN`` if none)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else NOOP_SPAN

    # -- internal -------------------------------------------------------

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        span.span_id = new_span_id()
        if stack:
            parent = stack[-1]
            parent.children.append(span)
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        elif self.context is not None:
            span.trace_id = self.context.trace_id
            span.parent_id = self.context.span_id
        else:
            span.trace_id = new_trace_id()
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)
        if not stack:
            self.sink.emit(span)


class NoopTracer:
    """Near-zero-cost tracer used while tracing is disabled."""

    enabled = False

    def span(self, name: str, **attributes) -> _NoopSpan:
        return NOOP_SPAN

    def current_span(self) -> _NoopSpan:
        return NOOP_SPAN


NOOP_TRACER = NoopTracer()

#: Placeholder tracer for spans rebuilt via :meth:`Span.from_dict`; such
#: spans are already finished and are never used as context managers.
_DETACHED_TRACER = NOOP_TRACER


def current_trace_context(tracer=None) -> Optional[TraceContext]:
    """Snapshot the (global) tracer's current span as a :class:`TraceContext`.

    Returns ``None`` when tracing is disabled or no span is open — callers
    ship the result to workers as-is, and ``None`` simply means "don't
    record over there either".
    """
    tracer = tracer if tracer is not None else get_tracer()
    if not getattr(tracer, "enabled", False):
        return None
    span = tracer.current_span()
    if not span.is_recording or span.trace_id is None:
        return None
    return TraceContext(trace_id=span.trace_id, span_id=span.span_id)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _format_duration(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def _format_attributes(attributes: Dict[str, object]) -> str:
    if not attributes:
        return ""
    inner = " ".join(f"{k}={v}" for k, v in attributes.items())
    return f"  [{inner}]"


def render_trace(span, max_depth: Optional[int] = None) -> str:
    """Human-readable tree of a span and its descendants."""
    if not getattr(span, "is_recording", False):
        return "(no trace recorded)"
    lines: List[str] = []

    def walk(node, prefix: str, child_prefix: str, depth: int) -> None:
        lines.append(
            f"{prefix}{node.name}  {_format_duration(node.duration_seconds)}"
            f"{_format_attributes(node.attributes)}"
        )
        for event in node.events:
            name = event.get("name", "event")
            offset = event.get("offset_seconds", 0.0)
            lines.append(
                f"{child_prefix}· {name} @{_format_duration(float(offset))}"
            )
        if max_depth is not None and depth >= max_depth:
            if node.children:
                lines.append(f"{child_prefix}… ({len(node.children)} spans)")
            return
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            branch = "└─ " if last else "├─ "
            extend = "   " if last else "│  "
            walk(child, child_prefix + branch, child_prefix + extend, depth + 1)

    walk(span, "", "", 0)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# process-global tracer
# ----------------------------------------------------------------------

_tracer = NOOP_TRACER
_state_lock = threading.Lock()


def get_tracer():
    """The process-global tracer (no-op unless tracing was enabled)."""
    return _tracer


def set_tracer(tracer) -> object:
    """Replace the global tracer (returns the previous one)."""
    global _tracer
    with _state_lock:
        previous, _tracer = _tracer, tracer
    return previous


def enable_tracing(sink=None) -> Tracer:
    """Install (and return) a recording tracer as the global tracer."""
    tracer = Tracer(sink=sink)
    set_tracer(tracer)
    return tracer


def disable_tracing() -> None:
    """Back to the no-op tracer."""
    set_tracer(NOOP_TRACER)


@contextmanager
def use_tracer(tracer=None):
    """Scope the global tracer (a fresh recording tracer by default)."""
    tracer = tracer if tracer is not None else Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
