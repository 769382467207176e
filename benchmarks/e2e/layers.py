"""Per-layer spans for the traced run (``--trace 1``).

The library has no spans at these boundaries, so the benchmark wraps the
public callables of each layer where they are bound and records one span
per call: name, start, end, parent span, thread and benchmark op id.
Spans stay in memory and are written out once the run ends.  Forked
pool workers inherit the wrappers; they compare their pid with the
benchmark's and call straight through, so work inside workers is seen
only as the ``ChunkOutcome`` busy time and counters the parent receives.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    op: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _outcome_attrs(outcomes) -> dict:
    return {
        "busy_s": sum(o.elapsed_seconds for o in outcomes),
        "chunks": len(outcomes),
        "window_queries": sum(o.window_queries for o in outcomes),
        "candidates": sum(o.index_candidates for o in outcomes),
    }


def _pool_run_attrs(run) -> dict:
    return _outcome_attrs(run.outcomes)


def _candidates(result) -> dict:
    return {"candidates": len(result)}


#: (module, class or None, attribute, span name, attributes of the return value)
BINDINGS = (
    ("repro.engine.session", None, "optimize", "plan.optimize", None),
    ("repro.plan.physical", "PhysicalPlan", "execute", "algorithms.execute", None),
    ("repro.index.rtree", "FlatRTree", "search_window", "index.search_window", _candidates),
    ("repro.core.artifacts", None, "packed_rtree", "artifacts.packed_rtree", None),
    ("repro.core.artifacts", None, "sort_order", "artifacts.sort_order", None),
    ("repro.core.comparator", "GroupComparator", "compare", "comparator.compare", None),
    ("repro.core.algorithms.indexed", None, "run_spans", "parallel.run_spans", _pool_run_attrs),
    ("repro.core.algorithms.parallel", None, "run_spans", "parallel.run_spans", _pool_run_attrs),
    ("repro.engine.pool", "PersistentPool", "run_query", "pool.run_query", _outcome_attrs),
    ("repro.engine.pool", "PersistentPool", "attach", "pool.attach", None),
    ("repro.engine.pool", "PersistentPool", "pin_index", "pool.pin_index", None),
    ("repro.engine.pool", "PersistentPool", "pin_order", "pool.pin_order", None),
    ("repro.engine.pool", "PersistentPool", "detach", "pool.detach", None),
    ("repro.engine.session", "SkylineEngine", "attach", "engine.attach", None),
    ("repro.engine.session", "SkylineEngine", "query", "engine.query", None),
    ("repro.engine.session", "SkylineEngine", "detach", "engine.detach", None),
    ("repro.net.admission", "AdmissionController", "admit", "net.admit", None),
    ("repro.net.client", "SkylineClient", "query", "net.client_query", None),
)

class SpanRecorder:
    """Records spans of this process only; see the module docstring."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_op(self, op_id: int) -> None:
        """Tag the spans the calling thread records next with ``op_id``."""
        self._local.op = op_id

    def wrap(self, name: str, fn: Callable, inspect: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != recorder.pid:
                return fn(*args, **kwargs)
            local = recorder._local
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = inspect(result) if inspect is not None and result is not None else {}
                recorder.spans.append(Span(
                    span_id, name, start, end, parent,
                    threading.get_ident(), getattr(local, "op", None), attrs,
                ))

        return traced

    def install(self) -> None:
        """Replace every callable in :data:`BINDINGS` with a recording wrapper."""
        for module_name, class_name, attribute, name, inspect in BINDINGS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            setattr(owner, attribute, self.wrap(name, original, inspect))

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one recorded call adds over a direct call."""
    recorder = SpanRecorder()

    def noop():
        return None

    traced = recorder.wrap("noop", noop)
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    direct = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - started
    return max(0.0, (wrapped - direct) / calls)


def self_seconds(span: Span, children: Sequence[Span]) -> float:
    """The span's duration minus the union of its children's intervals."""
    covered = 0.0
    cursor = span.start
    for start, end in sorted((c.start, c.end) for c in children):
        start, end = max(start, cursor), min(end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return span.seconds - covered


def layer_metrics(spans: List[Span], window: Tuple[float, float], ops: list,
                  counters: Dict[str, float], workers: int) -> Dict[str, tuple]:
    """Per-layer metrics over the timed window, as means per timed op."""
    t0, t1 = window
    inside = [s for s in spans if s.start >= t0 and s.end <= t1]
    by_name: Dict[str, List[Span]] = {}
    children: Dict[int, List[Span]] = {}
    for span in inside:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def total(*names: str) -> float:
        return sum(s.seconds for name in names for s in by_name.get(name, ()))

    def attr(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def own(name: str) -> float:
        return sum(self_seconds(s, children.get(s.id, ())) for s in by_name.get(name, ()))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    n = len(ops)
    stats = {key: 0 for key in ("group_comparisons", "record_pairs_examined",
                                "stopping_rule_exits", "bbox_shortcuts", "groups_skipped")}
    for op in ops:
        for key in stats:
            stats[key] += op.stats.get(key, 0)
    windows = len(by_name.get("index.search_window", ())) \
        + attr("parallel.run_spans", "window_queries") + attr("pool.run_query", "window_queries")
    candidates = attr("index.search_window", "candidates") \
        + attr("parallel.run_spans", "candidates") + attr("pool.run_query", "candidates")
    run_spans, pool_busy = total("parallel.run_spans"), attr("parallel.run_spans", "busy_s")
    run_query, query_busy = total("pool.run_query"), attr("pool.run_query", "busy_s")
    calls = len(inside)
    op_mean = sum(op.seconds for op in ops) / n
    artifact_lookups = counters["artifact_hits"] + counters["artifact_misses"]
    plan_lookups = counters["plan_cache_hits_total"] + counters["plan_cache_misses_total"]
    return {
        "index.search_window_s": (total("index.search_window") / n, "s"),
        "index.window_queries": (windows / n, "count"),
        "index.candidates_per_window": (ratio(candidates, windows), "count"),
        "index.build_s": (total("artifacts.packed_rtree", "artifacts.sort_order") / n, "s"),
        "artifacts.cache_hit_ratio": (ratio(counters["artifact_hits"], artifact_lookups), "ratio"),
        "comparator.compare_s": (total("comparator.compare") / n, "s"),
        "comparator.compares": (stats["group_comparisons"] / n, "count"),
        "comparator.pairs_per_compare": (
            ratio(stats["record_pairs_examined"], stats["group_comparisons"]), "count"),
        "comparator.stopping_rule_exit_ratio": (
            ratio(stats["stopping_rule_exits"], stats["group_comparisons"]), "ratio"),
        "comparator.bbox_shortcut_ratio": (
            ratio(stats["bbox_shortcuts"], stats["group_comparisons"]), "ratio"),
        "algorithms.execute_self_s": (own("algorithms.execute") / n, "s"),
        "algorithms.groups_skipped": (stats["groups_skipped"] / n, "count"),
        "plan.optimize_s": (total("plan.optimize") / n, "s"),
        "plan.cache_hit_ratio": (ratio(counters["plan_cache_hits_total"], plan_lookups), "ratio"),
        "parallel.run_spans_s": (run_spans / n, "s"),
        "parallel.worker_busy_s": (pool_busy / n, "s"),
        "parallel.overhead_s": ((run_spans - pool_busy / workers) / n, "s"),
        "parallel.chunks": (attr("parallel.run_spans", "chunks") / n, "count"),
        "engine.attach_s": (total("engine.attach") / n, "s"),
        "engine.detach_s": (total("engine.detach") / n, "s"),
        "engine.query_self_s": (own("engine.query") / n, "s"),
        "pool.pin_s": (total("pool.pin_index", "pool.pin_order") / n, "s"),
        "pool.run_query_s": (run_query / n, "s"),
        "pool.worker_busy_s": (query_busy / n, "s"),
        "pool.wait_s": ((run_query - query_busy / workers) / n, "s"),
        "pool.chunks": (attr("pool.run_query", "chunks") / n, "count"),
        "net.admission_wait_s": (total("net.admit") / n, "s"),
        "net.request_overhead_s": (
            (total("net.client_query") - total("engine.query") - total("net.admit")) / n
            if "net.client_query" in by_name else 0.0, "s"),
        "trace.op_mean_s": (op_mean, "s"),
        "trace.overhead_ratio": (ratio(calls / n * wrapper_cost(), op_mean), "ratio"),
    }
