"""Tests for the observability subsystem (repro.obs)."""

import json
import threading
import time

import pytest

from repro.core.algorithms import make_algorithm
from repro.core.groups import GroupedDataset
from repro.data.synthetic import SyntheticSpec, generate_grouped
from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    use_registry,
)
from repro.obs.progress import ProgressReporter, eta_from_pair_budget
from repro.obs.tracing import (
    InMemorySink,
    JsonlSink,
    NOOP_SPAN,
    NOOP_TRACER,
    Tracer,
    render_trace,
    use_tracer,
)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestCounter:
    def test_basic_increment(self):
        counter = Counter("requests_total", "Requests served")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("requests_total", "Requests served")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labels_are_independent_series(self):
        counter = Counter(
            "runs_total", "Runs", labelnames=("algorithm",)
        )
        counter.inc(algorithm="NL")
        counter.inc(3, algorithm="LO")
        assert counter.value(algorithm="NL") == 1
        assert counter.value(algorithm="LO") == 3

    def test_bound_labels(self):
        counter = Counter(
            "runs_total", "Runs", labelnames=("algorithm",)
        )
        bound = counter.labels(algorithm="SI")
        bound.inc()
        bound.inc()
        assert counter.value(algorithm="SI") == 2

    def test_wrong_label_set_rejected(self):
        counter = Counter(
            "runs_total", "Runs", labelnames=("algorithm",)
        )
        with pytest.raises(ValueError):
            counter.inc(backend="rtree")
        with pytest.raises(ValueError):
            counter.inc()  # missing the declared label


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("queue_depth", "Depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12


class TestHistogram:
    def test_log_buckets_shape(self):
        buckets = log_buckets(1.0, 10.0, 4)
        assert buckets == (1.0, 10.0, 100.0, 1000.0)

    def test_bucket_edges_le_semantics(self):
        hist = Histogram("pairs", "Pairs", buckets=(1.0, 10.0, 100.0))
        # A value exactly on an edge lands in that bucket (le semantics).
        hist.observe(1.0)
        hist.observe(10.0)
        hist.observe(50.0)
        hist.observe(1000.0)  # beyond the last edge -> +Inf bucket
        snap = hist.snapshot()
        assert snap["buckets"] == {
            1.0: 1,
            10.0: 1,
            100.0: 1,
            float("inf"): 1,
        }
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(1061.0)

    def test_empty_snapshot(self):
        hist = Histogram("pairs", "Pairs", buckets=(1.0,))
        assert hist.snapshot() == {"buckets": {}, "sum": 0.0, "count": 0}

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("pairs", "Pairs", buckets=(10.0, 1.0))


class TestMetricsRegistry:
    def test_idempotent_factory(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "A")
        second = registry.counter("a_total", "A")
        assert first is second

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A")
        with pytest.raises(ValueError):
            registry.gauge("a_total", "A")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A", labelnames=("x",))
        with pytest.raises(ValueError):
            registry.counter("a_total", "A", labelnames=("y",))

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A").inc(5)
        registry.reset()
        assert registry.counter("a_total", "A").value() == 0

    def test_as_dict_and_json(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A").inc(2)
        registry.gauge("b", "B").set(7)
        data = registry.as_dict()
        assert set(data) == {"a_total", "b"}
        assert data["a_total"]["type"] == "counter"
        assert data["a_total"]["series"] == [{"labels": {}, "value": 2.0}]
        assert data["b"]["series"] == [{"labels": {}, "value": 7.0}]
        parsed = json.loads(registry.to_json())
        assert set(parsed) == {"a_total", "b"}

    def test_thread_safety(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "Hits")

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 8000


class TestPrometheusExposition:
    def test_golden_output(self):
        registry = MetricsRegistry()
        registry.counter(
            "runs_total", "Total runs", labelnames=("algorithm",)
        ).inc(3, algorithm="NL")
        registry.gauge("depth", "Current depth").set(2)
        hist = registry.histogram(
            "latency_seconds", "Latency", buckets=(0.5, 1.0)
        )
        hist.observe(0.25)
        hist.observe(0.75)
        text = registry.to_prometheus()
        expected_lines = [
            "# HELP depth Current depth",
            "# TYPE depth gauge",
            "depth 2",
            "# HELP latency_seconds Latency",
            "# TYPE latency_seconds histogram",
            'latency_seconds_bucket{le="0.5"} 1',
            'latency_seconds_bucket{le="1"} 2',
            'latency_seconds_bucket{le="+Inf"} 2',
            "latency_seconds_sum 1",
            "latency_seconds_count 2",
            "# HELP runs_total Total runs",
            "# TYPE runs_total counter",
            'runs_total{algorithm="NL"} 3',
        ]
        for line in expected_lines:
            assert line in text.splitlines(), f"missing: {line}"

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter(
            "odd_total", "Odd", labelnames=("name",)
        ).inc(1, name='quo"te\\slash\nline')
        text = registry.to_prometheus()
        assert '\\"' in text and "\\\\" in text and "\\n" in text


class TestGlobalRegistry:
    def test_use_registry_scopes(self):
        outer = obs_metrics.get_registry()
        scoped = MetricsRegistry()
        with use_registry(scoped):
            assert obs_metrics.get_registry() is scoped
        assert obs_metrics.get_registry() is outer

    def test_enable_disable(self):
        assert not obs_metrics.is_enabled()
        obs_metrics.enable()
        try:
            assert obs_metrics.is_enabled()
        finally:
            obs_metrics.disable()
        assert not obs_metrics.is_enabled()


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracing:
    def test_span_nesting(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("root") as root:
            with tracer.span("child-a"):
                pass
            with tracer.span("child-b") as b:
                b.set_attribute("k", 1)
                b.add_event("hello")
        assert len(sink.traces) == 1
        trace = sink.traces[0]
        assert trace is root
        assert [c.name for c in trace.children] == ["child-a", "child-b"]
        assert trace.children[1].attributes["k"] == 1
        assert trace.children[1].events[0]["name"] == "hello"

    def test_current_span(self):
        tracer = Tracer(InMemorySink())
        assert tracer.current_span() is NOOP_SPAN
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is NOOP_SPAN

    def test_error_recorded(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("will-fail"):
                raise RuntimeError("boom")
        trace = sink.traces[0]
        assert trace.attributes["error"] == "RuntimeError"

    def test_to_dict_roundtrips_json(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("root", x=1) as root:
            with tracer.span("child"):
                pass
        data = root.to_dict()
        assert data["name"] == "root"
        assert data["attributes"]["x"] == 1
        assert data["children"][0]["name"] == "child"
        json.dumps(data)  # must be JSON-serialisable

    def test_ring_buffer_capacity(self):
        sink = InMemorySink(capacity=2)
        tracer = Tracer(sink)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [t.name for t in sink.traces] == ["s3", "s4"]

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "a"

    def test_render_trace(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("root", algorithm="LO") as root:
            with tracer.span("child"):
                pass
        text = render_trace(root)
        assert "root" in text
        assert "child" in text
        assert "algorithm=LO" in text
        assert "└─" in text

    def test_noop_tracer_overhead_path(self):
        span = NOOP_TRACER.span("anything", a=1)
        assert span is NOOP_SPAN
        assert not span.is_recording
        with span as inner:
            inner.set_attribute("x", 1)
            inner.add_event("nothing")
        assert NOOP_TRACER.current_span() is NOOP_SPAN
        assert span.to_dict() == {}

    def test_use_tracer_scopes(self):
        outer = obs_tracing.get_tracer()
        scoped = Tracer(InMemorySink())
        with use_tracer(scoped):
            assert obs_tracing.get_tracer() is scoped
        assert obs_tracing.get_tracer() is outer


# ---------------------------------------------------------------------------
# Progress
# ---------------------------------------------------------------------------


class TestProgress:
    def test_eta_from_pair_budget(self):
        # Half the pairs done in 2 seconds -> 2 seconds remaining.
        assert eta_from_pair_budget(50, 100, 2.0) == pytest.approx(2.0)
        assert eta_from_pair_budget(0, 100, 2.0) is None
        assert eta_from_pair_budget(100, 100, 2.0) == 0.0

    def test_reporter_throttles(self):
        fake_time = [0.0]
        events = []
        reporter = ProgressReporter(
            events.append, min_interval=1.0, clock=lambda: fake_time[0]
        )
        reporter.update(1, 10)
        reporter.update(2, 10)  # same instant: suppressed
        fake_time[0] = 2.0
        reporter.update(3, 10)
        assert [e.done for e in events] == [1, 3]
        assert reporter.events_emitted == 2

    def test_final_event_always_emitted(self):
        fake_time = [0.0]
        events = []
        reporter = ProgressReporter(
            events.append, min_interval=100.0, clock=lambda: fake_time[0]
        )
        reporter.update(1, 10)
        reporter.update(10, 10)  # finished: must emit despite throttle
        assert [e.done for e in events] == [1, 10]
        assert events[-1].finished

    def test_finished_event_emitted_only_once(self):
        # Regression: callers that keep polling after completion (the
        # anytime engine's heartbeat loop does) used to re-emit a
        # "finished" line on every update.
        fake_time = [0.0]
        events = []
        reporter = ProgressReporter(
            events.append, min_interval=0.0, clock=lambda: fake_time[0]
        )
        reporter.update(5, 10)
        for _ in range(4):
            fake_time[0] += 1.0
            reporter.update(10, 10)
        finished = [e for e in events if e.finished]
        assert len(finished) == 1
        assert reporter.events_emitted == 2

    def test_describe_mentions_eta(self):
        event = obs_progress.ProgressEvent(
            phase="probe",
            done=5,
            total=10,
            pairs_examined=500,
            pair_budget=1000,
            elapsed_seconds=1.0,
            eta_seconds=1.0,
        )
        text = event.describe()
        assert "5/10" in text
        assert "left" in text  # the ETA tail


# ---------------------------------------------------------------------------
# End-to-end reconciliation: registry counters == AlgorithmStats
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reconciliation_dataset() -> GroupedDataset:
    spec = SyntheticSpec(
        n_records=300,
        avg_group_size=25,
        dimensions=3,
        distribution="independent",
        seed=11,
    )
    return generate_grouped(spec)


class TestStatsRegistryReconciliation:
    @pytest.mark.parametrize("name", ["NL", "TR", "SI", "IN", "LO", "PAR"])
    def test_counters_match_stats(self, name, reconciliation_dataset):
        registry = MetricsRegistry()
        options = {"execution": "workers=2"} if name == "PAR" else {}
        with use_registry(registry):
            result = make_algorithm(name, 0.75, **options).compute(
                reconciliation_dataset
            )
        stats = result.stats

        def counter_value(metric: str) -> float:
            return registry.counter(
                metric,
                "",
                labelnames=("algorithm",),
            ).value(algorithm=name)

        assert counter_value("skyline_runs_total") == 1
        assert (
            counter_value("skyline_group_comparisons_total")
            == stats.group_comparisons
        )
        assert (
            counter_value("skyline_record_pairs_total")
            == stats.record_pairs_examined
        )
        assert (
            counter_value("skyline_bbox_shortcuts_total")
            == stats.bbox_shortcuts
        )
        assert (
            counter_value("skyline_stopping_rule_exits_total")
            == stats.stopping_rule_exits
        )

    @pytest.mark.parametrize("name", ["NL", "TR", "SI", "PAR", "IN", "LO"])
    def test_detailed_metrics_when_enabled(self, name, reconciliation_dataset):
        # Every one of these loops decides its compares on the batch
        # kernel (NL and PAR's two-phase chunks whole, TR/SI/IN/LO row
        # batches), not through compare(), so this pins the
        # batched paths' per-compare instruments.  PAR runs its chunks
        # inline, on the instrumented comparator.
        registry = MetricsRegistry()
        options = {"execution": "workers=1"} if name == "PAR" else {}
        with use_registry(registry):
            obs_metrics.enable()
            try:
                result = make_algorithm(name, 0.75, **options).compute(
                    reconciliation_dataset
                )
            finally:
                obs_metrics.disable()
        assert result.stats.group_comparisons > 0
        snap = registry.histogram(
            "comparator_pairs_per_compare",
            labelnames=("algorithm",),
        ).snapshot(algorithm=name)
        assert snap["count"] == result.stats.group_comparisons
        assert snap["sum"] == result.stats.record_pairs_examined

        def counter_value(metric: str) -> float:
            return registry.counter(
                metric, "", labelnames=("algorithm",)
            ).value(algorithm=name)

        assert (
            counter_value("comparator_stopping_rule_exits_total")
            == result.stats.stopping_rule_exits
        )
        assert (
            counter_value("comparator_bbox_shortcut_total")
            == result.stats.bbox_shortcuts
        )

    def test_no_detailed_metrics_when_disabled(
        self, reconciliation_dataset
    ):
        registry = MetricsRegistry()
        with use_registry(registry):
            make_algorithm("NL", 0.75).compute(reconciliation_dataset)
        hist = registry.get("comparator_pairs_per_compare")
        assert hist is None or not hist.series_keys()

    def test_trace_attached_when_tracing_enabled(
        self, reconciliation_dataset
    ):
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            result = make_algorithm("LO", 0.75).compute(
                reconciliation_dataset
            )
        assert result.trace is not None
        assert result.trace.name == "skyline.compute"
        child_names = [c.name for c in result.trace.children]
        assert "skyline.candidates" in child_names
        assert result.trace.attributes["algorithm"] == "LO"
        assert (
            result.trace.attributes["group_comparisons"]
            == result.stats.group_comparisons
        )

    def test_no_trace_when_disabled(self, reconciliation_dataset):
        result = make_algorithm("NL", 0.75).compute(
            reconciliation_dataset
        )
        assert result.trace is None


# ---------------------------------------------------------------------------
# Timer (satellite: core/result.py fixes)
# ---------------------------------------------------------------------------


class TestTimerObs:
    def test_nested_reentry(self):
        from repro.core.result import Timer

        timer = Timer()
        with timer:
            with timer:
                time.sleep(0.002)
            # still running: inner exit must not stop the clock
            assert timer.running
        assert not timer.running
        assert timer.elapsed >= 0.002

    def test_live_elapsed_while_running(self):
        from repro.core.result import Timer

        timer = Timer()
        with timer:
            time.sleep(0.002)
            live = timer.elapsed
            assert live >= 0.002
        assert timer.elapsed >= live

    def test_exit_without_enter_raises(self):
        from repro.core.result import Timer

        timer = Timer()
        with pytest.raises(RuntimeError):
            timer.__exit__(None, None, None)

    def test_reset(self):
        from repro.core.result import Timer

        timer = Timer()
        with timer:
            time.sleep(0.001)
        timer.reset()
        assert timer.elapsed == 0.0
