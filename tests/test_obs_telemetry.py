"""Tests for the run-telemetry layer (tracing v2, runlog, sampler, perf).

Covers the pieces added with end-to-end run telemetry:

* span identity (trace/span/parent ids), cross-process trace merge,
  serialized round-trips and JSONL durability;
* the structured run log and its trace correlation;
* the background resource sampler (start/stop hygiene, GC hooks);
* the perf-regression tracker (``BENCH_*.json`` time series) and its CLI;
* the chunk-based ETA of pooled progress reporting;
* the OpenMetrics exposition format.
"""

import collections
import gc
import json
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.core.algorithms import make_algorithm
from repro.core.execution import ExecutionConfig
from repro.data.workloads import load_workload
from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.perfhistory import PerfHistory, parse_threshold
from repro.obs.progress import ProgressEvent, ProgressReporter, eta_from_chunks
from repro.obs.runlog import RunLog, read_events, use_runlog
from repro.obs.sampler import ResourceSampler, profile_phase
from repro.obs.tracing import (
    InMemorySink,
    Span,
    TraceContext,
    Tracer,
    current_trace_context,
    read_jsonl,
    render_trace,
    use_tracer,
)


# ---------------------------------------------------------------------------
# Span identity
# ---------------------------------------------------------------------------


class TestSpanIdentity:
    def test_root_span_gets_fresh_ids(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("root") as root:
            pass
        assert len(root.trace_id) == 32
        assert len(root.span_id) == 16
        assert root.parent_id is None

    def test_children_share_trace_and_parent(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert len({root.span_id, child.span_id, grandchild.span_id}) == 3

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_tracer_context_seeds_ids(self):
        context = TraceContext(trace_id="f" * 32, span_id="a" * 16)
        tracer = Tracer(InMemorySink(), context=context)
        with tracer.span("remote") as span:
            pass
        assert span.trace_id == context.trace_id
        assert span.parent_id == context.span_id

    def test_current_trace_context(self):
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            assert current_trace_context() is None
            with tracer.span("open") as span:
                context = current_trace_context()
                assert context == TraceContext(span.trace_id, span.span_id)
            assert current_trace_context() is None

    def test_ids_survive_dict_roundtrip(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("root", k=1) as root:
            root.add_event("evt", n=2)
            with tracer.span("child"):
                pass
        rebuilt = Span.from_dict(json.loads(json.dumps(root.to_dict())))
        assert rebuilt.trace_id == root.trace_id
        assert rebuilt.span_id == root.span_id
        assert rebuilt.ended
        assert rebuilt.attributes == {"k": 1}
        assert rebuilt.events[0]["name"] == "evt"
        assert rebuilt.children[0].parent_id == root.span_id
        # Rebuilt spans render like local ones.
        assert "child" in render_trace(rebuilt)

    def test_adopt_grafts_finished_span(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("worker-side") as remote:
            pass
        with tracer.span("parent") as parent:
            parent.adopt(Span.from_dict(remote.to_dict()))
        assert [c.name for c in parent.children] == ["worker-side"]


# ---------------------------------------------------------------------------
# JSONL durability
# ---------------------------------------------------------------------------


class TestJsonlDurability:
    def test_read_jsonl_skips_torn_trailing_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "ok"}\n{"name": "torn', encoding="utf-8")
        records = read_jsonl(path)
        assert [r["name"] for r in records] == ["ok"]

    def test_jsonl_sink_context_manager_closes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs_tracing.JsonlSink(path) as sink:
            tracer = Tracer(sink)
            with tracer.span("a"):
                pass
        assert read_jsonl(path)[0]["name"] == "a"
        # emit after close is a silent no-op, not a crash
        with tracer.span("late"):
            pass
        assert len(read_jsonl(path)) == 1


# ---------------------------------------------------------------------------
# Cross-process trace merge (the tentpole acceptance scenario)
# ---------------------------------------------------------------------------


class TestCrossProcessTraceMerge:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_run_merges_into_one_tree(
        self, tmp_path, monkeypatch, start_method
    ):
        """A ``workers=4, scheduler=stealing`` IN run on a Zipfian smoke
        dataset must produce one coherent trace tree (worker chunk spans
        grafted under the parent's ``parallel.chunks`` span) plus a JSONL
        run log whose events carry the same ``trace_id``."""
        import multiprocessing as mp

        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"start method {start_method} unavailable")
        monkeypatch.setenv("REPRO_START_METHOD", start_method)
        dataset = load_workload("zipf-heavy", scale=0.05)
        sink = InMemorySink()
        log_path = tmp_path / "run.jsonl"
        execution = ExecutionConfig(workers=4, scheduler="stealing")
        with use_tracer(Tracer(sink)):
            with use_runlog(RunLog(log_path)):
                result = make_algorithm(
                    "IN", 0.5, execution=execution
                ).compute(dataset)

        assert len(sink.traces) == 1
        root = sink.traces[0]
        assert root.name == "skyline.compute"

        spans = []

        def walk(node):
            spans.append(node)
            for child in node.children:
                walk(child)

        walk(root)
        ids = {s.span_id for s in spans}
        chunks = [s for s in spans if s.name == "parallel.chunk"]
        assert chunks, "no worker chunk spans were merged"
        assert {s.trace_id for s in spans} == {root.trace_id}
        assert all(s.parent_id in ids for s in chunks)
        # Worker spans carry the scheduling attributes.
        for chunk in chunks:
            assert chunk.attributes["kind"] == "candidates"
            assert "slot" in chunk.attributes
            assert "pid" in chunk.attributes
        # Chunk-span counters reconcile with the merged stats.
        assert (
            sum(c.attributes["pairs_examined"] for c in chunks)
            == result.stats.record_pairs_examined
        )

        events = read_events(log_path)
        names = [e["event"] for e in events]
        assert names[0] == "run_start" and names[-1] == "run_end"
        assert "pool_start" in names and "pool_end" in names
        assert {e["trace_id"] for e in events} == {root.trace_id}

    def test_untraced_pool_stays_silent(self):
        # No tracer, no runlog: the pooled path must not record anything.
        dataset = load_workload("zipf-heavy", scale=0.05)
        result = make_algorithm(
            "PAR", 0.5, execution=ExecutionConfig(workers=2)
        ).compute(dataset)
        assert result.trace is None


# ---------------------------------------------------------------------------
# Structured run log
# ---------------------------------------------------------------------------


class TestRunLog:
    def test_emit_schema_and_durability(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = RunLog(path, clock=lambda: 123.0)
        log.emit("run_start", algorithm="NL")
        # Flushed immediately: readable before close.
        events = read_events(path)
        assert events[0]["ts"] == 123.0
        assert events[0]["event"] == "run_start"
        assert events[0]["algorithm"] == "NL"
        assert isinstance(events[0]["pid"], int)
        log.close()

    def test_trace_correlation(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            with use_runlog(RunLog(path)):
                obs_runlog.emit("outside")
                with tracer.span("op") as span:
                    obs_runlog.emit("inside")
        outside, inside = read_events(path)
        assert "trace_id" not in outside
        assert inside["trace_id"] == span.trace_id
        assert inside["span_id"] == span.span_id

    def test_phase_contextmanager(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with use_runlog(RunLog(path)):
            with obs_runlog.phase("bench.run", experiment="fig10"):
                pass
            with pytest.raises(ValueError):
                with obs_runlog.phase("bench.run"):
                    raise ValueError("boom")
        events = read_events(path)
        assert [e["event"] for e in events] == [
            "phase_start", "phase_end", "phase_start", "phase_end",
        ]
        assert events[1]["phase"] == "bench.run"
        assert events[1]["elapsed_seconds"] >= 0
        assert events[3]["error"] == "ValueError"

    def test_emit_error_includes_traceback(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with use_runlog(RunLog(path)):
            try:
                raise RuntimeError("kaput")
            except RuntimeError as exc:
                obs_runlog.emit_error("run_error", exc, algorithm="NL")
        (event,) = read_events(path)
        assert event["error"] == "RuntimeError"
        assert event["message"] == "kaput"
        assert "test_obs_telemetry" in event["traceback"]

    def test_unserializable_fields_coerced(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with use_runlog(RunLog(path)):
            obs_runlog.emit("odd", value=object())
        (event,) = read_events(path)
        assert "object object" in event["value"]

    def test_emit_after_close_is_noop(self, tmp_path):
        log = RunLog(tmp_path / "run.jsonl")
        log.emit("one")
        log.close()
        log.emit("two")  # must not raise
        assert [e["event"] for e in read_events(log.path)] == ["one"]

    def test_default_is_noop(self):
        log = obs_runlog.get_runlog()
        assert not log.enabled
        obs_runlog.emit("ignored")  # must not raise or write anywhere

    def test_run_events_from_compute(self, tmp_path):
        dataset = load_workload("paper-default", scale=0.05)
        path = tmp_path / "run.jsonl"
        with use_runlog(RunLog(path)):
            result = make_algorithm("NL", 0.5).compute(dataset)
        events = {e["event"]: e for e in read_events(path)}
        assert events["run_start"]["algorithm"] == "NL"
        end = events["run_end"]
        assert end["survivors"] == len(result.keys)
        assert end["group_comparisons"] == result.stats.group_comparisons
        assert end["elapsed_seconds"] > 0

    def test_cache_events_from_artifacts(self, tmp_path):
        dataset = load_workload("paper-default", scale=0.05)
        path = tmp_path / "run.jsonl"
        with use_runlog(RunLog(path)):
            make_algorithm("IN", 0.5).compute(dataset)
            make_algorithm("IN", 0.5).compute(dataset)
        names = [e["event"] for e in read_events(path)]
        assert "cache_miss" in names
        assert "cache_hit" in names


# ---------------------------------------------------------------------------
# Resource sampler
# ---------------------------------------------------------------------------


class TestResourceSampler:
    def test_start_stop_leaves_no_leaks(self):
        threads_before = threading.active_count()
        callbacks_before = len(gc.callbacks)
        sampler = ResourceSampler(interval=0.01)
        sampler.start()
        assert sampler.running
        time.sleep(0.05)
        sampler.stop()
        assert not sampler.running
        assert threading.active_count() == threads_before
        assert len(gc.callbacks) == callbacks_before
        assert sampler.samples_taken >= 1

    def test_sample_once_populates_gauges(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(
            interval=60.0, registry=registry, queue_depth_fn=lambda: 7
        )
        sampler.start()
        try:
            sampler.sample_once()
        finally:
            sampler.stop()
        assert registry.gauge("process_rss_bytes", "").value() > 0
        assert registry.gauge("process_cpu_seconds", "").value() > 0
        assert registry.gauge("pool_queue_depth", "").value() == 7
        assert (
            registry.gauge("process_rss_peak_bytes", "").value()
            >= registry.gauge("process_rss_bytes", "").value()
        )

    def test_gc_pauses_observed(self):
        registry = MetricsRegistry()
        with ResourceSampler(interval=60.0, registry=registry):
            gc.collect()
        assert (
            registry.counter(
                "gc_collections_total", "", labelnames=("generation",)
            ).value(generation="2")
            >= 1
        )
        snap = registry.histogram("gc_pause_seconds", "").snapshot()
        assert snap["count"] >= 1

    def test_restart_resets_peak_rss(self):
        # Regression: peak_rss_bytes used to carry over between
        # start/stop cycles, so a restarted sampler reported the old
        # run's high-water mark forever.
        registry = MetricsRegistry()
        sampler = ResourceSampler(interval=60.0, registry=registry)
        sampler.start()
        try:
            sampler.sample_once()
            first_peak = sampler.peak_rss_bytes
            assert first_peak > 0
        finally:
            sampler.stop()
        sampler.peak_rss_bytes = first_peak * 100  # simulate a stale peak
        sampler.start()
        try:
            assert sampler.peak_rss_bytes == 0  # reset on start
            sampler.sample_once()
            assert 0 < sampler.peak_rss_bytes < first_peak * 100
            # the gauge tracks this run's peak, not the stale one
            assert (
                registry.gauge("process_rss_peak_bytes", "").value()
                == sampler.peak_rss_bytes
            )
        finally:
            sampler.stop()

    def test_double_start_rejected(self):
        sampler = ResourceSampler(interval=60.0)
        sampler.start()
        try:
            with pytest.raises(RuntimeError):
                sampler.start()
        finally:
            sampler.stop()
        sampler.stop()  # idempotent

    def test_profile_phase_disabled_by_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_PROFILE_DIR", raising=False)
        with profile_phase("NL.candidates"):
            pass  # no env var: must be a plain no-op

    def test_profile_phase_writes_pstats(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path))
        with profile_phase("NL.candidates"):
            sum(range(1000))
        dumps = list(tmp_path.glob("NL.candidates.*.pstats"))
        assert len(dumps) == 1
        import pstats

        stats = pstats.Stats(str(dumps[0]))
        assert stats.total_calls >= 1


# ---------------------------------------------------------------------------
# Perf-regression tracker
# ---------------------------------------------------------------------------


class TestPerfHistory:
    def test_record_roundtrip(self, tmp_path):
        history = PerfHistory(tmp_path / "BENCH_t.json")
        entry = history.record(
            "fp1", "NL", 0.5,
            execution={"workers": 2},
            counters={"pairs": 100},
            label="abc123",
        )
        (loaded,) = history.load()
        assert loaded.key == entry.key
        assert loaded.elapsed_seconds == 0.5
        assert loaded.counters == {"pairs": 100.0}
        assert loaded.label == "abc123"
        assert loaded.recorded_at > 0

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"format_version": 99, "entries": []}')
        with pytest.raises(ValueError):
            PerfHistory(path).load()

    def test_injected_regression_flagged(self, tmp_path):
        """The acceptance fixture: a +25% latency regression trips a 20%
        threshold; the sibling series stays green."""
        history = PerfHistory(tmp_path / "BENCH_t.json")
        for elapsed in (1.0, 1.02, 0.98):
            history.record("fp1", "NL", elapsed)
            history.record("fp1", "IN", elapsed / 10)
        history.record("fp1", "NL", 1.25)  # the regression
        history.record("fp1", "IN", 0.101)  # within noise
        report = history.check(threshold="20%")
        assert not report.ok
        (regression,) = report.regressions
        assert regression.algorithm == "NL"
        assert regression.metric == "elapsed_seconds"
        assert regression.ratio == pytest.approx(0.25, abs=0.01)
        assert "REGRESSION" in report.describe()

    def test_no_regression_under_threshold(self, tmp_path):
        history = PerfHistory(tmp_path / "BENCH_t.json")
        for elapsed in (1.0, 1.05, 1.1):
            history.record("fp1", "NL", elapsed)
        report = history.check(threshold="20%")
        assert report.ok
        assert report.series_checked == 1

    def test_counter_regressions_checked_too(self, tmp_path):
        history = PerfHistory(tmp_path / "BENCH_t.json")
        history.record("fp1", "NL", 1.0, counters={"pairs": 1000})
        history.record("fp1", "NL", 1.0, counters={"pairs": 2000})
        report = history.check(threshold="20%")
        assert [r.metric for r in report.regressions] == ["pairs"]

    def test_short_series_skipped(self, tmp_path):
        history = PerfHistory(tmp_path / "BENCH_t.json")
        history.record("fp1", "NL", 1.0)
        report = history.check()
        assert report.ok
        assert report.series_skipped == 1

    def test_different_execution_is_a_different_series(self, tmp_path):
        history = PerfHistory(tmp_path / "BENCH_t.json")
        history.record("fp1", "IN", 1.0)
        history.record("fp1", "IN", 5.0, execution={"workers": 4})
        assert len(history.series()) == 2
        assert history.check(threshold="20%").ok

    def test_parse_threshold_spellings(self):
        assert parse_threshold("20%") == pytest.approx(0.2)
        assert parse_threshold("0.2") == pytest.approx(0.2)
        assert parse_threshold(20) == pytest.approx(0.2)
        assert parse_threshold(0.2) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            parse_threshold(-1)


class TestPerfCli:
    def test_record_report_check_roundtrip(self, tmp_path, capsys):
        history = str(tmp_path / "BENCH_cli.json")
        for _ in range(2):
            code = cli_main(
                [
                    "perf", "record",
                    "--history", history,
                    "--workload", "paper-default",
                    "--scale", "0.05",
                    "--algorithm", "NL",
                ]
            )
            assert code == 0
        out = capsys.readouterr().out
        assert "recorded NL" in out

        assert cli_main(["perf", "report", "--history", history]) == 0
        assert "NL" in capsys.readouterr().out

        assert (
            cli_main(
                ["perf", "check", "--history", history,
                 "--threshold", "1000%"]
            )
            == 0
        )
        capsys.readouterr()

        # Inject a fat regression and verify the non-zero exit.
        perf = PerfHistory(history)
        base = perf.load()[-1]
        perf.record(
            base.fingerprint,
            base.algorithm,
            base.elapsed_seconds * 10,
            counters=base.counters,
        )
        assert (
            cli_main(
                ["perf", "check", "--history", history, "--threshold", "20%"]
            )
            == 1
        )
        assert "REGRESSION" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Pooled progress / chunk ETA
# ---------------------------------------------------------------------------


class TestChunkEta:
    def test_eta_from_chunks(self):
        assert eta_from_chunks(5, 10, 2.0) == pytest.approx(2.0)
        assert eta_from_chunks(0, 10, 2.0) is None
        assert eta_from_chunks(10, 10, 2.0) == 0.0
        assert eta_from_chunks(5, None, 2.0) is None

    def test_update_prefers_chunk_eta_when_pooled(self):
        fake_time = [0.0]
        events = []
        reporter = ProgressReporter(
            events.append, min_interval=0.0, clock=lambda: fake_time[0]
        )
        fake_time[0] = 2.0
        # Pair budget says 0 left; the chunk ledger says half-way.
        reporter.update(
            5, 10,
            pairs_examined=100, pair_budget=100,
            chunks_done=5, chunks_total=10,
        )
        assert events[0].eta_seconds == pytest.approx(2.0)
        assert events[0].chunks_total == 10

    def test_describe_mentions_chunks_and_steals(self):
        event = ProgressEvent(
            phase="IN.pool", done=6, total=12,
            elapsed_seconds=1.0, chunks_done=6, chunks_total=12,
            chunks_stolen=2,
        )
        text = event.describe()
        assert "6/12 chunks" in text
        assert "2 stolen" in text

    def test_pooled_run_feeds_reporter(self):
        dataset = load_workload("zipf-heavy", scale=0.05)
        events = []
        engine = make_algorithm(
            "IN", 0.5, execution=ExecutionConfig(workers=2)
        )
        engine.progress_reporter = ProgressReporter(
            events.append, min_interval=0.0
        )
        engine.compute(dataset)
        assert events, "the pool never heartbeat"
        final = events[-1]
        assert final.chunks_total and final.chunks_done == final.chunks_total
        assert final.phase == "IN.pool"


# ---------------------------------------------------------------------------
# OpenMetrics exposition
# ---------------------------------------------------------------------------


class TestOpenMetrics:
    def test_counter_family_drops_total_suffix(self):
        registry = MetricsRegistry()
        registry.counter(
            "runs_total", "Total runs", labelnames=("algorithm",)
        ).inc(3, algorithm="NL")
        lines = registry.to_openmetrics().splitlines()
        assert "# TYPE runs counter" in lines
        assert "# HELP runs Total runs" in lines
        assert 'runs_total{algorithm="NL"} 3' in lines
        assert lines[-1] == "# EOF"

    def test_histogram_and_gauge_families(self):
        registry = MetricsRegistry()
        registry.gauge("depth", "Depth").set(2)
        hist = registry.histogram("lat_seconds", "Lat", buckets=(0.5,))
        hist.observe(0.25)
        text = registry.to_openmetrics()
        assert "# TYPE depth gauge" in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert text.endswith("# EOF\n") or text.endswith("# EOF")


# ---------------------------------------------------------------------------
# Disabled-observability overhead guard
# ---------------------------------------------------------------------------


class TestDisabledObsOverhead:
    #: Disabled telemetry hook calls one NL ``compute()`` on the smoke
    #: workload may make.  ``benchmarks/bench_obs_overhead.py`` prices
    #: them: this many no-op hook calls cost under 3% of that run.
    HOOK_CALL_BUDGET = 1000

    def test_noop_hooks_are_cheap_relative_to_nl_smoke(self, monkeypatch):
        """With everything disabled, count the telemetry hooks one NL
        ``compute()`` calls — run-log enabled checks and emits, span
        opens, trace-context snapshots, the accessors and enabled checks
        in front of them, and the profiler phase — and hold them to the
        budget.  A count, not a clock, so it cannot flake under load."""
        from repro.core.algorithms import base as algorithms_base

        dataset = load_workload("paper-default", scale=0.05)
        algorithm = make_algorithm("NL", 0.5)
        assert not obs_runlog.get_runlog().enabled
        assert not obs_tracing.get_tracer().enabled
        assert not obs_metrics.is_enabled()
        calls = collections.Counter()

        class CountingRunLog(obs_runlog.NoopRunLog):
            @property
            def enabled(self):
                calls["runlog.enabled"] += 1
                return False

            def emit(self, event, **fields):
                calls["runlog.emit"] += 1

        class CountingTracer(obs_tracing.NoopTracer):
            @property
            def enabled(self):
                calls["tracer.enabled"] += 1
                return False

            def span(self, name, **attributes):
                calls["tracer.span"] += 1
                return super().span(name, **attributes)

            def current_span(self):
                calls["tracer.current_span"] += 1
                return super().current_span()

        def counted(module, name):
            hook = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return hook(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(obs_tracing, "get_tracer")
        counted(obs_tracing, "current_trace_context")
        counted(obs_runlog, "get_runlog")
        counted(obs_metrics, "is_enabled")
        counted(algorithms_base, "profile_phase")
        with use_runlog(CountingRunLog()), use_tracer(CountingTracer()):
            result = algorithm.compute(dataset)

        assert result.stats.group_comparisons > 0
        # the counting sees the hooks compute() is known to call
        assert calls["tracer.span"] >= 2 and calls["runlog.emit"] >= 1
        assert sum(calls.values()) <= self.HOOK_CALL_BUDGET, dict(calls)
