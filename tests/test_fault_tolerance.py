"""Fault-injection matrix for the pool's crash/respawn/fallback machinery.

The contract under test (``docs/parallel.md``, fault-tolerance section),
for one-shot pooled runs on a pool opened per query:

* a worker killed mid-run is *detected* by the liveness survey within
  seconds — wall-clock far below ``pool_timeout`` — and surfaces as
  :class:`~repro.parallel.WorkerCrashError` carrying the dead pids,
  signals and the undelivered chunk spans;
* ``on_failure="retry"`` respawns only the dead slot and re-runs exactly
  the chunks it held (and re-queues a chunk that raised), and because
  chunks are independent deterministic spans the recovered run is
  **bit-identical** to an unfaulted one — same chunk outcomes, same
  skyline, same ``AlgorithmStats`` counters;
* ``on_failure="serial"`` finishes the lost chunks inline on the calling
  thread once every slot has spent its respawn budget, still producing
  the exact skyline;
* a *hung* worker is not a crash: the liveness survey sees a live
  process, so the run ends via ``pool_timeout``, and the pool's
  processes are gone afterwards.

Every scenario runs under both ``fork`` and ``spawn`` (parametrized via
``REPRO_START_METHOD``), because the two start methods exercise different
shipping paths (inherited pages vs shared memory + pickled payload).
CI layers pytest-timeout on top; the autouse SIGALRM fixture below is the
local fallback so a regression hangs a test run for at most 120 seconds.
"""

from __future__ import annotations

import multiprocessing
import signal
import time

import pytest

from repro import partitioned_aggregate_skyline
from repro.core.algorithms import make_algorithm
from repro.core.execution import ExecutionConfig
from repro.data.synthetic import SyntheticSpec, generate_grouped
from repro.obs import runlog as obs_runlog
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel import (
    FAULTS_ENV_VAR,
    FaultSpec,
    InjectedFaultError,
    PoolTimeoutError,
    WorkerCrashError,
    WorkerConfig,
    chunk_ranges,
    pair_count,
    run_spans,
)
from repro.parallel.executor import START_METHOD_ENV_VAR
from repro.parallel.scheduler import guided_spans
from tests.conftest import exact_aggregate_skyline

pytestmark = pytest.mark.timeout(120)

START_METHODS = ("fork", "spawn")


@pytest.fixture(autouse=True)
def _deadlock_guard():
    """Per-test wall-clock ceiling: a wedged pool fails, it doesn't hang.

    CI adds pytest-timeout on top; this fixture is the local fallback for
    environments where that plugin is not installed (POSIX only).
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):  # pragma: no cover - only on deadlock
        raise RuntimeError("fault-tolerance test exceeded the 120s guard")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=START_METHODS)
def start_method(request, monkeypatch):
    if request.param == "fork" and not hasattr(signal, "SIGALRM"):
        pytest.skip("fork start method requires POSIX")
    monkeypatch.setenv(START_METHOD_ENV_VAR, request.param)
    return request.param


def workload(n_records: int = 200, seed: int = 7):
    return generate_grouped(
        SyntheticSpec(
            n_records=n_records,
            avg_group_size=10,
            dimensions=3,
            distribution="independent",
            seed=seed,
        )
    )


def outcome_key(outcome):
    """Everything a chunk outcome contributes to results and stats."""
    return (
        outcome.start,
        outcome.stop,
        tuple(outcome.dominated),
        tuple(outcome.strong),
        outcome.comparisons,
        outcome.pairs_examined,
        outcome.bbox_shortcuts,
        outcome.stopping_rule_exits,
        outcome.index_candidates,
    )


def run_pairs(groups, spans, workers, **kwargs):
    return run_spans(groups, WorkerConfig(gamma=0.5), spans, workers, **kwargs)


# ----------------------------------------------------------------------
# FaultSpec parsing and validation
# ----------------------------------------------------------------------


class TestFaultSpec:
    def test_from_spec_kind_only(self):
        spec = FaultSpec.from_spec("crash")
        assert spec.kind == "crash"
        assert spec.at_chunk is None and spec.probability is None
        assert spec.max_fires == 1

    def test_from_spec_at_chunk(self):
        spec = FaultSpec.from_spec("crash@3")
        assert spec.at_chunk == 3

    def test_from_spec_options(self):
        spec = FaultSpec.from_spec("exception:p=0.5,fires=4,seed=9")
        assert spec.kind == "exception"
        assert spec.probability == 0.5
        assert spec.max_fires == 4
        assert spec.seed == 9

    def test_from_spec_delay(self):
        spec = FaultSpec.from_spec("slow@0:delay=0.25")
        assert spec.kind == "slow" and spec.delay == 0.25

    @pytest.mark.parametrize(
        "bad",
        ["", "explode", "crash@x", "crash:p=2.0", "crash:fires=0", "crash:wat=1"],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.from_spec(bad)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash@2")
        spec = FaultSpec.from_env()
        assert spec is not None and spec.kind == "crash" and spec.at_chunk == 2
        monkeypatch.delenv(FAULTS_ENV_VAR)
        assert FaultSpec.from_env() is None

    def test_triggerless_spec_arms_every_chunk(self):
        # Neither at_chunk nor probability: the fault fires on the first
        # chunk any worker runs (budget-limited by max_fires).
        spec = FaultSpec("crash")
        assert spec.at_chunk is None and spec.probability is None
        assert spec.max_fires == 1


# ----------------------------------------------------------------------
# Crash detection: fast, informative, far below pool_timeout
# ----------------------------------------------------------------------


class TestCrashDetection:
    def test_sigkill_detected_fast_stealing(self, start_method):
        """The acceptance scenario: workers=4, guided spans,
        pool_timeout=300 — an injected SIGKILL must surface as
        WorkerCrashError in well under 10 seconds, naming the pid, the
        signal and the lost spans, not hang toward the 300s timeout.
        """
        dataset = workload()
        total = pair_count(len(dataset.groups))
        spans = guided_spans(total, 4, min_chunk=max(1, total // 64))
        started = time.monotonic()
        with pytest.raises(WorkerCrashError) as excinfo:
            run_pairs(
                dataset.groups,
                spans,
                4,
                pool_timeout=300.0,
                faults=FaultSpec("crash", at_chunk=0),
            )
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"crash detection took {elapsed:.1f}s"
        error = excinfo.value
        assert error.pids and all(pid > 0 for pid in error.pids)
        assert "SIGKILL" in str(error)
        assert str(error.pids[0]) in str(error)
        assert error.lost_spans  # the crashed chunk was never delivered
        assert set(error.lost_spans) <= set(spans)

    def test_sigkill_detected_fast_static(self, start_method):
        dataset = workload()
        total = pair_count(len(dataset.groups))
        started = time.monotonic()
        with pytest.raises(WorkerCrashError):
            run_pairs(
                dataset.groups,
                chunk_ranges(total, 8),
                2,
                pool_timeout=300.0,
                faults=FaultSpec("crash", at_chunk=0),
            )
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []

    def test_crash_error_carries_signal_names(self):
        dataset = workload(n_records=120)
        total = pair_count(len(dataset.groups))
        with pytest.raises(WorkerCrashError) as excinfo:
            run_pairs(
                dataset.groups,
                chunk_ranges(total, 4),
                2,
                faults=FaultSpec("crash", at_chunk=0),
            )
        assert "SIGKILL" in excinfo.value.signals

    def test_worker_exception_raises_original_type(self, start_method):
        """on_failure='raise' re-raises the worker's own exception."""
        dataset = workload(n_records=120)
        total = pair_count(len(dataset.groups))
        with pytest.raises(InjectedFaultError):
            run_pairs(
                dataset.groups,
                chunk_ranges(total, 4),
                2,
                faults=FaultSpec("exception", at_chunk=0),
            )
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Retry: recovered runs are bit-identical to unfaulted ones
# ----------------------------------------------------------------------


class TestRetry:
    @pytest.mark.parametrize("scheduler", ["static", "stealing"])
    def test_retry_bit_identical(self, start_method, scheduler):
        dataset = workload()
        total = pair_count(len(dataset.groups))
        if scheduler == "stealing":
            spans = guided_spans(total, 2, min_chunk=max(1, total // 32))
        else:
            spans = chunk_ranges(total, 8)
        clean = run_pairs(dataset.groups, spans, 2)
        recovered = run_pairs(
            dataset.groups,
            spans,
            2,
            faults=FaultSpec("crash", at_chunk=0),
            on_failure="retry",
            max_retries=2,
        )
        assert [outcome_key(o) for o in clean.outcomes] == [
            outcome_key(o) for o in recovered.outcomes
        ]

    def test_retry_after_worker_exception(self, start_method):
        dataset = workload(n_records=120)
        total = pair_count(len(dataset.groups))
        spans = chunk_ranges(total, 6)
        clean = run_pairs(dataset.groups, spans, 2)
        recovered = run_pairs(
            dataset.groups,
            spans,
            2,
            faults=FaultSpec("exception", at_chunk=0),
            on_failure="retry",
            max_retries=2,
        )
        assert [outcome_key(o) for o in clean.outcomes] == [
            outcome_key(o) for o in recovered.outcomes
        ]

    def test_retries_exhausted_raises_crash_error(self):
        """A fault that keeps firing defeats every respawn; policy 'retry'
        then surfaces a WorkerCrashError once every slot is retired."""
        dataset = workload(n_records=120)
        total = pair_count(len(dataset.groups))
        with pytest.raises(WorkerCrashError):
            run_pairs(
                dataset.groups,
                chunk_ranges(total, 4),
                2,
                faults=FaultSpec("crash", probability=1.0, max_fires=10**6),
                on_failure="retry",
                max_retries=1,
            )


# ----------------------------------------------------------------------
# Serial fallback: exhausted respawns still produce the exact result
# ----------------------------------------------------------------------


class TestSerialFallback:
    def test_fallback_bit_identical(self, start_method):
        """Every worker dies on every chunk (p=1 crash, unlimited fires);
        once every slot has spent its respawn budget the calling thread
        finishes the lost chunks inline, and the run is still
        bit-identical to an unfaulted one."""
        dataset = workload()
        total = pair_count(len(dataset.groups))
        spans = chunk_ranges(total, 8)
        clean = run_pairs(dataset.groups, spans, 2)
        recovered = run_pairs(
            dataset.groups,
            spans,
            2,
            faults=FaultSpec("crash", probability=1.0, max_fires=10**6),
            on_failure="serial",
            max_retries=1,
        )
        assert [outcome_key(o) for o in clean.outcomes] == [
            outcome_key(o) for o in recovered.outcomes
        ]

    def test_single_crash_recovers_via_retry_before_fallback(self):
        """on_failure='serial' respawns first; a one-shot crash never
        reaches the fallback path (no pool_inline_fallbacks_total tick)."""
        dataset = workload(n_records=120)
        total = pair_count(len(dataset.groups))
        registry = MetricsRegistry()
        with use_registry(registry):
            run_pairs(
                dataset.groups,
                chunk_ranges(total, 6),
                2,
                faults=FaultSpec("crash", at_chunk=0),
                on_failure="serial",
                max_retries=3,
            )
        assert registry.get("pool_inline_fallbacks_total") is None
        assert registry.get("pool_slot_crashes_total") is not None
        assert registry.get("pool_slot_respawns_total") is not None


# ----------------------------------------------------------------------
# Hang: still a timeout, not a crash
# ----------------------------------------------------------------------


class TestHang:
    def test_hang_caught_by_pool_timeout(self, start_method):
        dataset = workload(n_records=120)
        total = pair_count(len(dataset.groups))
        started = time.monotonic()
        with pytest.raises(PoolTimeoutError):
            run_pairs(
                dataset.groups,
                chunk_ranges(total, 4),
                2,
                pool_timeout=2.0,
                faults=FaultSpec("hang", at_chunk=0),
            )
        # Bounded by the timeout plus teardown, not by HANG_SECONDS, and
        # the hung worker is terminated, not left behind.
        assert time.monotonic() - started < 30.0
        assert multiprocessing.active_children() == []

    def test_hang_not_retried(self):
        """Timeouts are not retry-worthy: the pool is wedged, not dead."""
        dataset = workload(n_records=120)
        total = pair_count(len(dataset.groups))
        with pytest.raises(PoolTimeoutError):
            run_pairs(
                dataset.groups,
                chunk_ranges(total, 4),
                2,
                pool_timeout=2.0,
                faults=FaultSpec("hang", at_chunk=0),
                on_failure="retry",
                max_retries=3,
            )


# ----------------------------------------------------------------------
# Algorithm level: PAR, pooled IN and the partitioned baseline
# ----------------------------------------------------------------------


class TestAlgorithmRecovery:
    @pytest.mark.parametrize("name", ["PAR", "IN"])
    def test_env_injected_crash_recovers_bit_identical(
        self, start_method, name, monkeypatch
    ):
        """REPRO_FAULTS=crash@0 + on_failure='retry': the pooled run must
        match serial NL (skyline) and the unfaulted pooled run (stats)."""
        dataset = workload()
        serial = make_algorithm("NL", gamma=0.5)
        serial_result = serial.compute(dataset)

        execution = ExecutionConfig(workers=2, max_retries=2, on_failure="retry")
        clean = make_algorithm(name, gamma=0.5, execution=execution)
        clean_result = clean.compute(dataset)

        monkeypatch.setenv(FAULTS_ENV_VAR, "crash@0")
        faulted = make_algorithm(name, gamma=0.5, execution=execution)
        faulted_result = faulted.compute(dataset)

        expected = exact_aggregate_skyline(dataset, 0.5)
        assert faulted_result.as_set() == expected
        assert faulted_result.as_set() == serial_result.as_set()
        assert (
            faulted_result.stats.group_comparisons
            == clean_result.stats.group_comparisons
        )
        assert (
            faulted_result.stats.record_pairs_examined
            == clean_result.stats.record_pairs_examined
        )

    def test_env_injected_crash_serial_fallback(self, monkeypatch):
        """Exhausted respawns + on_failure='serial' still yields the exact
        Definition-2 skyline."""
        dataset = workload(n_records=120)
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash:p=1.0,fires=1000000")
        algorithm = make_algorithm(
            "PAR",
            gamma=0.5,
            execution=ExecutionConfig(
                workers=2, max_retries=1, on_failure="serial"
            ),
        )
        result = algorithm.compute(dataset)
        assert result.as_set() == exact_aggregate_skyline(dataset, 0.5)

    def test_env_injected_crash_default_raises(self, monkeypatch):
        dataset = workload(n_records=120)
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash@0")
        algorithm = make_algorithm(
            "PAR", gamma=0.5, execution=ExecutionConfig(workers=2)
        )
        with pytest.raises(WorkerCrashError):
            algorithm.compute(dataset)

    def test_partitioned_crash_fails_fast(self, start_method, monkeypatch):
        """The partitioned baseline's local phase runs on the same pool:
        an injected crash raises WorkerCrashError well before
        pool_timeout, and leaves no worker behind."""
        dataset = workload()
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash@0")
        started = time.monotonic()
        with pytest.raises(WorkerCrashError):
            partitioned_aggregate_skyline(
                dataset, 0.5, execution="workers=2,pool_timeout=300"
            )
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Observability: one event vocabulary, one emitter per event and counter
# ----------------------------------------------------------------------


class TestObservability:
    def _run_with_obs(self, tmp_path, **kwargs):
        dataset = workload(n_records=120)
        total = pair_count(len(dataset.groups))
        log_path = tmp_path / "run.jsonl"
        registry = MetricsRegistry()
        tracer = obs_tracing.Tracer()
        with use_registry(registry):
            with obs_tracing.use_tracer(tracer):
                with obs_runlog.use_runlog(obs_runlog.RunLog(log_path)):
                    with tracer.span("test.root"):
                        error = None
                        try:
                            run_pairs(
                                dataset.groups,
                                chunk_ranges(total, 6),
                                2,
                                **kwargs,
                            )
                        except Exception as exc:
                            error = exc
        return obs_runlog.read_events(log_path), registry, error

    @staticmethod
    def _one_pool(names):
        """The query's pool started once and closed once."""
        assert names.count("pool_start") == names.count("pool_end") == 1
        assert names[0] == "pool_start" and names[-1] == "pool_end"

    def test_retry_events_and_counters(self, tmp_path):
        events, registry, error = self._run_with_obs(
            tmp_path,
            faults=FaultSpec("crash", at_chunk=0),
            on_failure="retry",
            max_retries=2,
        )
        assert error is None
        names = [event["event"] for event in events]
        self._one_pool(names)
        assert names.count("slot_respawn") == 1
        assert "pool_error" not in names  # the query recovered
        # events correlate to the query's trace, the fault events the
        # pool's router thread emits included
        trace_ids = {e["trace_id"] for e in events if "trace_id" in e}
        assert len(trace_ids) == 1
        faults = [
            e for e in events
            if e["event"] in ("slot_respawn", "chunk_retry", "pool_fallback")
        ]
        assert faults
        assert all(e.get("trace_id") in trace_ids for e in faults)
        respawn = next(e for e in events if e["event"] == "slot_respawn")
        assert respawn["respawned"] is True
        assert respawn["signal"] == "SIGKILL"
        assert respawn["old_pid"] != respawn["new_pid"]
        assert respawn["reclaimed"] >= 1
        assert registry.get("pool_slot_crashes_total").value() == 1
        assert registry.get("pool_slot_respawns_total").value() == 1

    def test_worker_exception_emits_pool_error(self, tmp_path):
        events, _, error = self._run_with_obs(
            tmp_path, faults=FaultSpec("exception", at_chunk=0)
        )
        assert isinstance(error, InjectedFaultError)
        names = [event["event"] for event in events]
        self._one_pool(names)
        assert names.count("pool_error") == 1
        pool_error = next(e for e in events if e["event"] == "pool_error")
        assert pool_error["error"] == "InjectedFaultError"
        assert pool_error["chunks"] >= 1

    def test_fallback_event_and_counter(self, tmp_path):
        events, registry, error = self._run_with_obs(
            tmp_path,
            faults=FaultSpec("crash", probability=1.0, max_fires=10**6),
            on_failure="serial",
            max_retries=1,
        )
        assert error is None
        names = [event["event"] for event in events]
        self._one_pool(names)
        assert "pool_fallback" in names
        fallback = next(e for e in events if e["event"] == "pool_fallback")
        assert fallback["chunks"] >= 1
        retired = [
            e for e in events
            if e["event"] == "slot_respawn" and not e["respawned"]
        ]
        assert len(retired) == 2  # both slots spent their one respawn
        assert registry.get("pool_inline_fallbacks_total") is not None
        assert registry.get("pool_slots_retired_total").value() == 2

    def test_clean_run_emits_no_fault_events(self, tmp_path):
        events, registry, error = self._run_with_obs(tmp_path)
        assert error is None
        names = [event["event"] for event in events]
        self._one_pool(names)
        for fault in (
            "pool_error", "pool_timeout", "chunk_retry", "slot_respawn",
            "pool_fallback",
        ):
            assert fault not in names
        assert registry.get("pool_slot_crashes_total") is None
