"""Tests for the parallel subsystem (repro.parallel + the PAR algorithm).

The determinism contract under test: ``PAR`` (a two-phase scheme) must be
bit-identical to serial ``NL`` — same skyline, same group-comparison count,
same record-pair count — for any worker count, under either pruning policy
and either scheduler.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import make_algorithm
from repro.core.algorithms.parallel import ParallelSkylineAlgorithm
from repro.core.comparator import RecordColumns
from repro.core.execution import ExecutionConfig
from repro.core.groups import GroupedDataset
from repro.data.synthetic import SyntheticSpec, generate_grouped
from repro.harness.persistence import results_from_json, results_to_json
from repro.harness.runner import RunResult, run_algorithms
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.runlog import RunLog, read_events, use_runlog
from repro.parallel import (
    PoolTimeoutError,
    WorkerConfig,
    chunk_ranges,
    index_of_pair,
    pair_count,
    pair_from_index,
    resolve_workers,
    run_spans,
    sample_pair_indices,
)
from repro.parallel.executor import WORKERS_ENV_VAR
from tests.conftest import exact_aggregate_skyline, random_grouped_dataset
from tests.test_pair_loops import PerPairNL, iter_pairs

DISTRIBUTIONS = ("independent", "correlated", "anticorrelated")
POLICIES = ("paper", "safe")


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
        raise RuntimeError("parallel test exceeded the 120s deadlock guard")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def workload(distribution: str, n_records: int = 300, seed: int = 5):
    return generate_grouped(
        SyntheticSpec(
            n_records=n_records,
            avg_group_size=15,
            dimensions=3,
            distribution=distribution,
            group_spread=0.4,
            seed=seed,
        )
    )


@pytest.fixture(scope="module")
def datasets():
    return {d: workload(d) for d in DISTRIBUTIONS}


# ---------------------------------------------------------------------------
# Partitioning math
# ---------------------------------------------------------------------------


class TestPartition:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 33])
    def test_pair_count_matches_enumeration(self, n):
        expected = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert pair_count(n) == len(expected)
        assert list(iter_pairs(0, pair_count(n), n)) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 50])
    def test_index_round_trip_exhaustive(self, n):
        for k in range(pair_count(n)):
            i, j = pair_from_index(k, n)
            assert 0 <= i < j < n
            assert index_of_pair(i, j, n) == k

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=100_000), st.data())
    def test_index_round_trip_property(self, n, data):
        k = data.draw(
            st.integers(min_value=0, max_value=pair_count(n) - 1)
        )
        assert index_of_pair(*pair_from_index(k, n), n) == k

    def test_iter_pairs_is_a_slice_of_the_triangle(self):
        n = 9
        full = list(iter_pairs(0, pair_count(n), n))
        for start, stop in [(0, 5), (7, 20), (11, 11), (30, pair_count(n))]:
            assert list(iter_pairs(start, stop, n)) == full[start:stop]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            index_of_pair(3, 3, 5)
        with pytest.raises(ValueError):
            pair_from_index(pair_count(6), 6)
        with pytest.raises(ValueError):
            pair_count(-1)

    @pytest.mark.parametrize(
        "total,chunks", [(10, 3), (10, 10), (10, 25), (1, 4), (97, 8)]
    )
    def test_chunk_ranges_cover_exactly(self, total, chunks):
        ranges = chunk_ranges(total, chunks)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == total
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert len(ranges) == min(total, chunks)

    def test_chunk_ranges_edge_cases(self):
        assert chunk_ranges(0, 4) == []
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)

    def test_sample_pair_indices_without_replacement(self):
        rng = np.random.default_rng(0)
        indices = sample_pair_indices(40, 200, rng)
        assert len(indices) == len(set(indices)) == 200
        assert all(0 <= k < pair_count(40) for k in indices)

    def test_sample_pair_indices_exhausts_small_spaces(self):
        # Budget >= pair space: every pair exactly once, any seed.
        for seed in (0, 1, 99):
            rng = np.random.default_rng(seed)
            indices = sample_pair_indices(6, 1000, rng)
            assert sorted(indices) == list(range(pair_count(6)))

    def test_sample_pair_indices_empty(self):
        rng = np.random.default_rng(0)
        assert list(sample_pair_indices(1, 10, rng)) == []
        assert list(sample_pair_indices(10, 0, rng)) == []


# ---------------------------------------------------------------------------
# Worker resolution
# ---------------------------------------------------------------------------


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        assert resolve_workers(None) == 2

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) >= 1

    def test_default_counts_the_cpus_this_process_may_run_on(
        self, monkeypatch
    ):
        # Pinned to one CPU of a 64-CPU host (taskset, a cpuset): a
        # default pool must not oversubscribe.
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {3}, raising=False
        )
        assert resolve_workers(None) == 1
        assert ExecutionConfig().resolve_workers() == 1
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(16)), raising=False
        )
        assert resolve_workers(None) == 4

    def test_default_without_affinity_counts_host_cpus(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_workers(None) == 2

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)


# ---------------------------------------------------------------------------
# PAR == NL equivalence (the acceptance criterion)
# ---------------------------------------------------------------------------


class TestParallelEquivalence:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("prune_policy", POLICIES)
    def test_two_phase_identical_to_nested_loop(
        self, distribution, prune_policy, datasets
    ):
        dataset = datasets[distribution]
        reference = make_algorithm(
            "NL", 0.5, prune_policy=prune_policy
        ).compute(dataset)
        for workers in (1, 2, 4):
            result = make_algorithm(
                "PAR",
                0.5,
                prune_policy=prune_policy,
                execution=ExecutionConfig(workers=workers),
            ).compute(dataset)
            context = f"{distribution}/{prune_policy}/workers={workers}"
            assert result.as_set() == reference.as_set(), context
            assert (
                result.stats.group_comparisons
                == reference.stats.group_comparisons
            ), context
            assert (
                result.stats.record_pairs_examined
                == reference.stats.record_pairs_examined
            ), context
            assert (
                result.stats.stopping_rule_exits
                == reference.stats.stopping_rule_exits
            ), context

    @pytest.mark.parametrize("scheduler", ["static", "stealing"])
    @pytest.mark.parametrize("prune_policy", POLICIES)
    def test_every_counter_equals_nested_loop(
        self, scheduler, prune_policy, datasets
    ):
        # One way to run PAR: keys and every counter are serial NL's for
        # any worker count, policy and scheduler.
        dataset = datasets["anticorrelated"]
        reference = make_algorithm("NL", 0.5, prune_policy=prune_policy).compute(
            dataset
        )
        for workers in (1, 2):
            result = make_algorithm(
                "PAR",
                0.5,
                prune_policy=prune_policy,
                execution=ExecutionConfig(workers=workers, scheduler=scheduler),
            ).compute(dataset)
            assert result.keys == reference.keys, workers
            assert _counters(result) == _counters(reference), workers

    @pytest.mark.parametrize(
        "dims, block_size, prune_policy, workers",
        [
            (3, 64, "paper", 1),
            (4, 64, "safe", 2),
            (5, 64, "paper", 2),
            (3, 1024, "safe", 1),
            (4, 1024, "paper", 1),
            (5, 1024, "safe", 2),
            (3, 1024, "paper", 2),
            (5, 64, "safe", 1),
        ],
    )
    def test_multi_block_groups_identical_to_nested_loop(
        self, dims, block_size, prune_policy, workers
    ):
        # 40-120-record groups: most compare directions span several
        # blocks, so the stopping rule stops inside a pair, and the pool
        # path's batch kernel has to reproduce where (``datasets`` draws
        # ~15-record groups, whose pairs fit one 1,024-pair block).
        rng = np.random.default_rng(dims * block_size)
        dataset = GroupedDataset(
            {
                f"g{k}": rng.uniform(0.0, 0.6, size=(int(rng.integers(40, 121)), dims))
                + rng.uniform(0.0, 0.4, size=dims)
                for k in range(10)
            }
        )
        options = dict(prune_policy=prune_policy, block_size=block_size)
        reference = PerPairNL(0.5, **options).compute(dataset)
        serial = make_algorithm("NL", 0.5, **options).compute(dataset)
        result = make_algorithm(
            "PAR", 0.5, execution=ExecutionConfig(workers=workers), **options
        ).compute(dataset)
        assert reference.stats.stopping_rule_exits > 0
        for run in (serial, result):
            assert run.keys == reference.keys
            for field in dataclasses.fields(run.stats):
                if field.name not in ("algorithm", "elapsed_seconds"):
                    assert getattr(run.stats, field.name) == getattr(
                        reference.stats, field.name
                    ), (run.stats.algorithm, field.name)

    def test_repeated_compute_is_stable(self, datasets):
        algorithm = make_algorithm("PAR", 0.5, execution="workers=2")
        first = algorithm.compute(datasets["independent"])
        second = algorithm.compute(datasets["independent"])
        assert first.as_set() == second.as_set()
        assert (
            first.stats.record_pairs_examined
            == second.stats.record_pairs_examined
        )

    def test_worker_stats_sum_to_parent_totals(self, datasets):
        algorithm = ParallelSkylineAlgorithm(
            0.5, execution=ExecutionConfig(workers=2)
        )
        result = algorithm.compute(datasets["anticorrelated"])
        assert algorithm.worker_stats  # pooled run keeps the breakdown
        assert (
            sum(s.group_comparisons for s in algorithm.worker_stats)
            == result.stats.group_comparisons
        )
        assert (
            sum(s.record_pairs_examined for s in algorithm.worker_stats)
            == result.stats.record_pairs_examined
        )

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=1_000_000),
    )
    def test_inline_kernel_matches_oracle_in_safe_mode(
        self, n_groups, max_size, seed
    ):
        # workers=1 runs the chunk kernel in-process: cheap enough for a
        # property test against the Definition-2 brute-force oracle.
        rng = np.random.default_rng(seed)
        dataset = random_grouped_dataset(
            rng, n_groups=n_groups, max_group_size=max_size
        )
        expected = exact_aggregate_skyline(dataset, 0.5)
        result = make_algorithm(
            "PAR", 0.5, prune_policy="safe", execution="workers=1"
        ).compute(dataset)
        assert result.as_set() == expected


# ---------------------------------------------------------------------------
# Pool mechanics / failure modes
# ---------------------------------------------------------------------------


class TestExecutor:
    def test_empty_spans(self, datasets):
        config = WorkerConfig(gamma=0.5)
        assert run_spans(
            datasets["independent"].groups, config, [], workers=2
        ).outcomes == []

    def test_invalid_worker_count(self, datasets):
        config = WorkerConfig(gamma=0.5)
        with pytest.raises(ValueError):
            run_spans(
                datasets["independent"].groups, config, [(0, 1)], workers=0
            )

    def test_wedged_pool_fails_fast(self):
        # A timeout far below pool start-up cost must surface as
        # PoolTimeoutError (not a hang) and terminate the pool.
        dataset = workload("anticorrelated", n_records=1500)
        groups = dataset.groups
        spans = chunk_ranges(pair_count(len(groups)), 8)
        with pytest.raises(PoolTimeoutError):
            run_spans(
                groups,
                WorkerConfig(gamma=0.5),
                spans,
                workers=2,
                pool_timeout=1e-4,
            )

    def test_constructor_validation(self):
        # PAR takes no chunk-count option: static chunks per worker are fixed.
        with pytest.raises(TypeError):
            ParallelSkylineAlgorithm(0.5, chunks_per_worker=4)
        # The pruning exchange is gone: its interval is an unknown option.
        with pytest.raises(ValueError, match="unknown execution option 'exchange_interval'"):
            ParallelSkylineAlgorithm(0.5, execution={"exchange_interval": 4})
        with pytest.raises(ValueError):
            ParallelSkylineAlgorithm(0.5, execution={"pool_timeout": 0.0})

    def test_registered(self):
        assert isinstance(
            make_algorithm("PAR", execution="workers=1"),
            ParallelSkylineAlgorithm,
        )


# ---------------------------------------------------------------------------
# One chunk path: workers=1 runs run_spans on the calling thread
# ---------------------------------------------------------------------------

#: (algorithm, execution options) of every chunked run shape.
CHUNKED_RUNS = (
    ("PAR", {}),
    ("PAR", {"scheduler": "stealing"}),
    ("IN", {}),
    ("LO", {}),
)


def _shm_segments() -> set:
    root = Path("/dev/shm")
    return {path.name for path in root.glob("psm_*")} if root.is_dir() else set()


class _ChunkObserver:
    """A progress reporter noting, at every delivered chunk, the live child
    processes and shared-memory segments."""

    def __init__(self):
        self.children = []
        self.segments = []

    def update(self, **fields):
        self.children.append(multiprocessing.active_children())
        self.segments.append(_shm_segments())


def _counters(result):
    stats = dataclasses.asdict(result.stats)
    del stats["elapsed_seconds"], stats["algorithm"]
    return stats


class TestOneChunkPath:
    @pytest.mark.parametrize("name, options", CHUNKED_RUNS)
    def test_workers_1_starts_nothing(self, name, options, datasets, tmp_path):
        dataset = datasets["anticorrelated"]
        execution = dict(options, shm=True)  # a pool would ship through shm
        before = _shm_segments()
        algorithm = make_algorithm(
            name,
            0.5,
            prune_policy="safe",
            execution=ExecutionConfig(workers=1, **execution),
        )
        observer = _ChunkObserver()
        algorithm.progress_reporter = observer
        log_path = tmp_path / "run.jsonl"
        with RunLog(log_path) as log, use_runlog(log):
            result = algorithm.compute(dataset)

        run = algorithm.last_pool_run
        assert observer.children and len(observer.children) == len(run.outcomes)
        assert all(children == [] for children in observer.children)
        assert all(segments <= before for segments in observer.segments)
        events = [event["event"] for event in read_events(log_path)]
        assert "run_end" in events
        assert not [event for event in events if event.startswith("pool_")]

        total = pair_count(len(dataset)) if name == "PAR" else len(dataset)
        position = 0
        for outcome in run.outcomes:
            assert outcome.start == position < outcome.stop
            assert outcome.slot == -1 and outcome.worker_pid == os.getpid()
            position = outcome.stop
        assert position == total
        assert len(algorithm.worker_stats) == len(run.outcomes)

        pooled = make_algorithm(
            name,
            0.5,
            prune_policy="safe",
            execution=ExecutionConfig(workers=2, **options),
        ).compute(dataset)
        assert result.keys == pooled.keys
        assert _counters(result) == _counters(pooled)

    @pytest.mark.parametrize("name", ["PAR", "IN"])
    def test_pooled_runs_build_no_columns_in_the_parent(self, name, monkeypatch):
        parent = os.getpid()
        build = RecordColumns._of_matrix.__func__

        def guarded(cls, *args):
            assert os.getpid() != parent, "the parent built record columns"
            return build(cls, *args)

        monkeypatch.setattr(RecordColumns, "_of_matrix", classmethod(guarded))
        dataset = workload("anticorrelated", seed=11)  # no cache holds it yet
        result = make_algorithm(
            name, 0.5, execution=ExecutionConfig(workers=2)
        ).compute(dataset)
        assert len(result) > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name, options", CHUNKED_RUNS)
    def test_outcomes_list_each_marked_group_once_ascending(
        self, name, options, workers, datasets
    ):
        algorithm = make_algorithm(
            name, 0.5, execution=ExecutionConfig(workers=workers, **options)
        )
        result = algorithm.compute(datasets["anticorrelated"])
        marked = set()
        for outcome in algorithm.last_pool_run.outcomes:
            assert outcome.dominated == sorted(set(outcome.dominated))
            assert outcome.strong == sorted(set(outcome.strong))
            assert set(outcome.strong) <= set(outcome.dominated)
            marked.update(outcome.dominated)
        keys = [group.key for group in datasets["anticorrelated"]]
        assert marked and sorted(result.keys, key=keys.index) == [
            key for position, key in enumerate(keys) if position not in marked
        ]


# ---------------------------------------------------------------------------
# Observability reconciliation across process boundaries
# ---------------------------------------------------------------------------


class TestParallelObservability:
    def test_registry_reconciles_with_pooled_stats(self, datasets):
        registry = MetricsRegistry()
        with use_registry(registry):
            result = make_algorithm("PAR", 0.5, execution="workers=2").compute(
                datasets["independent"]
            )

        def counter_value(metric: str) -> float:
            return registry.counter(
                metric, "", labelnames=("algorithm",)
            ).value(algorithm="PAR")

        stats = result.stats
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
            counter_value("skyline_stopping_rule_exits_total")
            == stats.stopping_rule_exits
        )


# ---------------------------------------------------------------------------
# Harness plumbing (worker counts end to end)
# ---------------------------------------------------------------------------


class TestHarnessWorkers:
    def test_runner_forwards_workers_to_parallel_algorithms(self, datasets):
        results = run_algorithms(
            datasets["independent"],
            algorithms=("NL", "PAR"),
            execution=ExecutionConfig(workers=1),
            experiment="t",
        )
        by_algorithm = {r.algorithm: r for r in results}
        assert by_algorithm["NL"].workers is None
        assert by_algorithm["PAR"].workers == 1
        assert (
            by_algorithm["PAR"].skyline_keys
            == by_algorithm["NL"].skyline_keys
        )
        assert (
            by_algorithm["PAR"].record_pairs
            == by_algorithm["NL"].record_pairs
        )

    def _result(self, workers):
        return RunResult(
            experiment="e",
            params={"x": 1},
            algorithm="PAR" if workers else "NL",
            elapsed_seconds=0.25,
            group_comparisons=3,
            record_pairs=5,
            skyline_size=1,
            skyline_keys=frozenset({"g0"}),
            workers=workers,
        )

    def test_workers_round_trip_through_persistence(self):
        loaded = results_from_json(results_to_json([self._result(2)]))
        assert loaded[0].workers == 2

    def test_serial_results_omit_the_workers_key(self):
        text = results_to_json([self._result(None)])
        assert '"workers"' not in text
        assert results_from_json(text)[0].workers is None
