"""The persistent engine's contract (see ``docs/engine.md``).

* **Warm parity matrix** — the 2nd and 3rd queries on a reused pool are
  bit-identical — skyline *and* every ``AlgorithmStats`` counter — to a
  fresh ``aggregate_skyline()`` call, for NL/IN/LO/PAR, worker counts 2
  and 4, fork and spawn, with stable worker pids across queries.
* **Surviving-pool reuse** — an injected single-worker crash respawns
  only the dead slot: the other workers keep their pids and pinned
  data, the recovering query and everything after it still match the
  cold path exactly.
* **Lifecycle** — deterministic close (idempotent, context manager,
  ``EngineClosedError`` afterwards), content-fingerprint attach dedup,
  resident ``dims`` projections, batching, the partitioned entry
  point's kwargs migration, and the public re-exports.

Shared-memory leak checks for engine-owned arenas live with the other
shm tests in ``tests/test_parallel_indexed.py``.
"""

from __future__ import annotations

import dataclasses
import signal
import sys
import threading
import time
import warnings

import pytest

from repro import (
    DatasetHandle,
    EngineClosedError,
    EngineStats,
    ExecutionConfig,
    SkylineEngine,
    aggregate_skyline,
    partitioned_aggregate_skyline,
)
from repro.data.synthetic import SyntheticSpec, generate_grouped
from repro.obs import runlog as obs_runlog
from repro.parallel import FaultSpec, WorkerCrashError

pytestmark = pytest.mark.timeout(300)

START_METHODS = ("fork", "spawn")
WORKER_COUNTS = (2, 4)
ALGORITHMS = ("NL", "IN", "LO", "PAR")
GAMMA = 0.5


@pytest.fixture(autouse=True)
def _deadlock_guard():
    """A wedged resident pool fails the test instead of hanging the run."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):  # pragma: no cover - only on deadlock
        raise RuntimeError("engine test exceeded the 240s deadlock guard")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(240)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _require_start_method(name: str) -> None:
    if name == "fork" and not hasattr(signal, "SIGALRM"):
        pytest.skip("fork start method requires POSIX")


@pytest.fixture(scope="module")
def dataset():
    return generate_grouped(
        SyntheticSpec(
            n_records=900,
            avg_group_size=6,
            dimensions=3,
            distribution="anticorrelated",
            group_spread=0.4,
            seed=19,
        )
    )


def stats_key(result):
    """Everything the determinism contract covers except wall clock."""
    payload = dataclasses.asdict(result.stats)
    payload.pop("elapsed_seconds")
    return payload


def _cold(dataset, algorithm, execution):
    if algorithm == "NL":
        # NL rejects execution= (serial-only); the engine runs it cold too.
        return aggregate_skyline(dataset, gamma=GAMMA, algorithm="NL")
    return aggregate_skyline(
        dataset, gamma=GAMMA, algorithm=algorithm, execution=execution
    )


@pytest.fixture(scope="module")
def cold_results(dataset):
    """Fresh one-shot baselines, one per (algorithm, worker count)."""
    baselines = {}
    for workers in WORKER_COUNTS:
        execution = ExecutionConfig(workers=workers, scheduler="stealing")
        for algorithm in ALGORITHMS:
            baselines[(algorithm, workers)] = _cold(
                dataset, algorithm, execution
            )
    return baselines


# ----------------------------------------------------------------------
# warm parity matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_warm_parity_matrix(dataset, cold_results, start_method, workers):
    _require_start_method(start_method)
    execution = ExecutionConfig(workers=workers, scheduler="stealing")
    with SkylineEngine(execution, start_method=start_method) as engine:
        handle = engine.attach(dataset)
        pids = list(engine.worker_pids)
        assert len(pids) == workers
        for round_number in (1, 2, 3):
            for algorithm in ALGORITHMS:
                result = engine.query(handle, gamma=GAMMA, algorithm=algorithm)
                cold = cold_results[(algorithm, workers)]
                assert result.keys == cold.keys, (
                    algorithm, workers, start_method, round_number,
                )
                assert stats_key(result) == stats_key(cold), (
                    algorithm, workers, start_method, round_number,
                )
        # The whole matrix ran on the same resident workers.
        assert engine.worker_pids == pids
        assert engine.pool.total_respawns == 0
        expected_warm = 3 * len([a for a in ALGORITHMS if a != "NL"])
        assert engine.stats.warm_queries == expected_warm
        assert engine.stats.cold_queries == 3  # the NL rounds


def test_warm_results_match_across_worker_counts(cold_results):
    """Sanity for the fixture itself: the deterministic two-phase /
    independent-candidate contracts make the baselines worker-agnostic."""
    for algorithm in ALGORITHMS:
        a = cold_results[(algorithm, 2)]
        b = cold_results[(algorithm, 4)]
        assert a.keys == b.keys
        assert stats_key(a) == stats_key(b)


# ----------------------------------------------------------------------
# surviving-pool reuse under injected crashes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("algorithm", ("PAR", "LO"))
def test_crash_respawns_only_dead_slot(
    dataset, cold_results, start_method, algorithm, tmp_path
):
    """The first worker to start a chunk dies holding two tasks — the one
    it runs and the one queued behind it — and exactly those two go back
    to the backlog, for pair chunks (PAR) and candidate chunks (LO)."""
    _require_start_method(start_method)
    execution = ExecutionConfig(
        workers=3, scheduler="stealing", on_failure="retry", max_retries=2
    )
    log_path = tmp_path / "run.jsonl"
    with obs_runlog.RunLog(log_path) as log, obs_runlog.use_runlog(log):
        with SkylineEngine(
            execution,
            start_method=start_method,
            faults=FaultSpec("crash", at_chunk=0),  # one SIGKILL, max_fires=1
        ) as engine:
            handle = engine.attach(dataset)
            pids_before = list(engine.worker_pids)
            result = engine.query(handle, gamma=GAMMA, algorithm=algorithm)
            cold = cold_results[(algorithm, 2)]
            assert result.keys == cold.keys
            assert stats_key(result) == stats_key(cold)

            pids_after = list(engine.worker_pids)
            assert engine.pool.total_respawns == 1
            survivors = set(pids_before) & set(pids_after)
            assert len(survivors) == len(pids_before) - 1, (
                "exactly one slot must have been replaced"
            )

            # The repaired pool keeps serving every algorithm
            # bit-identically, with no further respawns and stable pids.
            for other in ALGORITHMS:
                result = engine.query(handle, gamma=GAMMA, algorithm=other)
                cold = cold_results[(other, 2)]
                assert result.keys == cold.keys
                assert stats_key(result) == stats_key(cold)
            assert engine.worker_pids == pids_after
            assert engine.pool.total_respawns == 1
            assert engine.stats.slot_respawns == 1
    respawns = [
        event
        for event in obs_runlog.read_events(log_path)
        if event["event"] == "slot_respawn"
    ]
    assert len(respawns) == 1
    assert respawns[0]["respawned"] is True
    assert respawns[0]["reclaimed"] == 2


def test_concurrent_dispatch_stress(dataset):
    """Eight threads issue mixed PAR/IN/LO queries on one ``workers=4``
    engine while the interpreter switches threads as often as it can.
    Every result and counter equals the same query run alone, and once
    the threads are done the router holds no task: the backlog, every
    slot's unanswered tasks and every slot's prepared queries are empty."""
    specs = [
        {"gamma": gamma, "algorithm": algorithm}
        for gamma in (0.5, 0.7)
        for algorithm in ("PAR", "IN", "LO")
    ]
    threads_n = 8
    with SkylineEngine(ExecutionConfig(workers=4, scheduler="stealing")) as engine:
        handle = engine.attach(dataset)
        serial = [engine.query(handle, **spec) for spec in specs]
        results = {}
        errors = []

        def client(thread):
            try:
                for step in range(len(specs)):
                    which = (thread + step) % len(specs)
                    results[thread, which] = engine.query(handle, **specs[which])
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(thread,), daemon=True)
            for thread in range(threads_n)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 180.0
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads), "a query hung"
        assert errors == []
        assert len(results) == threads_n * len(specs)
        for (thread, which), result in results.items():
            assert result.keys == serial[which].keys, (thread, specs[which])
            assert stats_key(result) == stats_key(serial[which]), (
                thread, specs[which],
            )
        pool = engine.pool
        assert not pool._backlog
        assert [slot.outstanding for slot in pool._slots] == [[]] * 4
        assert [slot.prepared for slot in pool._slots] == [set()] * 4
        assert pool.total_respawns == 0


def test_on_failure_raise_fails_fast_then_repairs(dataset, cold_results):
    """The default policy surfaces the crash; the pool heals lazily."""
    execution = ExecutionConfig(workers=2, on_failure="raise")
    with SkylineEngine(
        execution, faults=FaultSpec("crash", at_chunk=0)
    ) as engine:
        handle = engine.attach(dataset)
        with pytest.raises(WorkerCrashError):
            engine.query(handle, gamma=GAMMA, algorithm="PAR")
        # ensure_healthy() respawned the dead slot before this query; the
        # injected fault is spent (max_fires=1), so it completes cleanly.
        result = engine.query(handle, gamma=GAMMA, algorithm="PAR")
        cold = cold_results[("PAR", 2)]
        assert result.keys == cold.keys
        assert stats_key(result) == stats_key(cold)
        assert engine.pool.total_respawns == 1


# ----------------------------------------------------------------------
# lifecycle, handles, batching
# ----------------------------------------------------------------------


def test_close_is_idempotent_and_use_after_close_raises(dataset):
    engine = SkylineEngine(ExecutionConfig(workers=2))
    handle = engine.attach(dataset)
    engine.query(handle, gamma=GAMMA, algorithm="LO")
    engine.close()
    engine.close()
    assert engine.closed
    with pytest.raises(EngineClosedError):
        engine.query(handle, gamma=GAMMA)
    with pytest.raises(EngineClosedError):
        engine.attach(dataset)


def test_context_manager_closes(dataset):
    with SkylineEngine(ExecutionConfig(workers=2)) as engine:
        engine.query(dataset, gamma=GAMMA, algorithm="LO")
    assert engine.closed


def test_attach_is_content_deduplicated(dataset):
    with SkylineEngine(ExecutionConfig(workers=2)) as engine:
        first = engine.attach(dataset)
        second = engine.attach(dataset)
        assert first is second
        assert engine.stats.attaches == 1


def test_handle_from_another_engine_is_rejected(dataset):
    with SkylineEngine(ExecutionConfig(workers=2)) as one:
        handle = one.attach(dataset)
        with SkylineEngine(ExecutionConfig(workers=2)) as two:
            with pytest.raises(ValueError, match="different engine"):
                two.query(handle, gamma=GAMMA)


def test_dims_projection_is_resident_and_exact(dataset):
    dims = (0, 2)
    projected = {
        group.key: group.values[:, dims] for group in dataset.groups
    }
    cold = aggregate_skyline(
        projected,
        gamma=GAMMA,
        algorithm="LO",
        execution=ExecutionConfig(workers=2),
    )
    serial = aggregate_skyline(projected, gamma=GAMMA, algorithm="LO")
    assert cold.keys == serial.keys
    with SkylineEngine(ExecutionConfig(workers=2)) as engine:
        handle = engine.attach(dataset)
        attaches_before = engine.stats.attaches
        first = engine.query(handle, gamma=GAMMA, algorithm="LO", dims=dims)
        second = engine.query(handle, gamma=GAMMA, algorithm="LO", dims=dims)
        assert first.keys == cold.keys == second.keys
        assert stats_key(first) == stats_key(cold) == stats_key(second)
        # One projection attach, reused by the second query.
        assert engine.stats.attaches == attaches_before + 1
        with pytest.raises(ValueError, match="out of range"):
            engine.query(handle, gamma=GAMMA, dims=(0, 9))
        with pytest.raises(ValueError, match="repeat"):
            engine.query(handle, gamma=GAMMA, dims=(1, 1))


@pytest.mark.parametrize("dims", [(-1,), (0, 0), (5,)])
def test_bad_dims_raise_on_every_path(dataset, dims):
    # Negative, repeated and out-of-range entries are refused alike,
    # wherever a projection is built.
    from repro.plan import explain_dataset

    with pytest.raises(ValueError, match="dims"):
        dataset.project(dims)
    with pytest.raises(ValueError, match="dims"):
        aggregate_skyline(dataset, gamma=GAMMA, dims=dims)
    with pytest.raises(ValueError, match="dims"):
        explain_dataset(dataset, gamma=GAMMA, dims=dims)
    with SkylineEngine(ExecutionConfig(workers=1)) as engine:
        handle = engine.attach(dataset)
        for data in (handle, dataset):
            with pytest.raises(ValueError, match="dims"):
                engine.query(data, gamma=GAMMA, dims=dims)
            with pytest.raises(ValueError, match="dims"):
                engine.explain(data, gamma=GAMMA, dims=dims)


def test_submit_batch_matches_individual_queries(dataset):
    specs = [
        {"gamma": 0.5, "algorithm": "LO"},
        {"gamma": 0.6, "algorithm": "PAR"},
        {"gamma": 0.55, "algorithm": "IN"},
    ]
    with SkylineEngine(ExecutionConfig(workers=2)) as engine:
        handle = engine.attach(dataset)
        batch = engine.submit_batch(handle, specs)
        assert len(batch) == len(specs)
        assert engine.stats.batches == 1
        assert engine.stats.queries == len(specs)
        for spec, result in zip(specs, batch):
            cold = aggregate_skyline(
                dataset,
                gamma=spec["gamma"],
                algorithm=spec["algorithm"],
                execution=ExecutionConfig(workers=2),
            )
            assert result.keys == cold.keys
            assert stats_key(result) == stats_key(cold)


def test_engine_stats_shape(dataset):
    with SkylineEngine(ExecutionConfig(workers=2)) as engine:
        handle = engine.attach(dataset)
        engine.query(handle, gamma=GAMMA, algorithm="LO")
        engine.query(handle, gamma=GAMMA, algorithm="NL")
        stats = engine.stats
        assert isinstance(stats, EngineStats)
        assert stats.queries == 2
        assert stats.warm_queries == 1
        assert stats.cold_queries == 1
        assert stats.attaches == 1
        assert stats.slot_respawns == 0


def test_serial_engine_never_spawns_a_pool(dataset):
    with SkylineEngine(ExecutionConfig(workers=1)) as engine:
        result = engine.query(dataset, gamma=GAMMA, algorithm="LO")
        assert engine.pool is None
        assert engine.worker_pids == []
        cold = aggregate_skyline(dataset, gamma=GAMMA, algorithm="LO")
        assert result.keys == cold.keys


# ----------------------------------------------------------------------
# the one-shot wrapper and the kwargs migration
# ----------------------------------------------------------------------


def test_aggregate_skyline_is_ephemeral_engine_parity(dataset):
    """The wrapper must behave exactly like the legacy implementation:
    serial default for LO, explicit execution still honoured."""
    from repro.core.algorithms import make_algorithm

    direct = make_algorithm("LO", GAMMA).compute(dataset)
    wrapped = aggregate_skyline(dataset, gamma=GAMMA, algorithm="LO")
    assert wrapped.keys == direct.keys
    assert stats_key(wrapped) == stats_key(direct)

    direct_pooled = make_algorithm(
        "LO", GAMMA, execution=ExecutionConfig(workers=2)
    ).compute(dataset)
    pooled = aggregate_skyline(
        dataset, gamma=GAMMA, algorithm="LO", execution="workers=2"
    )
    assert pooled.keys == direct.keys
    assert stats_key(pooled) == stats_key(direct_pooled)


def test_partitioned_execution_kwarg(dataset):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        serial = partitioned_aggregate_skyline(
            dataset, gamma=GAMMA, partitions=3
        )
        pooled = partitioned_aggregate_skyline(
            dataset, gamma=GAMMA, partitions=3, execution="workers=2"
        )
    assert serial.as_set() == pooled.as_set()


@pytest.mark.parametrize("start_method", START_METHODS)
def test_partitioned_pool_returns_serial_keys(dataset, start_method, monkeypatch):
    """The partitioned baseline's local phase maps over a pool opened for
    the call, under either start method, with the serial keys."""
    _require_start_method(start_method)
    monkeypatch.setenv("REPRO_START_METHOD", start_method)
    serial = partitioned_aggregate_skyline(dataset, gamma=GAMMA, partitions=4)
    pooled = partitioned_aggregate_skyline(
        dataset, gamma=GAMMA, partitions=4, execution="workers=2"
    )
    assert pooled.keys == serial.keys


def test_partitioned_legacy_kwargs_raise(dataset):
    for removed in ({"processes": 2}, {"pool_timeout": 60.0}):
        with pytest.raises(TypeError, match="execution="):
            partitioned_aggregate_skyline(
                dataset, gamma=GAMMA, partitions=3, **removed
            )


def test_public_surface_reexported():
    import repro

    for name in (
        "SkylineEngine",
        "DatasetHandle",
        "EngineStats",
        "EngineClosedError",
        "aggregate_skyline",
        "gamma_profile",
        "ExecutionConfig",
    ):
        assert name in repro.__all__
        assert hasattr(repro, name)
    assert DatasetHandle is repro.DatasetHandle
