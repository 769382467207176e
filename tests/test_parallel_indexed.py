"""Tests for parallel IN/LO, shared-memory shipping and work stealing.

The contract under test (see ``docs/parallel.md``): the parallel
indexed algorithms run every candidate's window loop under the
independent-candidate discipline, so the skyline **and every work
counter** are identical to the inline ``workers=1`` kernel for any
worker count, either scheduler, and either payload-shipping mode — and
exactly the Definition-2 skyline.  Shared-memory segments, worker
processes and pool threads must never outlive the run, and guided spans
must tile the candidate range.
"""

from __future__ import annotations

import gc
import multiprocessing
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import make_algorithm
from repro.core.execution import ExecutionConfig
from repro.data.synthetic import SyntheticSpec, generate_grouped
from repro.index.rtree import FlatRTree, str_levels
from repro.obs.metrics import use_registry
from repro.parallel.scheduler import guided_spans
from repro.parallel.shm import (
    ShmArena,
    attach_array,
    detach_all,
    load_groups,
    ship_groups,
    shm_available,
)
from tests.conftest import exact_aggregate_skyline

COUNTERS = (
    "group_comparisons",
    "record_pairs_examined",
    "index_candidates",
    "bbox_shortcuts",
    "stopping_rule_exits",
    "groups_skipped",
)


@pytest.fixture(autouse=True)
def _deadlock_guard():
    """A wedged pool fails the test instead of hanging the suite."""
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


def _workload(**overrides):
    spec = dict(
        n_records=300,
        avg_group_size=15,
        dimensions=3,
        distribution="anticorrelated",
        group_spread=0.4,
        seed=13,
    )
    spec.update(overrides)
    return generate_grouped(SyntheticSpec(**spec))


@pytest.fixture(scope="module")
def anticorrelated():
    return _workload()


@pytest.fixture(scope="module")
def zipfian():
    # Skewed group sizes: the workload work stealing exists for.
    return _workload(size_distribution="zipf", zipf_exponent=1.1, seed=21)


def _counters(stats):
    return {name: getattr(stats, name) for name in COUNTERS}


# ---------------------------------------------------------------------------
# Parallel IN/LO determinism + exactness
# ---------------------------------------------------------------------------


class TestParallelIndexed:
    @pytest.mark.parametrize("name", ["IN", "LO"])
    @pytest.mark.parametrize("fixture", ["anticorrelated", "zipfian"])
    def test_identical_to_inline_for_any_worker_count(
        self, name, fixture, request
    ):
        dataset = request.getfixturevalue(fixture)
        baseline = make_algorithm(
            name, execution=ExecutionConfig(workers=1)
        ).compute(dataset)
        oracle = exact_aggregate_skyline(dataset, 0.5)
        assert baseline.as_set() == oracle
        for workers in (2, 4):
            for scheduler in ("static", "stealing"):
                result = make_algorithm(
                    name,
                    execution=ExecutionConfig(
                        workers=workers, scheduler=scheduler
                    ),
                ).compute(dataset)
                context = f"{name}/{fixture}/workers={workers}/{scheduler}"
                assert result.as_set() == baseline.as_set(), context
                assert list(result.keys) == list(baseline.keys), context
                assert _counters(result.stats) == _counters(
                    baseline.stats
                ), context

    @pytest.mark.parametrize("shm", [False, True])
    def test_shipping_mode_does_not_change_anything(
        self, anticorrelated, shm
    ):
        if shm and not shm_available():  # pragma: no cover
            pytest.skip("shared_memory unavailable")
        baseline = make_algorithm(
            "IN", execution=ExecutionConfig(workers=1)
        ).compute(anticorrelated)
        pooled = make_algorithm(
            "IN",
            execution=ExecutionConfig(
                workers=2, scheduler="stealing", shm=shm
            ),
        ).compute(anticorrelated)
        assert pooled.as_set() == baseline.as_set()
        assert _counters(pooled.stats) == _counters(baseline.stats)

    def test_worker_stats_reconcile_with_parent(self, zipfian):
        engine = make_algorithm(
            "IN", execution=ExecutionConfig(workers=2, scheduler="stealing")
        )
        result = engine.compute(zipfian)
        assert engine.worker_stats, "pooled run should keep chunk stats"
        assert sum(
            stats.group_comparisons for stats in engine.worker_stats
        ) == result.stats.group_comparisons
        assert sum(
            stats.record_pairs_examined for stats in engine.worker_stats
        ) == result.stats.record_pairs_examined
        assert sum(
            stats.index_candidates for stats in engine.worker_stats
        ) == result.stats.index_candidates

    def test_metrics_registry_reconciles_after_pooled_run(self, zipfian):
        engine = make_algorithm(
            "IN", execution=ExecutionConfig(workers=2, scheduler="stealing")
        )
        with use_registry() as registry:
            result = engine.compute(zipfian)
        run = engine.last_pool_run
        assert run is not None and run.outcomes
        labels = {"algorithm": "IN", "scheduler": "stealing"}
        chunks = registry.get("parallel_chunks_total")
        assert chunks is not None
        assert chunks.value(**labels) == len(run.outcomes)
        queries = registry.get("index_window_queries_total")
        assert queries is not None
        assert queries.value(algorithm="IN") == sum(
            outcome.window_queries for outcome in run.outcomes
        )
        flushed = registry.get("skyline_group_comparisons_total")
        if flushed is not None:  # always-on end-of-run flush
            assert (
                flushed.value(algorithm="IN")
                == result.stats.group_comparisons
            )

    def test_stealing_reports_present(self, zipfian):
        """Every chunk outcome reports the pool slot and pid that ran it,
        and the outcomes tile the candidate range in span order."""
        engine = make_algorithm(
            "IN",
            execution=ExecutionConfig(workers=2, scheduler="stealing"),
        )
        engine.compute(zipfian)
        run = engine.last_pool_run
        assert run is not None
        assert {outcome.slot for outcome in run.outcomes} <= {0, 1}
        assert all(outcome.worker_pid > 0 for outcome in run.outcomes)
        position = 0
        for outcome in run.outcomes:
            assert outcome.start == position
            position = outcome.stop
        assert position == len(zipfian)

    def test_workers_none_keeps_the_serial_path(self, anticorrelated):
        engine = make_algorithm("IN", execution=ExecutionConfig())
        result = engine.compute(anticorrelated)
        assert engine.last_pool_run is None
        serial = make_algorithm("IN").compute(anticorrelated)
        assert result.as_set() == serial.as_set()


# ---------------------------------------------------------------------------
# Work-stealing scheduler properties
# ---------------------------------------------------------------------------


class TestScheduler:
    @settings(max_examples=100, deadline=None)
    @given(
        total=st.integers(min_value=0, max_value=5_000),
        workers=st.integers(min_value=1, max_value=8),
    )
    def test_guided_spans_tile_the_range(self, total, workers):
        spans = guided_spans(total, workers)
        position = 0
        previous = None
        for start, stop in spans:
            assert start == position and stop > start
            if previous is not None:
                assert stop - start <= previous  # sizes never increase
            previous = stop - start
            position = stop
        assert position == total


# ---------------------------------------------------------------------------
# Shared-memory shipping + leak safety
# ---------------------------------------------------------------------------


def _shm_dir() -> Path:
    return Path("/dev/shm")


def _live_segments() -> set:
    root = _shm_dir()
    if not root.is_dir():  # pragma: no cover - non-POSIX
        return set()
    return {p.name for p in root.glob("psm_*")}


@pytest.mark.skipif(not shm_available(), reason="shared_memory unavailable")
class TestShm:
    def test_share_attach_round_trip(self):
        payload = np.arange(12, dtype=np.float64).reshape(3, 4)
        with ShmArena() as arena:
            ref = arena.share(payload)
            view = attach_array(ref)
            assert np.array_equal(view, payload)
            assert not view.flags.writeable
            detach_all()
        assert arena.closed

    def test_close_is_idempotent_and_unlinks(self):
        arena = ShmArena()
        ref = arena.share(np.ones(4))
        names = set(arena.segment_names)
        assert names
        arena.close()
        arena.close()
        assert not arena.segment_names
        assert not (names & _live_segments())
        with pytest.raises(FileNotFoundError):
            attach_array(ref)

    def test_garbage_collection_unlinks(self):
        arena = ShmArena()
        arena.share(np.zeros(8))
        names = set(arena.segment_names)
        del arena
        gc.collect()
        assert not (names & _live_segments())

    def test_error_path_does_not_leak(self):
        names = set()
        with pytest.raises(RuntimeError):
            with ShmArena() as arena:
                arena.share(np.ones((2, 2)))
                names = set(arena.segment_names)
                raise RuntimeError("boom")
        assert names and not (names & _live_segments())

    def test_ship_groups_round_trip(self):
        dataset = _workload(n_records=60, seed=3)
        groups = dataset.groups
        with ShmArena() as arena:
            shipment = ship_groups(groups, arena)
            assert shipment.via_shm
            loaded = load_groups(shipment)
            assert [g.key for g in loaded] == [g.key for g in groups]
            for original, copy in zip(groups, loaded):
                assert np.array_equal(original.values, copy.values)
                assert copy.index == original.index
            detach_all()

    def test_ship_groups_inline_without_arena(self):
        dataset = _workload(n_records=60, seed=3)
        shipment = ship_groups(dataset.groups)
        assert not shipment.via_shm
        assert load_groups(shipment) is shipment.inline

    def test_pooled_run_leaves_no_segments_behind(self, anticorrelated):
        """A one-shot pooled IN/LO/PAR query closes its pool: no worker
        process, pool thread or ``/dev/shm`` segment (data, index, order)
        outlives it."""
        before = _live_segments()
        threads = {thread.ident for thread in threading.enumerate()}
        for name in ("IN", "LO", "PAR"):
            result = make_algorithm(
                name, execution=ExecutionConfig(workers=2, shm=True)
            ).compute(anticorrelated)
            assert len(result) > 0
            assert _live_segments() <= before, name
            assert multiprocessing.active_children() == [], name
            deadline = time.monotonic() + 5.0
            while True:
                extra = [
                    t for t in threading.enumerate() if t.ident not in threads
                ]
                if not extra or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert extra == [], name

    def test_engine_close_releases_all_segments(self, anticorrelated):
        """Engine-owned arenas (dataset + pinned index/order) are released
        deterministically by close(), not left to interpreter exit."""
        from repro.engine import SkylineEngine

        before = _live_segments()
        engine = SkylineEngine(ExecutionConfig(workers=2, shm=True))
        handle = engine.attach(anticorrelated)
        assert handle.via_shm
        assert _live_segments() - before  # resident payload is live
        result = engine.query(handle, algorithm="LO")
        assert len(result) > 0
        engine.close()
        engine.close()  # idempotent
        assert _live_segments() <= before

    def test_engine_detach_releases_dataset_segments(self, anticorrelated):
        from repro.engine import SkylineEngine

        before = _live_segments()
        with SkylineEngine(ExecutionConfig(workers=2, shm=True)) as engine:
            handle = engine.attach(anticorrelated)
            assert _live_segments() - before
            engine.detach(handle)
            # The pool (and its queues) stays up; the dataset's arena and
            # pinned artifacts are gone already.
            assert engine.worker_pids
            assert _live_segments() <= before
        assert _live_segments() <= before

    def test_engine_garbage_collection_releases_segments(self, anticorrelated):
        """The weakref.finalize safety net covers engines never closed."""
        from repro.engine import SkylineEngine

        before = _live_segments()
        engine = SkylineEngine(ExecutionConfig(workers=2, shm=True))
        engine.attach(anticorrelated)
        created = _live_segments() - before
        assert created
        del engine
        gc.collect()
        assert not (created & _live_segments())


# ---------------------------------------------------------------------------
# FlatRTree: read-only reconstruction equivalence
# ---------------------------------------------------------------------------


def _intersects(low, high, window_low, window_high) -> bool:
    return bool(np.all(low <= window_high) and np.all(high >= window_low))


class NodeWalk:
    """Reference window search: a depth-first walk over the STR nodes.

    The tree search ``FlatRTree`` replaces: pop a node, skip it unless
    its box meets the window, collect a leaf's hits in stored order, and
    push an inner node's intersecting children in order (so the last
    child is visited first).
    """

    def __init__(self, points, items=None):
        self.points = np.asarray(points, dtype=np.float64)
        count = len(self.points)
        self.items = list(range(count)) if items is None else list(items)
        self.levels = str_levels(self.points) if count else []

    def search_window(self, low, high):
        hits = []
        stack = [(len(self.levels) - 1, 0)] if self.levels else []
        while stack:
            level, node = stack.pop()
            nodes = self.levels[level]
            if not _intersects(nodes.lows[node], nodes.highs[node], low, high):
                continue
            if level == 0:
                hits.extend(
                    self.items[row]
                    for row in nodes.members[node]
                    if _intersects(self.points[row], self.points[row], low, high)
                )
                continue
            below = self.levels[level - 1]
            stack.extend(
                (level - 1, child)
                for child in nodes.members[node]
                if _intersects(below.lows[child], below.highs[child], low, high)
            )
        return hits


class TestFlatRTree:
    def _points(self, seed=17, n=200, dims=3):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 1.0, size=(n, dims))

    def _windows(self, seed=29, n=25, dims=3):
        rng = np.random.default_rng(seed)
        lows = rng.uniform(0.0, 0.8, size=(n, dims))
        highs = lows + rng.uniform(0.05, 0.6, size=(n, dims))
        return list(zip(lows, highs))

    def test_matches_the_tree_on_window_queries(self):
        points = self._points()
        items = np.arange(len(points), dtype=np.int64)[::-1] * 3
        walk = NodeWalk(points, items)
        flat = FlatRTree.bulk_load_points(points, items)
        assert len(flat) == len(points)
        for low, high in self._windows():
            assert flat.search_window(low, high) == walk.search_window(low, high)

    def test_arrays_round_trip(self):
        points = self._points(seed=5, n=64)
        flat = FlatRTree.bulk_load_points(points)
        clone = FlatRTree.from_arrays(flat.arrays())
        for low, high in self._windows(seed=7, n=10):
            assert clone.search_window(low, high) == flat.search_window(low, high)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=300),
        dims=st.integers(min_value=1, max_value=4),
        shape=st.sampled_from(["uniform", "duplicates", "tied", "infinite"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_window_order_matches_the_object_walk(self, n, dims, shape, seed):
        """The packed mask returns the node walk's list, in its order.

        IN/LO counters depend on candidate order, so lists are compared,
        not sets.  Up to 300 points give trees of one to three levels.
        """
        rng = np.random.default_rng(seed)
        if shape == "uniform":
            points = rng.random((n, dims))
        elif shape == "duplicates":
            points = rng.integers(0, 3, size=(n, dims)) / 2.0
        elif shape == "tied":
            points = np.full((n, dims), rng.random())
        else:
            points = rng.random((n, dims))
            points[rng.random((n, dims)) < 0.2] = np.inf
            points[rng.random((n, dims)) < 0.2] = -np.inf
        # A node spanning -inf..+inf has a NaN centre; the tiling must
        # still be a pure function of the points.
        with np.errstate(invalid="ignore"):
            walk = NodeWalk(points)
            flat = FlatRTree.bulk_load_points(points)

        lows = rng.uniform(-0.25, 1.0, size=(12, dims))
        windows = [(low, low + rng.uniform(0.0, 0.75, size=dims)) for low in lows]
        upper = np.full(dims, np.inf)
        for p in points[rng.permutation(n)[:12]]:
            windows += [(p, upper), (p, p)]
        for low, high in windows:
            assert flat.search_window(low, high) == walk.search_window(low, high)

    def test_empty_tree_packs(self):
        flat = FlatRTree.bulk_load_points(np.zeros((0, 2)))
        assert len(flat) == 0
        assert flat.search_window(np.zeros(2), np.ones(2)) == []

    def test_non_integer_payloads_rejected(self):
        with pytest.raises(ValueError):
            FlatRTree.bulk_load_points(np.zeros((1, 2)), items=np.array(["a"]))
