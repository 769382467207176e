"""Store format v2, fingerprints, and the derived-artifact cache.

Covers the columnar-backbone satellites:

* property-based save/load round-trips (tuple keys, MIN/MAX direction
  mixes, 1-record groups) across both on-disk formats and v1↔v2
  conversions;
* the mmap fast path of v2 loads;
* ``repro dataset convert`` / ``info`` CLI round-trips;
* artifact-cache behaviour: content-keyed hits, LRU eviction, metric
  counters, and invalidation-on-update against
  :class:`~repro.core.incremental.IncrementalAggregateSkyline`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core import artifacts
from repro.core.groups import GroupedDataset
from repro.core.incremental import IncrementalAggregateSkyline
from repro.data.store import (
    FORMAT_VERSIONS,
    load_grouped,
    read_manifest,
    save_grouped,
)


# ----------------------------------------------------------------------
# dataset strategy: tuple/str keys, MIN/MAX mixes, 1-record groups
# ----------------------------------------------------------------------

_VALUES = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def grouped_datasets(draw):
    dims = draw(st.integers(min_value=1, max_value=4))
    directions = draw(
        st.lists(st.sampled_from(["max", "min"]), min_size=dims, max_size=dims)
    )
    n_groups = draw(st.integers(min_value=1, max_value=6))
    keys = draw(
        st.lists(
            st.one_of(
                st.text(min_size=1, max_size=8),
                st.integers(min_value=-100, max_value=100),
                st.tuples(
                    st.text(min_size=1, max_size=4),
                    st.integers(min_value=0, max_value=9),
                ),
            ),
            min_size=n_groups,
            max_size=n_groups,
            unique=True,
        )
    )
    groups = {}
    for key in keys:
        size = draw(st.integers(min_value=1, max_value=5))
        rows = draw(
            st.lists(
                st.lists(_VALUES, min_size=dims, max_size=dims),
                min_size=size,
                max_size=size,
            )
        )
        groups[key] = np.asarray(rows, dtype=np.float64)
    return GroupedDataset(groups, directions=directions)


def _assert_same_dataset(a: GroupedDataset, b: GroupedDataset) -> None:
    assert a.fingerprint() == b.fingerprint()
    assert a.keys() == b.keys()
    assert a.directions == b.directions
    assert np.array_equal(np.asarray(a.offsets), np.asarray(b.offsets))
    assert np.array_equal(np.asarray(a.matrix), np.asarray(b.matrix))
    for key in a.keys():
        assert np.array_equal(a.original_values(key), b.original_values(key))


class TestStoreRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(dataset=grouped_datasets(), version=st.sampled_from(FORMAT_VERSIONS))
    def test_save_load_round_trip(self, dataset, version, tmp_path_factory):
        path = tmp_path_factory.mktemp("store") / "archive.npz"
        save_grouped(dataset, path, version=version)
        assert read_manifest(path)["version"] == version
        loaded = load_grouped(path)
        _assert_same_dataset(dataset, loaded)

    @settings(max_examples=10, deadline=None)
    @given(dataset=grouped_datasets())
    def test_v1_v2_conversion_cycle(self, dataset, tmp_path_factory):
        base = tmp_path_factory.mktemp("conv")
        v1, v2, back = base / "a.npz", base / "b.npz", base / "c.npz"
        save_grouped(dataset, v1, version=1)
        save_grouped(load_grouped(v1), v2, version=2)
        save_grouped(load_grouped(v2, mmap=False), back, version=1)
        _assert_same_dataset(dataset, load_grouped(back))

    def test_single_record_groups_and_tuple_keys(self, tmp_path):
        dataset = GroupedDataset(
            {("a", 1): [[1.0, 2.0]], ("a", 2): [[3.0, 0.5]], "b": [[2.0, 2.0]]},
            directions=["max", "min"],
        )
        path = tmp_path / "tiny.npz"
        save_grouped(dataset, path)
        loaded = load_grouped(path)
        assert loaded.keys() == [("a", 1), ("a", 2), "b"]
        assert loaded[("a", 1)].size == 1
        _assert_same_dataset(dataset, loaded)

    @staticmethod
    def _memmap_backed(array: np.ndarray) -> bool:
        base = array
        while isinstance(base, np.ndarray):
            if isinstance(base, np.memmap):
                return True
            base = base.base
        return False

    def test_v2_load_is_mmap_backed(self, tmp_path):
        dataset = GroupedDataset({"a": [[1.0, 2.0]], "b": [[3.0, 4.0]]})
        path = tmp_path / "m.npz"
        save_grouped(dataset, path, version=2)
        assert self._memmap_backed(load_grouped(path).matrix)
        assert not self._memmap_backed(
            load_grouped(path, mmap=False).matrix
        )

    def test_unknown_version_rejected(self, tmp_path):
        dataset = GroupedDataset({"a": [[1.0]]})
        with pytest.raises(ValueError, match="version"):
            save_grouped(dataset, tmp_path / "x.npz", version=3)

    def test_non_finite_gate_round_trips(self, tmp_path):
        dataset = GroupedDataset(
            {"a": [[np.inf, 1.0]], "b": [[1.0, 1.0]]}, allow_non_finite=True
        )
        path = tmp_path / "inf.npz"
        save_grouped(dataset, path)
        with pytest.raises(ValueError, match="'a'.*infinite"):
            load_grouped(path)
        loaded = load_grouped(path, allow_non_finite=True)
        assert loaded["a"].values[0][0] == np.inf


class TestDatasetCli:
    def test_convert_round_trip_check(self, tmp_path, capsys):
        dataset = GroupedDataset(
            {("k", 0): [[1.0, 5.0], [2.0, 4.0]], "solo": [[9.0, 9.0]]},
            directions=["min", "max"],
        )
        v1 = tmp_path / "v1.npz"
        v2 = tmp_path / "v2.npz"
        save_grouped(dataset, v1, version=1)
        assert cli_main(["dataset", "convert", str(v1), str(v2)]) == 0
        out = capsys.readouterr().out
        assert "round-trip OK" in out
        assert read_manifest(v2)["version"] == 2
        _assert_same_dataset(dataset, load_grouped(v2))
        # and back down to v1
        down = tmp_path / "down.npz"
        assert (
            cli_main(["dataset", "convert", str(v2), str(down), "--to", "1"])
            == 0
        )
        assert read_manifest(down)["version"] == 1
        _assert_same_dataset(dataset, load_grouped(down))

    def test_info(self, tmp_path, capsys):
        dataset = GroupedDataset({"a": [[1.0, 2.0]], "b": [[2.0, 1.0]]})
        path = tmp_path / "ds.npz"
        save_grouped(dataset, path)
        assert cli_main(["dataset", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "format version : 2" in out
        assert "groups         : 2" in out
        assert dataset.fingerprint() in out


class TestFingerprint:
    def test_content_identity(self):
        a = GroupedDataset({"x": [[1.0, 2.0]], "y": [[2.0, 1.0]]})
        b = GroupedDataset({"x": [[1.0, 2.0]], "y": [[2.0, 1.0]]})
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_values_keys_directions_layout(self):
        base = GroupedDataset({"x": [[1.0, 2.0]], "y": [[2.0, 1.0]]})
        assert (
            base.fingerprint()
            != GroupedDataset({"x": [[1.0, 2.5]], "y": [[2.0, 1.0]]}).fingerprint()
        )
        assert (
            base.fingerprint()
            != GroupedDataset({"x2": [[1.0, 2.0]], "y": [[2.0, 1.0]]}).fingerprint()
        )
        assert (
            base.fingerprint()
            != GroupedDataset(
                {"x": [[1.0, 2.0]], "y": [[2.0, 1.0]]}, directions=["max", "min"]
            ).fingerprint()
        )
        # same flat records, different group boundaries
        one = GroupedDataset({"x": [[1.0, 2.0], [2.0, 1.0]]})
        two = GroupedDataset({"x": [[1.0, 2.0]], "y": [[2.0, 1.0]]})
        assert one.fingerprint() != two.fingerprint()


@pytest.fixture()
def fresh_cache():
    cache = artifacts.ArtifactCache(maxsize=8)
    artifacts.set_cache(cache)
    artifacts.configure(True)
    try:
        yield cache
    finally:
        artifacts.set_cache(None)
        artifacts.configure(True)


class TestArtifactCache:
    def test_hit_miss_and_counters(self, fresh_cache):
        dataset = GroupedDataset({"a": [[1.0, 2.0]], "b": [[2.0, 1.0]]})
        first = artifacts.packed_rtree(dataset)
        second = artifacts.packed_rtree(dataset)
        assert fresh_cache.stats()["misses"] == 1
        assert fresh_cache.stats()["hits"] == 1
        # re-hydrated instances share arrays but have fresh counters
        assert first is not second
        assert first.entry_items is second.entry_items
        assert second.window_queries == 0

    def test_content_keyed_across_equal_datasets(self, fresh_cache):
        a = GroupedDataset({"a": [[1.0, 2.0]], "b": [[2.0, 1.0]]})
        b = GroupedDataset({"a": [[1.0, 2.0]], "b": [[2.0, 1.0]]})
        artifacts.packed_rtree(a)
        artifacts.packed_rtree(b)
        assert fresh_cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_lru_eviction(self, fresh_cache):
        rng = np.random.default_rng(0)
        for i in range(fresh_cache.maxsize + 3):
            dataset = GroupedDataset({"g": rng.random((2, 2))})
            artifacts.packed_rtree(dataset)
        stats = fresh_cache.stats()
        assert stats["entries"] == fresh_cache.maxsize
        assert stats["evictions"] == 3

    def test_disabled_cache_builds_every_time(self, fresh_cache):
        artifacts.configure(False)
        dataset = GroupedDataset({"a": [[1.0, 2.0]], "b": [[2.0, 1.0]]})
        artifacts.packed_rtree(dataset)
        artifacts.packed_rtree(dataset)
        assert fresh_cache.stats()["misses"] == 0  # never consulted
        assert len(fresh_cache) == 0

    def test_sort_order_artifact(self, fresh_cache):
        from repro.core.algorithms.sorted_access import SORT_KEYS

        dataset = GroupedDataset(
            {"a": [[1.0, 2.0], [0.5, 0.5]], "b": [[2.0, 1.0]]}
        )
        key = SORT_KEYS["size_corner"]
        order = artifacts.sort_order(dataset, "size_corner", key)
        again = artifacts.sort_order(dataset, "size_corner", key)
        groups = dataset.groups
        assert list(order) == sorted(
            range(len(groups)), key=lambda i: key(groups[i])
        )
        assert again is order
        assert fresh_cache.stats()["hits"] == 1


    def test_record_columns_artifact(self, fresh_cache):
        """The batch kernel's columns are built once per content, shared
        read-only, and a compute over them keeps its counters."""
        from repro.core.algorithms import make_algorithm

        dataset = GroupedDataset(
            {"a": [[1.0, 2.0], [0.5, 0.5]], "b": [[2.0, 1.0]], "c": [[0.2, 0.1]]}
        )
        columns = artifacts.record_columns(dataset)
        assert artifacts.record_columns(dataset) is columns
        assert fresh_cache.stats()["misses"] == 1
        assert not columns.ranks.flags.writeable
        assert not columns.records.flags.writeable
        with pytest.raises(ValueError):
            columns.ranks[0, 0] = 0
        first = make_algorithm("NL", 0.5).compute(dataset)
        second = make_algorithm("NL", 0.5).compute(dataset)
        assert first.keys == second.keys
        assert (
            first.stats.record_pairs_examined
            == second.stats.record_pairs_examined
        )


class TestCacheInvalidationOnUpdate:
    """The incremental structure's version bump invalidates artifacts."""

    def test_snapshot_memoised_until_mutation(self):
        sky = IncrementalAggregateSkyline(dimensions=2)
        sky.insert("a", (1.0, 2.0))
        sky.insert("b", (2.0, 1.0))
        version = sky.version
        snap1 = sky.to_dataset()
        snap2 = sky.to_dataset()
        assert snap1 is snap2
        assert sky.version == version
        sky.insert("a", (3.0, 3.0))
        assert sky.version > version
        snap3 = sky.to_dataset()
        assert snap3 is not snap1
        assert snap3.fingerprint() != snap1.fingerprint()

    def test_artifacts_rebuilt_after_update(self, fresh_cache):
        sky = IncrementalAggregateSkyline(dimensions=2)
        sky.insert("a", (1.0, 2.0))
        sky.insert("b", (2.0, 1.0))
        artifacts.packed_rtree(sky.to_dataset())
        artifacts.packed_rtree(sky.to_dataset())
        assert fresh_cache.stats()["hits"] == 1
        assert fresh_cache.stats()["misses"] == 1
        sky.insert("c", (0.5, 0.5))
        artifacts.packed_rtree(sky.to_dataset())
        stats = fresh_cache.stats()
        assert stats["misses"] == 2  # new fingerprint -> rebuilt
        sky.delete("c", (0.5, 0.5))
        # content returned to the original state: same fingerprint, hit
        artifacts.packed_rtree(sky.to_dataset())
        assert fresh_cache.stats()["hits"] == 2

    def test_version_counter_monotonic(self):
        sky = IncrementalAggregateSkyline(dimensions=2)
        assert sky.version == 0
        sky.insert("a", (1.0, 2.0))
        sky.insert("b", (2.0, 1.0))
        assert sky.version == 2
        sky.delete("b", (2.0, 1.0))
        assert sky.version == 3
        sky.insert("b", (2.0, 1.0))
        sky.drop_group("b")
        assert sky.version == 5
