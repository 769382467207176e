"""Tests for the packed STR R-tree (``FlatRTree`` and ``str_levels``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.rtree import FlatRTree, str_levels


class TestRTreeConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlatRTree.bulk_load_points(np.zeros(4))  # not entries x dims
        with pytest.raises(ValueError):
            FlatRTree.bulk_load_points(np.zeros((3, 2)), items=np.arange(2))

    def test_empty_tree(self):
        tree = FlatRTree.bulk_load_points(np.zeros((0, 2)))
        assert len(tree) == 0
        assert tree.search_window([0.0, 0.0], [1.0, 1.0]) == []

    def test_bulk_load_balanced(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(size=(200, 2))
        levels = str_levels(points, max_entries=8)
        assert len(FlatRTree.bulk_load_points(points, max_entries=8)) == 200
        # STR packs near-full nodes: height close to log_8(200 / 8) + 1.
        assert len(levels) <= 4
        assert len(levels[-1].members) == 1  # a single root
        for level in levels:
            assert all(1 <= len(node) <= 8 for node in level.members)
        assert sorted(row for leaf in levels[0].members for row in leaf) == list(
            range(200)
        )

    def test_bulk_load_empty(self):
        tree = FlatRTree.bulk_load_points(
            np.zeros((0, 1)), items=np.zeros(0, dtype=np.int64)
        )
        assert len(tree) == 0
        assert tree.search_window([0.0], [1.0]) == []
        # An empty payload list has no integer dtype, and needs none.
        assert len(FlatRTree.bulk_load_points(np.zeros((0, 1)), items=[])) == 0

    def test_non_integer_items_rejected(self):
        # A float payload must not be truncated (1.5 stored as 1).
        with pytest.raises(TypeError):
            FlatRTree.bulk_load_points(np.zeros((1, 2)), items=np.array([1.5]))
        with pytest.raises(TypeError):
            FlatRTree.bulk_load_points(np.zeros((1, 2)), items=np.array([1.0]))
        with pytest.raises(TypeError):
            FlatRTree.bulk_load_points(np.zeros((1, 2)), items=np.array([True]))
        tree = FlatRTree.bulk_load_points(
            np.zeros((2, 2)), items=np.array([7, 9], dtype=np.int32)
        )
        assert sorted(tree.entry_items.tolist()) == [7, 9]


def brute_force_window(points, low, high):
    low = np.asarray(low)
    high = np.asarray(high)
    return {
        i
        for i, p in enumerate(points)
        if bool(np.all(p >= low) and np.all(p <= high))
    }


class TestWindowQueries:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=100_000),
    )
    def test_matches_brute_force(self, n, d, seed):
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 10, size=(n, d)).astype(float)
        tree = FlatRTree.bulk_load_points(points, max_entries=4)
        corner_a = rng.integers(0, 10, size=d).astype(float)
        corner_b = rng.integers(0, 10, size=d).astype(float)
        low = np.minimum(corner_a, corner_b)
        high = np.maximum(corner_a, corner_b)
        expected = brute_force_window(points, low, high)
        assert set(tree.search_window(low, high)) == expected

    def test_dominance_window_with_infinity(self):
        points = np.array([[1.0, 1.0], [5.0, 5.0], [2.0, 9.0], [9.0, 2.0]])
        tree = FlatRTree.bulk_load_points(points, max_entries=4)
        found = tree.search_window([2.0, 2.0], [np.inf, np.inf])
        # Every point with both coordinates >= 2.
        assert set(found) == {1, 2, 3}
        assert set(tree.search_window([6.0, 1.0], [np.inf, np.inf])) == {3}
        assert tree.search_window([-np.inf, -np.inf], [np.inf, np.inf]) != []

    def test_duplicate_points_all_found(self):
        points = np.ones((10, 2))
        tree = FlatRTree.bulk_load_points(points, max_entries=4)
        assert set(tree.search_window([1.0, 1.0], [1.0, 1.0])) == set(range(10))
