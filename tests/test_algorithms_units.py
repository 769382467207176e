"""Per-algorithm unit tests: construction, counters, edge cases."""

import pytest

from repro.core.algorithms import (
    ALGORITHMS,
    AggregateSkylineAlgorithm,
    make_algorithm,
)
from repro.core.algorithms.indexed import IndexedAlgorithm
from repro.core.algorithms.indexed_bbox import IndexedBBoxAlgorithm
from repro.core.algorithms.nested_loop import NestedLoopAlgorithm
from repro.core.algorithms.sorted_access import SORT_KEYS, SortedAlgorithm
from repro.core.algorithms.transitive import TransitiveAlgorithm
from repro.core.groups import GroupedDataset
from repro.data.movies import directors_dataset


@pytest.fixture
def small_dataset():
    return GroupedDataset(
        {
            "top": [[10, 10], [9, 9]],
            "mid": [[5, 5], [6, 4]],
            "low": [[1, 1], [2, 2]],
        }
    )


class TestRegistry:
    def test_registry_contents(self):
        assert set(ALGORITHMS) == {
            "NL", "TR", "SI", "IN", "LO", "SQL", "AD", "PAR",
        }

    def test_make_algorithm_case_insensitive(self):
        assert isinstance(make_algorithm("nl"), NestedLoopAlgorithm)
        assert isinstance(make_algorithm(" lo "), IndexedBBoxAlgorithm)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_algorithm("XX")

    def test_names_match_paper(self):
        assert NestedLoopAlgorithm.name == "NL"
        assert TransitiveAlgorithm.name == "TR"
        assert SortedAlgorithm.name == "SI"
        assert IndexedAlgorithm.name == "IN"
        assert IndexedBBoxAlgorithm.name == "LO"


class TestConstruction:
    def test_invalid_prune_policy(self):
        with pytest.raises(ValueError, match="prune_policy"):
            NestedLoopAlgorithm(0.5, prune_policy="aggressive")

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            NestedLoopAlgorithm(0.3)

    def test_invalid_sort_key(self):
        with pytest.raises(ValueError, match="sort_key"):
            SortedAlgorithm(0.5, sort_key="alphabetical")

    def test_sort_keys_registry(self):
        assert set(SORT_KEYS) == {"corner_distance", "size_corner"}

    def test_lo_forces_bbox(self):
        algorithm = IndexedBBoxAlgorithm(0.5)
        assert algorithm.comparator.use_bbox


class TestBehaviour:
    def test_single_group_survives(self):
        dataset = GroupedDataset({"only": [[1, 2], [3, 4]]})
        for name in ("NL", "TR", "SI", "IN", "LO", "SQL"):
            result = make_algorithm(name).compute(dataset)
            assert result.keys == ["only"]

    def test_chain_leaves_top(self, small_dataset):
        for name in ("NL", "TR", "SI", "IN", "LO", "SQL"):
            result = make_algorithm(name).compute(small_dataset)
            assert result.as_set() == {"top"}, name

    def test_result_metadata(self, small_dataset):
        result = make_algorithm("NL", 0.75).compute(small_dataset)
        assert result.gamma == 0.75
        assert result.stats.algorithm == "NL"
        assert result.stats.elapsed_seconds >= 0
        assert "only" not in result
        assert "top" in result
        assert len(result) == 1
        assert list(result) == ["top"]

    def test_nl_compares_all_pairs(self, small_dataset):
        result = NestedLoopAlgorithm(0.5).compute(small_dataset)
        assert result.stats.group_comparisons == 3  # C(3, 2)

    def test_tr_paper_skips_strongly_dominated(self, small_dataset):
        result = TransitiveAlgorithm(0.5, prune_policy="paper").compute(
            small_dataset
        )
        # "low" is strongly dominated by "top" in the first comparison and
        # is skipped afterwards: fewer than the 3 exhaustive comparisons.
        assert result.stats.group_comparisons < 3
        assert result.stats.groups_skipped >= 1

    def test_indexed_counts_candidates(self, small_dataset):
        result = IndexedAlgorithm(0.5).compute(small_dataset)
        assert result.stats.index_candidates >= 1

    def test_indexed_window_prunes_comparisons(self):
        # Ten well-separated groups along the diagonal: the window query for
        # the top group contains only itself.
        groups = {
            f"g{i}": [[float(10 * i), float(10 * i)],
                      [float(10 * i + 1), float(10 * i + 1)]]
            for i in range(10)
        }
        dataset = GroupedDataset(groups)
        indexed = IndexedAlgorithm(0.5).compute(dataset)
        nested = NestedLoopAlgorithm(0.5).compute(dataset)
        assert indexed.as_set() == nested.as_set() == {"g9"}
        assert (
            indexed.stats.group_comparisons
            < nested.stats.group_comparisons
        )

    def test_lo_fewer_record_pairs_than_in(self):
        dataset = directors_dataset()
        lo = IndexedBBoxAlgorithm(0.5).compute(dataset)
        indexed = IndexedAlgorithm(0.5).compute(dataset)
        assert lo.as_set() == indexed.as_set()
        assert lo.stats.record_pairs_examined <= indexed.stats.record_pairs_examined

    def test_compute_resets_stats_between_runs(self, small_dataset):
        algorithm = NestedLoopAlgorithm(0.5)
        first = algorithm.compute(small_dataset)
        second = algorithm.compute(small_dataset)
        assert (
            first.stats.group_comparisons == second.stats.group_comparisons
        )

    def test_gamma_one_keeps_non_strictly_dominated(self):
        # At gamma = 1 only full (p = 1) domination excludes a group.
        dataset = GroupedDataset(
            {
                "a": [[10, 10], [0, 0]],   # half-dominates b, not fully
                "b": [[5, 5]],
                "c": [[1, 1]],             # fully dominated by b
            }
        )
        for name in ("NL", "TR", "SI", "IN", "LO", "SQL"):
            result = make_algorithm(name, 1.0).compute(dataset)
            assert result.as_set() == {"a", "b"}, name

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError):
            AggregateSkylineAlgorithm(0.5)  # type: ignore[abstract]
