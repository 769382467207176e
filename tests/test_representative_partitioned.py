"""Tests for top-k dominating groups, representative skyline, partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from repro.core import comparator as comparator_module
from repro.core.algorithms import make_algorithm
from repro.core.gamma import gamma_dominates
from repro.core.groups import GroupedDataset
from repro.core.partitioned import partition_keys, partitioned_aggregate_skyline
from repro.core.representative import (
    domination_counts,
    representative_skyline,
    top_k_dominating_groups,
)
from repro.data.movies import figure1_directors_dataset
from tests.conftest import (
    exact_aggregate_skyline,
    kernel_datasets,
    random_grouped_dataset,
)

BLOCKS = [1, 7, comparator_module.BULK_DIRECTIONS]


@pytest.fixture
def layered():
    return GroupedDataset(
        {
            "king": [[10.0, 10.0]],
            "duke": [[7.0, 7.0]],
            "pawn1": [[1.0, 1.0]],
            "pawn2": [[2.0, 2.0]],
            "outsider": [[0.0, 20.0]],
        }
    )


class TestDominationCounts:
    def test_counts(self, layered):
        counts = domination_counts(layered)
        assert counts["king"] == 3     # duke, pawn1, pawn2
        assert counts["duke"] == 2
        assert counts["pawn1"] == 0
        assert counts["outsider"] == 0

    def test_counts_match_bruteforce(self, rng):
        dataset = random_grouped_dataset(rng, n_groups=8, max_group_size=5)
        counts = domination_counts(dataset, 0.5)
        for s in dataset:
            expected = sum(
                1
                for r in dataset
                if r.key != s.key and gamma_dominates(s, r, 0.5)
            )
            assert counts[s.key] == expected, s.key

    def test_directions(self):
        counts = domination_counts(
            {"cheap": [[1.0]], "pricey": [[9.0]]}, directions=["min"]
        )
        assert counts == {"cheap": 1, "pricey": 0}

    @settings(max_examples=60, deadline=None)
    @given(
        kernel_datasets(),
        st.sampled_from([0.5, 0.55, 0.75, 1.0]),
        st.sampled_from(BLOCKS),
    )
    def test_counts_match_bruteforce_on_adversarial_shapes(
        self, dataset, gamma, block
    ):
        with mock.patch.object(comparator_module, "BULK_DIRECTIONS", block):
            counts = domination_counts(dataset, gamma)
        for s in dataset:
            expected = sum(
                1
                for r in dataset
                if r.key != s.key and gamma_dominates(s, r, gamma)
            )
            assert counts[s.key] == expected, s.key

    def test_gamma_exactly_a_pair_fraction(self):
        # "a" beats 3 of the 4 records of "b": p = 3/4 exactly, which is
        # no γ-dominance at γ = .75 and is just above .7.
        dataset = GroupedDataset(
            {"a": [[5.0, 5.0]], "b": [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [6.0, 6.0]]}
        )
        assert domination_counts(dataset, 0.75)["a"] == 0
        assert domination_counts(dataset, 0.7)["a"] == 1


class TestTopK:
    def test_order_and_truncation(self, layered):
        top = top_k_dominating_groups(layered, 2)
        assert top == [("king", 3), ("duke", 2)]

    def test_k_validation(self, layered):
        with pytest.raises(ValueError):
            top_k_dominating_groups(layered, 0)

    def test_k_larger_than_groups(self, layered):
        top = top_k_dominating_groups(layered, 100)
        assert len(top) == 5

    def test_useful_when_skyline_is_everything(self):
        # Mutually incomparable groups: the skyline is all of them, but
        # the domination ranking still distinguishes.
        dataset = GroupedDataset(
            {
                "broad": [[5.0, 5.0], [6.0, 4.0]],
                "spiky": [[9.0, 0.0]],
                "meek": [[4.0, 4.5]],
            }
        )
        top = top_k_dominating_groups(dataset, 1)
        assert top[0][0] == "broad"


class TestRepresentativeSkyline:
    def test_small_skyline_returned_whole(self, layered):
        # skyline = {king, outsider}; k bigger than that returns both.
        chosen = representative_skyline(layered, 5)
        assert set(chosen) == {"king", "outsider"}

    def test_greedy_picks_best_coverage_first(self, layered):
        chosen = representative_skyline(layered, 1)
        assert chosen == ["king"]

    def test_movie_directors(self):
        dataset = figure1_directors_dataset()
        chosen = representative_skyline(dataset, 2)
        assert len(chosen) == 2
        skyline = {"Coppola", "Jackson", "Kershner", "Tarantino"}
        assert set(chosen) <= skyline

    def test_chosen_are_skyline_members(self, rng):
        dataset = random_grouped_dataset(rng, n_groups=9, max_group_size=4)
        skyline = exact_aggregate_skyline(dataset, 0.5)
        chosen = representative_skyline(dataset, 3)
        assert set(chosen) <= skyline
        assert len(chosen) == min(3, len(skyline))

    def test_k_validation(self, layered):
        with pytest.raises(ValueError):
            representative_skyline(layered, 0)


class TestPartitionKeys:
    def test_round_robin(self):
        assert partition_keys(["a", "b", "c", "d", "e"], 2) == [
            ["a", "c", "e"],
            ["b", "d"],
        ]

    def test_more_partitions_than_keys(self):
        assert partition_keys(["a"], 4) == [["a"]]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_keys(["a"], 0)


class TestPartitionedSkyline:
    def test_matches_oracle(self, layered):
        result = partitioned_aggregate_skyline(layered, partitions=2)
        assert result.as_set() == exact_aggregate_skyline(layered, 0.5)
        assert result.stats.algorithm == "PART(2)"

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([0.5, 0.75, 1.0]),
        st.integers(min_value=0, max_value=1_000_000),
    )
    def test_matches_oracle_randomized(
        self, n_groups, max_size, partitions, gamma, seed
    ):
        rng = np.random.default_rng(seed)
        dataset = random_grouped_dataset(
            rng, n_groups=n_groups, max_group_size=max_size
        )
        result = partitioned_aggregate_skyline(
            dataset, gamma=gamma, partitions=partitions
        )
        assert result.as_set() == exact_aggregate_skyline(dataset, gamma)

    def test_result_preserves_group_order(self):
        dataset = GroupedDataset(
            {"z": [[1.0, 9.0]], "a": [[9.0, 1.0]], "m": [[5.0, 5.0]]}
        )
        result = partitioned_aggregate_skyline(dataset, partitions=3)
        assert result.keys == ["z", "a", "m"]

    def test_parallel_matches_serial(self, rng):
        dataset = random_grouped_dataset(rng, n_groups=10, max_group_size=5)
        serial = partitioned_aggregate_skyline(dataset, partitions=3)
        parallel = partitioned_aggregate_skyline(
            dataset, partitions=3, execution="workers=2"
        )
        assert serial.as_set() == parallel.as_set()

    def test_single_partition(self, layered):
        result = partitioned_aggregate_skyline(layered, partitions=1)
        assert result.as_set() == {"king", "outsider"}

    def test_min_directions(self):
        result = partitioned_aggregate_skyline(
            {"cheap": [[1.0]], "pricey": [[9.0]]},
            partitions=2,
            directions=["min"],
        )
        assert result.as_set() == {"cheap"}

    @settings(max_examples=40, deadline=None)
    @given(
        kernel_datasets(),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0.5, 0.75, 1.0]),
        st.sampled_from(BLOCKS),
    )
    def test_matches_nl_on_adversarial_shapes(
        self, dataset, partitions, gamma, block
    ):
        with mock.patch.object(comparator_module, "BULK_DIRECTIONS", block):
            result = partitioned_aggregate_skyline(
                dataset, gamma=gamma, partitions=partitions
            )
        nl = make_algorithm("NL", gamma, prune_policy="safe").compute(dataset)
        assert result.keys == nl.keys

    def test_pairs_examined_are_the_region_b_pairs(self):
        # Of "b" over "a", only (3, 3) against (1, 1) is left open by the
        # Figure-9 corners and regions: every other pair of the two
        # candidates, and of "c" against them, is decided without a count.
        dataset = GroupedDataset(
            {
                "a": [[1.0, 1.0], [4.0, 2.0]],
                "b": [[3.0, 3.0], [0.0, 5.0]],
                "c": [[0.0, 0.0]],
            }
        )
        result = partitioned_aggregate_skyline(dataset, partitions=1)
        assert result.keys == ["a", "b"]
        assert result.stats.record_pairs_examined == 1
