"""Tests for the anytime aggregate skyline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import make_algorithm
from repro.core.anytime import AnytimeAggregateSkyline, GroupStatus
from repro.core.comparator import RecordColumns, pair_counts
from repro.core.groups import GroupedDataset
from repro.data.synthetic import SyntheticSpec, generate_grouped
from tests.conftest import exact_aggregate_skyline, random_grouped_dataset


@pytest.fixture
def chain():
    return GroupedDataset(
        {
            "top": [[9.0, 9.0], [8.0, 8.0]],
            "mid": [[5.0, 5.0], [4.0, 4.0]],
            "low": [[1.0, 1.0], [2.0, 2.0]],
        }
    )


class TestBasics:
    def test_validation(self, chain):
        with pytest.raises(ValueError):
            AnytimeAggregateSkyline(chain, block_size=0)
        anytime = AnytimeAggregateSkyline(chain)
        with pytest.raises(ValueError):
            anytime.step(pair_budget=0)

    def test_chain_decided_by_bboxes_immediately(self, chain):
        anytime = AnytimeAggregateSkyline(chain)
        # Strict MBB domination decides every pair with zero record work.
        assert anytime.done
        assert anytime.confirmed() == ["top"]
        assert set(anytime.excluded()) == {"mid", "low"}
        assert anytime.pairs_examined == 0

    def test_single_group(self):
        dataset = GroupedDataset({"only": [[1.0, 2.0]]})
        anytime = AnytimeAggregateSkyline(dataset)
        assert anytime.done
        assert anytime.confirmed() == ["only"]
        assert anytime.progress == 1.0

    def test_status_by_key(self, chain):
        anytime = AnytimeAggregateSkyline(chain)
        assert anytime.status("top") is GroupStatus.CONFIRMED
        assert anytime.status("low") is GroupStatus.EXCLUDED

    def test_status_of_an_unknown_key_names_it(self, chain):
        anytime = AnytimeAggregateSkyline(chain)
        with pytest.raises(KeyError, match="unknown group 'zz'"):
            anytime.status("zz")


class TestProgressiveRefinement:
    @pytest.fixture
    def hard_dataset(self):
        # Heavily overlapping groups: bbox seeds decide almost nothing.
        return generate_grouped(
            SyntheticSpec(
                n_records=300,
                avg_group_size=30,
                dimensions=3,
                distribution="anticorrelated",
                group_spread=0.8,
                seed=21,
            )
        )

    def test_partial_answers_are_sound_throughout(self, hard_dataset):
        expected = exact_aggregate_skyline(hard_dataset, 0.5)
        anytime = AnytimeAggregateSkyline(
            hard_dataset, 0.5, block_size=16, use_bbox=False
        )
        seen_partial = False
        while not anytime.done:
            confirmed = set(anytime.confirmed())
            candidates = set(anytime.candidates())
            # Sound sandwich: confirmed <= truth <= candidates.
            assert confirmed <= expected
            assert expected <= candidates
            if confirmed != expected or candidates != expected:
                seen_partial = True
            anytime.step(pair_budget=200)
        assert set(anytime.confirmed()) == expected
        assert seen_partial  # the refinement actually passed through
        assert anytime.pairs_examined > 0

    def test_progress_monotone(self, hard_dataset):
        anytime = AnytimeAggregateSkyline(
            hard_dataset, 0.5, block_size=16, use_bbox=False
        )
        previous = anytime.progress
        while not anytime.done:
            anytime.step(pair_budget=500)
            assert anytime.progress >= previous
            previous = anytime.progress

    def test_run_returns_exact_result(self, hard_dataset):
        anytime = AnytimeAggregateSkyline(hard_dataset, 0.5)
        result = anytime.run()
        assert set(result) == exact_aggregate_skyline(hard_dataset, 0.5)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([0.5, 0.75, 1.0]),
        st.integers(min_value=0, max_value=1_000_000),
        st.booleans(),
    )
    def test_matches_oracle_randomized(
        self, n_groups, max_size, gamma, seed, use_bbox
    ):
        rng = np.random.default_rng(seed)
        dataset = random_grouped_dataset(
            rng, n_groups=n_groups, max_group_size=max_size
        )
        anytime = AnytimeAggregateSkyline(
            dataset, gamma, block_size=2, use_bbox=use_bbox
        )
        anytime.run(pair_budget_per_step=7)
        assert set(anytime.confirmed()) == exact_aggregate_skyline(
            dataset, gamma
        )
        assert anytime.candidates() == anytime.confirmed()


class TestProgressIntegration:
    def test_run_emits_progress_events(self, chain):
        from repro.obs.progress import ProgressReporter

        events = []
        engine = AnytimeAggregateSkyline(chain, gamma=1.0)
        reporter = ProgressReporter(events.append, min_interval=0.0)
        keys = engine.run(pair_budget_per_step=1, progress=reporter)
        assert keys  # exact answer still produced
        assert events, "run() should emit at least the final heartbeat"
        final = events[-1]
        assert final.finished
        assert final.done == final.total == 3
        assert final.phase == "anytime-skyline"

    def test_run_accepts_plain_callable(self):
        dataset = generate_grouped(
            SyntheticSpec(n_records=80, avg_group_size=8, dimensions=3,
                          distribution="anticorrelated", seed=5)
        )
        events = []
        engine = AnytimeAggregateSkyline(dataset, gamma=0.75)
        engine.run(pair_budget_per_step=64, progress=events.append)
        assert events and events[-1].finished

    def test_pair_budget_exposed(self, chain):
        engine = AnytimeAggregateSkyline(chain, gamma=1.0)
        assert engine.pair_budget >= 0
        assert engine.pairs_examined <= engine.pair_budget


def tiny_input():
    """The end-to-end benchmark's ``oneshot-tiny`` input 0: 500 groups,
    249,500 ordered pairs."""
    return generate_grouped(
        SyntheticSpec(
            n_records=1000,
            avg_group_size=2,
            dimensions=3,
            distribution="anticorrelated",
            seed=41,
        )
    )


class TestBulkSeeding:
    def test_only_undecided_pairs_get_a_probe(self):
        # Nearly every pair is decided by its bounds; the kernel rounds
        # hold one column per pair left open.
        anytime = AnytimeAggregateSkyline(tiny_input(), 0.5)
        held = anytime._open[:, anytime._first :]
        assert held.shape[1] == 396
        assert anytime.pair_budget == int(held[1].sum()) == 1102

    def test_without_bounding_boxes_every_pair_is_refined(self):
        # No bounds decide anything: all 249,500 pairs go through the
        # kernel rounds, and the answer is NL's.
        dataset = tiny_input()
        anytime = AnytimeAggregateSkyline(dataset, 0.5, use_bbox=False)
        assert anytime.pair_budget == 998_000
        keys = anytime.run()
        assert anytime.pairs_examined == 796_620
        nl = make_algorithm("NL", 0.5).compute(dataset)
        assert sorted(keys) == sorted(nl.keys)

    def test_pair_budget_counts_undecided_pairs_only(self):
        # "a" over "b": 5 of the 6 pairs are known to dominate from the
        # corners and regions, one is pending, and 5/6 > .5 decides it.
        dataset = GroupedDataset(
            {
                "a": [[5.0, 5.0], [4.0, 4.0]],
                "b": [[1.0, 1.0], [2.0, 2.0], [4.5, 0.0]],
            }
        )
        columns = RecordColumns.of_dataset(dataset)
        known, pending = pair_counts(columns, [0, 1], [1, 0], bounds_only=True)
        assert known.tolist() == [5, 0]
        assert pending.tolist() == [1, 0]
        anytime = AnytimeAggregateSkyline(dataset, 0.5)
        assert anytime.done
        assert anytime.confirmed() == ["a"]
        assert anytime.pair_budget == 0
