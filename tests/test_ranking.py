"""Tests for the pruned γ-profile computation (core.ranking)."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import comparator as comparator_module
from repro.core.api import gamma_profile
from repro.core.comparator import RecordColumns, pair_counts
from repro.core.gamma import dominance_probability
from repro.core.groups import Group, GroupedDataset
from repro.core.ranking import ProfileStats, compute_gamma_profile
from repro.data.movies import directors_dataset, figure1_directors_dataset
from tests.conftest import kernel_datasets, random_grouped_dataset


def probe(a, b, bounds_only=False):
    """``(lower, upper)`` bounds on ``p(a > b)`` from the bulk count: the
    Figure-9 bounds with ``bounds_only``, else the exact value twice."""
    columns = RecordColumns.of_groups([a, b])
    known, pending = pair_counts(columns, [0], [1], bounds_only=bounds_only)
    total = a.size * b.size
    upper = known[0] + pending[0] if bounds_only else known[0]
    return Fraction(int(known[0]), total), Fraction(int(upper), total)


class TestDirectionalProbe:
    """One direction's bounds and exact probability, from the bulk count."""

    def test_bounds_tighten_to_exact(self):
        rng = np.random.default_rng(0)
        a = Group("a", rng.uniform(size=(20, 2)))
        b = Group("b", rng.uniform(size=(20, 2)))
        lower, upper = probe(a, b, bounds_only=True)
        exact, also = probe(a, b)
        assert exact == also
        assert lower <= exact <= upper

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(1)
        a = Group("a", rng.integers(0, 5, size=(8, 3)).astype(float))
        b = Group("b", rng.integers(0, 5, size=(9, 3)).astype(float))
        assert probe(a, b)[0] == dominance_probability(a, b)

    def test_disjoint_groups_decided_by_bounds_alone(self):
        top = Group("t", np.array([[10.0, 10.0], [11.0, 11.0]]))
        bottom = Group("b", np.array([[1.0, 1.0], [2.0, 2.0]]))
        lower, upper = probe(top, bottom, bounds_only=True)
        assert lower == upper == 1
        lower, upper = probe(bottom, top, bounds_only=True)
        assert lower == upper == 0


class TestComputeGammaProfile:
    def test_matches_brute_force_on_movies(self):
        dataset = directors_dataset()
        fast = compute_gamma_profile(dataset)
        slow = gamma_profile(dataset)
        for key in dataset.keys():
            assert fast.degree(key) == slow.degree(key)
            assert fast.minimal_gamma(key) == slow.minimal_gamma(key)

    def test_matches_brute_force_on_figure1(self):
        dataset = figure1_directors_dataset()
        fast = compute_gamma_profile(dataset)
        slow = gamma_profile(dataset)
        for gamma in (0.5, 0.75, 1.0):
            assert set(fast.skyline_at(gamma)) == set(slow.skyline_at(gamma))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=1_000_000),
    )
    def test_matches_brute_force_randomized(self, n_groups, max_size, d, seed):
        rng = np.random.default_rng(seed)
        dataset = random_grouped_dataset(
            rng, n_groups=n_groups, max_group_size=max_size, dimensions=d
        )
        fast = compute_gamma_profile(dataset)
        slow = gamma_profile(dataset)
        for key in dataset.keys():
            assert fast.degree(key) == slow.degree(key), key
        assert {
            k for k, g in fast.ranked() if g is None
        } == {k for k, g in slow.ranked() if g is None}

    def test_pruning_happens_on_separated_groups(self):
        # A dominance chain: most probes are decided by corners alone.
        groups = {
            f"g{i}": [[float(10 * i), float(10 * i)],
                      [float(10 * i + 1), float(10 * i + 1)]]
            for i in range(8)
        }
        stats = ProfileStats()
        compute_gamma_profile(GroupedDataset(groups), stats=stats)
        assert stats.exact_counts < stats.pairs_considered
        assert stats.exact_counts == 0  # chain: everything corner-decided

    def test_bound_skips_counted(self, rng):
        dataset = random_grouped_dataset(rng, n_groups=10, max_group_size=6)
        stats = ProfileStats()
        compute_gamma_profile(dataset, stats=stats)
        assert stats.pairs_considered == 10 * 9

    def test_accepts_mapping_and_directions(self):
        profile = compute_gamma_profile(
            {"cheap": [[1.0]], "pricey": [[9.0]]}, directions=["min"]
        )
        assert profile.minimal_gamma("pricey") is None

    @settings(max_examples=60, deadline=None)
    @given(
        kernel_datasets(),
        st.sampled_from([1, 7, comparator_module.BULK_DIRECTIONS]),
    )
    def test_matches_brute_force_on_adversarial_shapes(self, dataset, block):
        with mock.patch.object(comparator_module, "BULK_DIRECTIONS", block):
            fast = compute_gamma_profile(dataset)
        slow = gamma_profile(dataset)
        for key in dataset.keys():
            assert fast.degree(key) == slow.degree(key), key
            assert fast.minimal_gamma(key) == slow.minimal_gamma(key), key

    def test_tied_and_total_dominators(self):
        # "half" beats one of the target's two records (1/2), "quarter" two
        # of four pairs (2/4): a tie as fractions.  "top" beats every pair
        # of "low" (p = 1), so "low" never enters the skyline.
        dataset = GroupedDataset(
            {
                "target": [[1.0, 1.0], [5.0, 5.0]],
                "half": [[2.0, 2.0]],
                "quarter": [[2.0, 2.0], [0.0, 0.0]],
                "top": [[0.6, 0.6]],
                "low": [[0.5, 0.5]],
            }
        )
        profile = compute_gamma_profile(dataset)
        assert profile.degree("target") == Fraction(1, 2)
        assert profile.minimal_gamma("low") is None
        assert profile.degree("low") == 1
        slow = gamma_profile(dataset)
        for key in dataset.keys():
            assert profile.degree(key) == slow.degree(key), key
            assert profile.minimal_gamma(key) == slow.minimal_gamma(key), key
