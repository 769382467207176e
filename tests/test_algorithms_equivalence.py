"""Cross-algorithm equivalence: the heart of the correctness story.

Under ``prune_policy="safe"`` every algorithm must return exactly the
Definition-2 aggregate skyline (the brute-force oracle in conftest).  Under
the faithful ``"paper"`` policy the result may only ever be a *superset*
(see DESIGN.md); on the randomized workloads here it is almost always equal,
and the superset relation is asserted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import make_algorithm
from repro.data.synthetic import SyntheticSpec, generate_grouped
from tests.conftest import exact_aggregate_skyline, random_grouped_dataset

NATIVE = ("NL", "TR", "SI", "IN", "LO", "AD")
ALL = NATIVE + ("SQL",)

GAMMAS = (0.5, 0.6, 0.75, 0.9, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(GAMMAS),
    st.integers(min_value=0, max_value=1_000_000),
)
def test_safe_mode_equals_oracle(n_groups, max_size, d, gamma, seed):
    rng = np.random.default_rng(seed)
    dataset = random_grouped_dataset(
        rng, n_groups=n_groups, max_group_size=max_size, dimensions=d
    )
    expected = exact_aggregate_skyline(dataset, gamma)
    for name in NATIVE:
        result = make_algorithm(name, gamma, prune_policy="safe").compute(
            dataset
        )
        assert result.as_set() == expected, f"{name} at gamma={gamma}"


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(GAMMAS),
    st.integers(min_value=0, max_value=1_000_000),
)
def test_paper_mode_is_superset_of_oracle(n_groups, max_size, d, gamma, seed):
    rng = np.random.default_rng(seed)
    dataset = random_grouped_dataset(
        rng, n_groups=n_groups, max_group_size=max_size, dimensions=d
    )
    expected = exact_aggregate_skyline(dataset, gamma)
    for name in NATIVE:
        result = make_algorithm(name, gamma, prune_policy="paper").compute(
            dataset
        )
        assert result.as_set() >= expected, f"{name} at gamma={gamma}"


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.sampled_from((0.5, 0.75, 1.0)),
    st.integers(min_value=0, max_value=1_000_000),
)
def test_sql_baseline_equals_oracle(n_groups, max_size, gamma, seed):
    rng = np.random.default_rng(seed)
    dataset = random_grouped_dataset(
        rng, n_groups=n_groups, max_group_size=max_size, dimensions=2
    )
    expected = exact_aggregate_skyline(dataset, gamma)
    result = make_algorithm("SQL", gamma).compute(dataset)
    assert result.as_set() == expected


@pytest.mark.parametrize("distribution", ["independent", "correlated", "anticorrelated"])
@pytest.mark.parametrize("gamma", [0.5, 0.8])
def test_synthetic_workload_consistency(distribution, gamma):
    """Realistic workload: every algorithm and policy, one mid-size input."""
    dataset = generate_grouped(
        SyntheticSpec(
            n_records=600,
            avg_group_size=30,
            dimensions=3,
            distribution=distribution,
            seed=99,
        )
    )
    expected = exact_aggregate_skyline(dataset, gamma)
    for name in NATIVE:
        for policy in ("safe", "paper"):
            result = make_algorithm(
                name, gamma, prune_policy=policy
            ).compute(dataset)
            if policy == "safe":
                assert result.as_set() == expected, (name, policy)
            else:
                assert result.as_set() >= expected, (name, policy)
    sql = make_algorithm("SQL", gamma).compute(dataset)
    assert sql.as_set() == expected


def test_option_toggles_do_not_change_results():
    """Stopping rule, bbox and sort keys are pure optimisations."""
    dataset = generate_grouped(
        SyntheticSpec(
            n_records=400,
            avg_group_size=20,
            dimensions=3,
            distribution="anticorrelated",
            seed=5,
        )
    )
    expected = exact_aggregate_skyline(dataset, 0.5)
    variants = [
        ("NL", {"use_stopping_rule": False}),
        ("NL", {"use_stopping_rule": True, "block_size": 7}),
        ("NL", {"use_bbox": True}),
        ("TR", {"prune_policy": "safe", "use_bbox": True}),
        ("SI", {"prune_policy": "safe", "sort_key": "corner_distance"}),
        ("SI", {"prune_policy": "safe", "sort_key": "size_corner"}),
        ("IN", {"prune_policy": "safe"}),
        ("IN", {"prune_policy": "safe", "sort_key": "corner_distance"}),
        ("LO", {"prune_policy": "safe"}),
        ("LO", {"prune_policy": "safe", "use_stopping_rule": False}),
    ]
    for name, options in variants:
        result = make_algorithm(name, 0.5, **options).compute(dataset)
        assert result.as_set() == expected, (name, options)


def test_zipfian_group_sizes_consistency():
    dataset = generate_grouped(
        SyntheticSpec(
            n_records=500,
            avg_group_size=25,
            dimensions=2,
            distribution="independent",
            size_distribution="zipf",
            seed=17,
        )
    )
    expected = exact_aggregate_skyline(dataset, 0.5)
    for name in NATIVE:
        result = make_algorithm(name, 0.5, prune_policy="safe").compute(
            dataset
        )
        assert result.as_set() == expected, name
