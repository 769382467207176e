"""Moderate-scale stress tests (slow-marked): paper-sized code paths.

These run each main code path at sizes where the vectorised kernels, the
R-tree and the fast 2-d counting path genuinely engage, and cross-check
results between independent implementations.
"""

import numpy as np
import pytest

from repro.core.algorithms import make_algorithm
from repro.core.anytime import AnytimeAggregateSkyline
from repro.core.partitioned import partitioned_aggregate_skyline
from repro.core.ranking import compute_gamma_profile
from repro.data.nba import STAT_COLUMNS, nba_table
from repro.data.synthetic import SyntheticSpec, generate_grouped
from repro.relational.operators import grouped_dataset_from_table

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def big_anticorrelated():
    return generate_grouped(
        SyntheticSpec(
            n_records=4_000,
            avg_group_size=80,
            dimensions=4,
            distribution="anticorrelated",
            seed=123,
        )
    )


def test_all_algorithms_agree_at_scale(big_anticorrelated):
    reference = make_algorithm("NL", 0.5, prune_policy="safe").compute(
        big_anticorrelated
    )
    for name in ("TR", "SI", "IN", "LO", "AD"):
        result = make_algorithm(name, 0.5, prune_policy="safe").compute(
            big_anticorrelated
        )
        assert result.as_set() == reference.as_set(), name


def test_fast_2d_path_consistent_at_scale():
    """Groups big enough that every comparison uses the Fenwick kernel."""
    dataset = generate_grouped(
        SyntheticSpec(
            n_records=3_000,
            avg_group_size=300,
            dimensions=2,
            distribution="anticorrelated",
            seed=7,
        )
    )
    fast = make_algorithm("NL", 0.5, use_stopping_rule=False).compute(dataset)
    # Route around the fast path by comparing three dimensions padded...
    # simpler: exact profile (uses probes, partially generic kernel).
    profile = compute_gamma_profile(dataset)
    assert set(profile.skyline_at(0.5)) == fast.as_set()


def test_nba_full_scale_team_grouping():
    table = nba_table(seed=7, target_rows=15_000)
    assert len(table) == 15_000
    dataset = grouped_dataset_from_table(
        table, ["team"], list(STAT_COLUMNS[:4])
    )
    lo = make_algorithm("LO", 0.5).compute(dataset)
    si = make_algorithm("SI", 0.5, prune_policy="safe").compute(dataset)
    nl = make_algorithm("NL", 0.5).compute(dataset)
    assert lo.as_set() == nl.as_set()
    assert si.as_set() == nl.as_set()


def test_extension_paths_agree_at_scale(big_anticorrelated):
    reference = make_algorithm("LO", 0.5).compute(big_anticorrelated)
    partitioned = partitioned_aggregate_skyline(
        big_anticorrelated, partitions=5
    )
    assert partitioned.as_set() == reference.as_set()
    anytime = AnytimeAggregateSkyline(big_anticorrelated, 0.5)
    anytime.run(pair_budget_per_step=200_000)
    assert set(anytime.confirmed()) == reference.as_set()


def test_gamma_sweep_monotone_at_scale(big_anticorrelated):
    sizes = []
    for gamma in (0.5, 0.7, 0.9, 1.0):
        result = make_algorithm("LO", gamma).compute(big_anticorrelated)
        sizes.append(len(result))
    assert sizes == sorted(sizes)


def test_rtree_bulk_load_large():
    from repro.index.rtree import FlatRTree

    rng = np.random.default_rng(0)
    points = rng.uniform(size=(5_000, 3))
    tree = FlatRTree.bulk_load_points(points, max_entries=32)
    assert len(tree) == 5_000
    found = tree.search_window([0.25, 0.25, 0.25], [0.5, 0.5, 0.5])
    expected = {
        i
        for i, p in enumerate(points)
        if np.all(p >= 0.25) and np.all(p <= 0.5)
    }
    assert set(found) == expected
