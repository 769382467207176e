"""Tests for the skyline cube and dataset diagnostics."""

from unittest import mock

import pytest

from repro.cli import main
from repro.core import artifacts
from repro.core.algorithms import adaptive
from repro.core.cube import skyline_cube
from repro.core.diagnostics import dataset_statistics, suggest_algorithm
from repro.core.groups import GroupedDataset
from repro.data.synthetic import SyntheticSpec, generate_grouped
from repro.relational.operators import grouped_dataset_from_table
from repro.relational.table import Table
from tests.conftest import exact_aggregate_skyline


@pytest.fixture
def sales():
    return Table(
        ["region", "channel", "units", "margin"],
        [
            ("north", "web", 100, 20),
            ("north", "store", 80, 25),
            ("south", "web", 60, 10),
            ("south", "store", 50, 8),
            ("east", "web", 90, 22),
        ],
    )


class TestSkylineCube:
    def test_all_groupings_present(self, sales):
        cube = skyline_cube(sales, ["region", "channel"], ["units", "margin"])
        assert len(cube) == 3
        assert cube.groupings() == [
            ("channel",), ("region",), ("region", "channel"),
        ]
        assert ("region",) in cube
        assert ["region"] in cube  # sequences accepted

    def test_each_level_matches_direct_computation(self, sales):
        cube = skyline_cube(
            sales, ["region", "channel"], ["units", "margin"],
            algorithm="NL", prune_policy="safe",
        )
        for grouping in cube.groupings():
            dataset = grouped_dataset_from_table(
                sales, list(grouping), ["units", "margin"]
            )
            assert cube[grouping].as_set() == exact_aggregate_skyline(
                dataset, 0.5
            ), grouping
            assert cube.group_count(grouping) == len(dataset)

    def test_level_bounds(self, sales):
        only_single = skyline_cube(
            sales, ["region", "channel"], ["units"], max_attributes=1
        )
        assert only_single.groupings() == [("channel",), ("region",)]
        only_pairs = skyline_cube(
            sales, ["region", "channel"], ["units"], min_attributes=2
        )
        assert only_pairs.groupings() == [("region", "channel")]

    def test_summary_table(self, sales):
        cube = skyline_cube(sales, ["region"], ["units", "margin"])
        summary = cube.summary_table()
        assert summary.columns[0] == "grouping"
        assert len(summary) == 1
        row = dict(zip(summary.columns, summary.rows[0]))
        assert row["groups"] == 3

    def test_validation(self, sales):
        with pytest.raises(ValueError):
            skyline_cube(sales, [], ["units"])
        with pytest.raises(KeyError):
            skyline_cube(sales, ["planet"], ["units"])
        with pytest.raises(ValueError):
            skyline_cube(sales, ["region"], ["units"], min_attributes=0)
        with pytest.raises(ValueError):
            skyline_cube(
                sales, ["region"], ["units"],
                min_attributes=2, max_attributes=1,
            )

    def test_duplicate_attributes_deduplicated(self, sales):
        cube = skyline_cube(sales, ["region", "region"], ["units"])
        assert cube.groupings() == [("region",)]

    def test_gamma_and_directions_forwarded(self, sales):
        cube = skyline_cube(
            sales, ["region"], ["units"], gamma=1.0, directions=["min"]
        )
        assert cube.gamma == 1.0
        # minimising units: south's records are lowest
        assert "south" in cube[("region",)].as_set()


class TestDiagnostics:
    def test_statistics_fields(self):
        dataset = GroupedDataset(
            {"a": [[1, 1]], "b": [[2, 2], [3, 3], [4, 4]]}
        )
        stats = dataset_statistics(dataset)
        assert stats.groups == 2
        assert stats.records == 4
        assert stats.dimensions == 2
        assert stats.min_group_size == 1
        assert stats.max_group_size == 3
        assert stats.pair_budget == 3  # 1*3 cross pairs
        assert "2 groups" in stats.describe()

    def test_pair_budget_formula(self):
        dataset = GroupedDataset(
            {"a": [[1, 1]] * 2, "b": [[2, 2]] * 3, "c": [[3, 3]] * 4}
        )
        stats = dataset_statistics(dataset)
        # cross pairs: 2*3 + 2*4 + 3*4 = 26
        assert stats.pair_budget == 26

    def test_suggest_small_input(self):
        dataset = GroupedDataset({"a": [[1, 1]], "b": [[2, 2]]})
        assert suggest_algorithm(dataset) == "NL"

    def test_suggest_high_overlap(self):
        dataset = generate_grouped(
            SyntheticSpec(
                n_records=2000,
                avg_group_size=50,
                distribution="anticorrelated",
                group_spread=0.9,
                seed=1,
            )
        )
        assert suggest_algorithm(dataset) == "SI"

    def test_suggest_separated(self):
        dataset = generate_grouped(
            SyntheticSpec(
                n_records=2000,
                avg_group_size=50,
                distribution="anticorrelated",
                group_spread=0.05,
                seed=1,
            )
        )
        assert suggest_algorithm(dataset) == "LO"

    def test_size_skew(self):
        dataset = generate_grouped(
            SyntheticSpec(
                n_records=1000,
                avg_group_size=20,
                size_distribution="zipf",
                zipf_exponent=1.2,
                seed=0,
            )
        )
        stats = dataset_statistics(dataset)
        assert stats.size_skew > 3


class TestDiagnosticsGuards:
    """Input validation and metrics publishing of dataset_statistics."""

    def test_zero_group_dataset_rejected(self):
        class _Hollow:
            dimensions = 2
            groups = []

            def __iter__(self):
                return iter(self.groups)

            def __len__(self):
                return 0

        with pytest.raises(ValueError, match="at least one group"):
            dataset_statistics(_Hollow())

    def test_empty_group_rejected_with_key_in_message(self):
        from types import SimpleNamespace

        class _WithEmpty:
            dimensions = 2

            def __init__(self):
                self.groups = [
                    SimpleNamespace(key="full", size=3),
                    SimpleNamespace(key="hollow", size=0),
                ]

            def __iter__(self):
                return iter(self.groups)

            def __len__(self):
                return len(self.groups)

        with pytest.raises(ValueError, match="hollow"):
            dataset_statistics(_WithEmpty())

    def test_pair_budget_gauge_published(self):
        from repro.obs.metrics import use_registry

        dataset = GroupedDataset(
            {"a": [[1, 1]] * 2, "b": [[2, 2]] * 3}
        )
        with use_registry() as registry:
            stats = dataset_statistics(dataset)
            gauge = registry.get("skyline_dataset_pair_budget")
            assert gauge is not None
            assert gauge.value() == stats.pair_budget == 6


def test_one_overlap_probe_per_call_with_the_cache_off(tmp_path, capsys):
    csv_path = tmp_path / "groups.csv"
    assert main(
        ["generate", "--records", "200", "--dims", "2", "--group-size", "4",
         "--seed", "7", "--out", str(csv_path)]
    ) == 0
    dataset = generate_grouped(
        SyntheticSpec(n_records=200, avg_group_size=4, dimensions=2, seed=7)
    )
    probes = []
    real = adaptive.estimate_overlap

    def counting(*args, **kwargs):
        probes.append(args)
        return real(*args, **kwargs)

    enabled = artifacts.cache_enabled()
    artifacts.configure(False)
    try:
        with mock.patch.object(adaptive, "estimate_overlap", counting):
            suggest_algorithm(dataset)
            assert len(probes) == 1
            dataset_statistics(dataset)
            assert len(probes) == 2
            assert main(
                ["stats", "--csv", str(csv_path), "--group-by", "group",
                 "--of", "a0:max,a1:max"]
            ) == 0
            assert len(probes) == 3
    finally:
        artifacts.configure(enabled)
    out = capsys.readouterr().out
    assert "pair budget" in out and "suggested algorithm" in out
