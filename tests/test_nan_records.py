"""NaN records under ``allow_non_finite=True``.

A NaN compares false both ways, so a record holding one dominates nothing
and is dominated by nothing.  Group corners skip NaN cells, and a group
holding such a record never takes part in a Figure-9 "every pair"
conclusion (total domination, regions A and C), so every algorithm, with
bounding boxes or without, returns the Definition-2 skyline.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro import aggregate_skyline
from repro.core.api import gamma_profile
from repro.core.execution import ExecutionConfig
from repro.core.groups import BoundingBox, GroupedDataset
from repro.core.ranking import compute_gamma_profile
from repro.engine import SkylineEngine
from tests.conftest import exact_aggregate_skyline

NAN = np.nan

#: p(a > b) = 2/3: a's NaN record beats nothing, its other two beat b.
REPRODUCTION = {
    "a": [[NAN, 5.0], [10.0, 10.0], [11.0, 11.0]],
    "b": [[1.0, 1.0]],
    "c": [[0.5, 20.0]],
}

SERIAL = [
    ("NL", {}),
    ("NL", {"use_bbox": True}),
    ("TR", {}),
    ("TR", {"use_bbox": True}),
    ("SI", {}),
    ("SI", {"use_bbox": True}),
    ("IN", {}),
    ("LO", {}),
    ("PAR", {}),
    ("auto", {}),
]
POOLED = ["PAR", "IN", "LO", "auto"]


def nan_datasets(count=40):
    """Small grid datasets with about one cell in seven NaN or ±inf."""
    rng = np.random.default_rng(7)
    for k in range(count):
        dims = int(rng.integers(1, 4))
        groups = {}
        for g in range(int(rng.integers(2, 7))):
            values = rng.integers(0, 4, size=(int(rng.integers(1, 6)), dims))
            values = values.astype(float)
            cells = rng.random(values.shape) < 0.15
            special = rng.choice([NAN, np.inf, -np.inf], size=int(cells.sum()))
            values[cells] = special
            groups[f"g{g}"] = values
        gamma = [0.5, 0.75, 1.0][k % 3]
        yield GroupedDataset(groups, allow_non_finite=True), gamma


def test_corners_skip_nan_and_flag_the_group():
    box = BoundingBox.of(np.array(REPRODUCTION["a"]))
    assert box.min_corner.tolist() == [10.0, 5.0]
    assert box.max_corner.tolist() == [11.0, 11.0]
    assert box.holds_nan
    assert not BoundingBox.of(np.array(REPRODUCTION["b"])).holds_nan
    dataset = GroupedDataset(REPRODUCTION, allow_non_finite=True)
    assert dataset.min_corners[0].tolist() == [10.0, 5.0]
    assert [group.bbox.holds_nan for group in dataset] == [True, False, False]


class TestReproduction:
    @pytest.fixture
    def dataset(self):
        return GroupedDataset(REPRODUCTION, allow_non_finite=True)

    def test_oracle(self, dataset):
        assert exact_aggregate_skyline(dataset, 0.5) == {"a", "c"}

    @pytest.mark.parametrize("algorithm, options", SERIAL)
    def test_serial(self, dataset, algorithm, options):
        result = aggregate_skyline(
            dataset,
            gamma=0.5,
            algorithm=algorithm,
            prune_policy="safe",
            **options,
        )
        assert result.keys == ["a", "c"]

    @pytest.mark.parametrize("algorithm", POOLED)
    def test_two_workers(self, dataset, algorithm):
        result = aggregate_skyline(
            dataset,
            gamma=0.5,
            algorithm=algorithm,
            execution="workers=2",
            prune_policy="safe",
        )
        assert result.keys == ["a", "c"]

    def test_gamma_profile(self, dataset):
        profile = compute_gamma_profile(dataset)
        assert profile.degree("b") == gamma_profile(dataset).degree("b")
        assert profile.degree("b") == Fraction(2, 3)


class TestProjection:
    """A ``dims=`` projection keeps ``allow_non_finite``: the reproduction
    with a third, constant dimension, projected back onto the first two."""

    @pytest.fixture
    def dataset(self):
        return GroupedDataset(
            {
                key: [[*record, 1.0] for record in records]
                for key, records in REPRODUCTION.items()
            },
            allow_non_finite=True,
        )

    def test_project(self, dataset):
        projected = dataset.project((0, 1))
        assert projected.allow_non_finite
        assert np.array_equal(
            projected.matrix, dataset.matrix[:, :2], equal_nan=True
        )

    def test_every_dims_path(self, dataset):
        from repro.plan import explain_dataset

        dims = (0, 1)
        result = aggregate_skyline(dataset, gamma=0.5, algorithm="NL", dims=dims)
        assert result.keys == ["a", "c"]
        assert "project dims [0, 1]" in explain_dataset(dataset, gamma=0.5, dims=dims)
        with SkylineEngine(ExecutionConfig(workers=1)) as engine:
            handle = engine.attach(dataset)
            for data in (handle, dataset):
                result = engine.query(data, gamma=0.5, algorithm="NL", dims=dims)
                assert result.keys == ["a", "c"]
                assert "project dims [0, 1]" in engine.explain(data, gamma=0.5, dims=dims)


class TestRandomDatasets:
    def test_every_algorithm_serially(self):
        for dataset, gamma in nan_datasets():
            expected = exact_aggregate_skyline(dataset, gamma)
            for algorithm, options in SERIAL:
                result = aggregate_skyline(
                    dataset,
                    gamma=gamma,
                    algorithm=algorithm,
                    prune_policy="safe",
                    **options,
                )
                assert result.as_set() == expected, (algorithm, options)

    def test_every_pooled_algorithm_with_two_workers(self):
        with SkylineEngine(ExecutionConfig(workers=2)) as engine:
            for dataset, gamma in nan_datasets():
                expected = exact_aggregate_skyline(dataset, gamma)
                for algorithm in POOLED:
                    result = engine.query(
                        dataset,
                        gamma=gamma,
                        algorithm=algorithm,
                        prune_policy="safe",
                    )
                    assert result.as_set() == expected, algorithm

    def test_gamma_profile(self):
        for dataset, _ in nan_datasets():
            fast = compute_gamma_profile(dataset)
            slow = gamma_profile(dataset)
            for key in dataset.keys():
                assert fast.degree(key) == slow.degree(key), key
                assert fast.minimal_gamma(key) == slow.minimal_gamma(key), key
