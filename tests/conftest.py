"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

from typing import Dict, Hashable, List

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.gamma import GammaThresholds, dominance_holds, dominance_probability
from repro.core.groups import GroupedDataset


def exact_aggregate_skyline(dataset: GroupedDataset, gamma) -> set:
    """Definition-2 oracle: brute force over exact probabilities."""
    thresholds = GammaThresholds(gamma)
    surviving = set()
    groups = dataset.groups
    for target in groups:
        dominated = False
        for other in groups:
            if other.key == target.key:
                continue
            p = dominance_probability(other, target)
            if dominance_holds(p.numerator, p.denominator, thresholds.gamma):
                dominated = True
                break
        if not dominated:
            surviving.add(target.key)
    return surviving


def random_grouped_dataset(
    rng: np.random.Generator,
    n_groups: int = 6,
    max_group_size: int = 6,
    dimensions: int = 2,
    value_levels: int = 5,
) -> GroupedDataset:
    """Small random grouped dataset with many ties (integer grid values).

    The coarse integer grid makes record-dominance ties and exact-γ
    boundary cases common, which is where the algorithms can disagree if
    anything is wrong.
    """
    groups: Dict[Hashable, np.ndarray] = {}
    for g in range(n_groups):
        size = int(rng.integers(1, max_group_size + 1))
        groups[f"g{g}"] = rng.integers(
            0, value_levels, size=(size, dimensions)
        ).astype(float)
    return GroupedDataset(groups)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@st.composite
def kernel_datasets(draw):
    """2-5 groups of 1-40 records on a small integer grid — ties, duplicate
    records, single-record groups and, at 20-40 records, pairs spanning
    many blocks — with NaN and ±inf sprinkled in."""
    d = draw(st.integers(min_value=1, max_value=5))
    top = draw(st.integers(min_value=1, max_value=4))
    record = st.lists(
        st.integers(min_value=0, max_value=top), min_size=d, max_size=d
    )
    values = {}
    for g in range(draw(st.integers(min_value=2, max_value=5))):
        size = draw(st.sampled_from([1, 2, 3, 7, 20, 40]))
        rows = draw(st.lists(record, min_size=size, max_size=size))
        values[f"g{g}"] = np.array(rows, dtype=float)
    special = draw(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(values)),
                st.integers(min_value=0, max_value=39),
                st.integers(min_value=0, max_value=d - 1),
                st.sampled_from([np.nan, np.inf, -np.inf]),
            ),
            max_size=3,
        )
    )
    for key, row, column, value in special:
        values[key][row % len(values[key]), column] = value
    return GroupedDataset(values, allow_non_finite=bool(special))
