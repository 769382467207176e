"""Efficient γ-profile computation (the ranked mode of Section 2.2).

The paper suggests running the operator once at ``γ = 1`` and returning all
candidate groups *sorted by the minimum γ* for which they enter the skyline.
That requires, for every group ``R``, its domination degree
``m(R) = max over S != R of p(S > R)`` — the brute force in
:func:`repro.core.api.gamma_profile` costs a full quadratic pass.

:func:`compute_gamma_profile` gets the same exact answer from the batch
kernel's bulk count of every ordered pair
(:func:`~repro.core.comparator.pair_counts`, which checks only region-B
pairs record by record), and builds a ``Fraction`` only where ratios tie
for a target's maximum as floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Union

import numpy as np

from . import artifacts
from .api import GammaProfile, _coerce_dataset
from .comparator import ordered_pairs, pair_counts
from .dominance import Direction
from .groups import GroupedDataset

__all__ = ["compute_gamma_profile", "ProfileStats"]


class ProfileStats:
    """Work counters of one profile computation (for tests/benchmarks)."""

    __slots__ = ("pairs_considered", "exact_counts")

    def __init__(self) -> None:
        self.pairs_considered = 0
        self.exact_counts = 0


def compute_gamma_profile(
    groups: Union[GroupedDataset, Mapping[Hashable, Iterable]],
    directions: Union[None, str, Direction, list, tuple] = None,
    stats: Union[ProfileStats, None] = None,
) -> GammaProfile:
    """Exact :class:`GammaProfile` from the bulk pair count.

    Returns the same profile as :func:`repro.core.api.gamma_profile`.
    """
    dataset = _coerce_dataset(groups, directions)
    counters = stats if stats is not None else ProfileStats()
    columns = artifacts.record_columns(dataset)
    keys = dataset.keys()
    degrees = {key: Fraction(0) for key in keys}
    strict = set()
    for block, x, y in ordered_pairs(len(keys), range(len(keys))):
        count, pending = pair_counts(columns, x, y)
        counters.pairs_considered += x.shape[0]
        counters.exact_counts += int(np.count_nonzero(pending))
        count = count.reshape(block.shape[0], len(keys) - 1)
        totals = (columns.sizes[x] * columns.sizes[y]).reshape(count.shape)
        # Float division is correctly rounded, hence monotone: the exact
        # maximum is among the fractions that tie with the largest float.
        ratio = count / totals
        top = ratio.max(axis=1, initial=0.0)
        rows, cols = np.nonzero((ratio == top[:, None]) & (count > 0))
        leaders = zip(
            block[rows].tolist(),
            count[rows, cols].tolist(),
            totals[rows, cols].tolist(),
        )
        for target, dominating, total in leaders:
            key = keys[target]
            degrees[key] = max(degrees[key], Fraction(dominating, total))
        strict.update(keys[t] for t in block[(count == totals).any(axis=1)].tolist())
    return GammaProfile(degrees, strict)
