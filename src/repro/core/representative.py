"""Representative and top-k dominating groups.

Two companions of the aggregate skyline, transplanted from the record-level
literature the paper cites:

* **Top-k dominating groups** (cf. the "k most representative skyline" of
  reference [14]): rank groups by how many *other* groups they γ-dominate
  and return the best k.  Unlike the skyline itself this is a ranking, so
  it stays informative even when (almost) every group is incomparable —
  e.g. the paper's 8-attribute NBA queries, where the skyline contains
  nearly everything.
* **Representative skyline**: choose k *skyline* groups that together
  γ-dominate as many non-skyline groups as possible (greedy max-coverage,
  the standard (1 − 1/e) approximation).

Both decide every ordered pair on the batch kernel's exact integer
thresholds, from its bulk count (:func:`~repro.core.comparator.pair_counts`).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Set, Tuple, Union

from . import artifacts
from .api import _coerce_dataset
from .comparator import _bars, _holds, ordered_pairs, pair_counts
from .dominance import Direction
from .gamma import GammaLike, GammaThresholds
from .groups import GroupedDataset

__all__ = [
    "domination_counts",
    "top_k_dominating_groups",
    "representative_skyline",
]

GroupsLike = Union[GroupedDataset, Mapping[Hashable, Iterable]]


def _dominates_map(
    groups: GroupsLike,
    gamma: GammaLike,
    directions: Union[None, str, Direction, list, tuple],
) -> Dict[Hashable, Set[Hashable]]:
    """``{S: set of groups S γ-dominates}`` over every ordered pair, in
    group order."""
    dataset = _coerce_dataset(groups, directions)
    keys = dataset.keys()
    dominated: Dict[Hashable, Set[Hashable]] = {key: set() for key in keys}
    columns = artifacts.record_columns(dataset)
    threshold = [GammaThresholds(gamma).gamma.as_integer_ratio()]
    for _, x, y in ordered_pairs(len(keys), range(len(keys))):
        count, _ = pair_counts(columns, x, y)
        totals = columns.sizes[x] * columns.sizes[y]
        holds = _holds(count, 0, totals, _bars(totals, threshold)[0])[0]
        for s, r in zip(x[holds].tolist(), y[holds].tolist()):
            dominated[keys[s]].add(keys[r])
    return dominated


def domination_counts(
    groups: GroupsLike,
    gamma: GammaLike = 0.5,
    directions: Union[None, str, Direction, list, tuple] = None,
) -> Dict[Hashable, int]:
    """How many other groups each group γ-dominates."""
    return {
        key: len(victims)
        for key, victims in _dominates_map(groups, gamma, directions).items()
    }


def top_k_dominating_groups(
    groups: GroupsLike,
    k: int,
    gamma: GammaLike = 0.5,
    directions: Union[None, str, Direction, list, tuple] = None,
) -> List[Tuple[Hashable, int]]:
    """The k groups γ-dominating the most other groups.

    Returns ``(key, dominated_count)`` pairs, best first; ties broken by
    input order (stable).
    """
    if k < 1:
        raise ValueError("k must be positive")
    counts = domination_counts(groups, gamma, directions)
    order = sorted(
        counts.items(), key=lambda item: -item[1]
    )
    return order[:k]


def representative_skyline(
    groups: GroupsLike,
    k: int,
    gamma: GammaLike = 0.5,
    directions: Union[None, str, Direction, list, tuple] = None,
) -> List[Hashable]:
    """k skyline groups covering (γ-dominating) the most excluded groups.

    Greedy max-coverage over the skyline members: repeatedly pick the
    skyline group dominating the largest number of not-yet-covered groups.
    If the skyline has at most k members, all of them are returned.
    """
    if k < 1:
        raise ValueError("k must be positive")
    dominates = _dominates_map(groups, gamma, directions)
    dominated_by_someone = set().union(*dominates.values())
    skyline = [key for key in dominates if key not in dominated_by_someone]
    if len(skyline) <= k:
        return skyline

    chosen: List[Hashable] = []
    covered: Set[Hashable] = set()
    remaining = list(skyline)
    while len(chosen) < k and remaining:
        best = max(
            remaining,
            key=lambda key: len(dominates[key] - covered),
        )
        chosen.append(best)
        covered |= dominates[best]
        remaining.remove(best)
    return chosen
