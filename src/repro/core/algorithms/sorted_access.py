"""Sorted aggregate skyline (Algorithm 4 of the paper, "SI").

Groups are polled from a priority queue so that likely dominators — and,
for the global optimisation of Section 3.4, *cheap* (small) groups — are
processed first; the inner loop is Algorithm 3's.

Sort keys
---------
``"corner_distance"``
    Algorithm 4's key: the sum of the distances between the origin and the
    min and max corners of the group's MBB, descending (groups far from the
    origin in the *higher is better* space tend to dominate and prune).
``"size_corner"`` (default)
    The evaluation section's key ("sorting on the size and distance from the
    origin of the minimum corner"): group cardinality ascending first — the
    Section-3.4 global optimisation, comparisons involving small groups are
    quadratically cheaper — with corner distance descending as tie-break.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from .. import artifacts
from ..gamma import GammaLike
from ..groups import Group
from .base import AggregateSkylineAlgorithm, GroupState

__all__ = ["SortedAlgorithm", "SORT_KEYS"]


def _corner_distance(group: Group) -> float:
    box = group.bbox
    return float(
        np.linalg.norm(box.min_corner) + np.linalg.norm(box.max_corner)
    )


def _key_corner_distance(group: Group) -> Tuple:
    return (-_corner_distance(group),)


def _key_size_corner(group: Group) -> Tuple:
    return (group.size, -float(np.linalg.norm(group.bbox.min_corner)))


SORT_KEYS: dict = {
    "corner_distance": _key_corner_distance,
    "size_corner": _key_size_corner,
}


class SortedAlgorithm(AggregateSkylineAlgorithm):
    """Algorithm 4: priority-queue access order over Algorithm 3's loop."""

    name = "SI"

    def __init__(
        self,
        gamma: GammaLike = 0.5,
        use_stopping_rule: bool = True,
        use_bbox: bool = False,
        prune_policy: str = "paper",
        block_size: int = 1024,
        sort_key: str = "size_corner",
    ):
        super().__init__(
            gamma,
            use_stopping_rule=use_stopping_rule,
            use_bbox=use_bbox,
            prune_policy=prune_policy,
            block_size=block_size,
        )
        if sort_key not in SORT_KEYS:
            raise ValueError(
                f"sort_key must be one of {sorted(SORT_KEYS)}, got {sort_key!r}"
            )
        self.sort_key: Callable[[Group], Tuple] = SORT_KEYS[sort_key]
        self.sort_key_name = sort_key

    def _run(self, groups: List[Group], state: GroupState) -> None:
        # A static sort is equivalent to draining the paper's priority queue.
        # The order is memoised in the content-keyed derived-artifact cache
        # when the groups come from a columnar dataset (the common case).
        dataset = self._dataset
        if dataset is not None and len(dataset) == len(groups):
            order: List[int] = list(
                artifacts.sort_order(dataset, self.sort_key_name, self.sort_key)
            )
        else:
            order = sorted(
                range(len(groups)), key=lambda i: self.sort_key(groups[i])
            )
        # Each unordered pair is compared once: the polled group meets only
        # the groups still in the queue (Algorithm 3's g1 <= g2 skip,
        # transported to queue order).
        self._run_rows(groups, state, order)
