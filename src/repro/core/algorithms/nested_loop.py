"""Nested Loop aggregate skyline (Algorithm 2 of the paper).

The exhaustive baseline: every unordered pair of groups is compared once (in
both directions) and the dominated side is marked.  With the stopping rule
enabled (the paper's evaluated "NL with stop condition") individual pair
comparisons terminate early, but no group comparison is ever skipped — the
result is therefore always the exact Definition-2 aggregate skyline and
serves as the correctness oracle for the optimised algorithms.

NL reads no state between compares, so it runs on the batch kernel
(:meth:`~repro.core.comparator.GroupComparator.compare_batch`): the pairs,
in their linear order, go through it :data:`PAIRS_PER_BATCH` at a time,
with the same verdicts and counters as one ``compare()`` per pair.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...parallel.partition import pair_arrays, pair_count
from ..groups import Group
from .base import AggregateSkylineAlgorithm, GroupState

__all__ = ["NestedLoopAlgorithm", "PAIRS_PER_BATCH"]

#: Group pairs one batch-kernel call decides.
PAIRS_PER_BATCH = 1 << 11


class NestedLoopAlgorithm(AggregateSkylineAlgorithm):
    """Algorithm 2: compare all pairs of groups, both directions."""

    name = "NL"

    def _run(self, groups: List[Group], state: GroupState) -> None:
        n = len(groups)
        total = pair_count(n)
        if not total:
            return
        columns = self._batch_columns(groups)
        dominated = np.zeros(n, dtype=bool)
        strong = np.zeros(n, dtype=bool)
        for start in range(0, total, PAIRS_PER_BATCH):
            i, j = pair_arrays(start, min(total, start + PAIRS_PER_BATCH), n)
            d12, d12_strong, d21, d21_strong = self.comparator.compare_batch(
                columns, i, j
            )
            dominated[j[d12]] = True
            strong[j[d12_strong]] = True
            dominated[i[d21]] = True
            strong[i[d21_strong]] = True
        state.mark_masks(dominated, strong)
