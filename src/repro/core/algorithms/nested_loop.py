"""Nested Loop aggregate skyline (Algorithm 2 of the paper).

The exhaustive baseline: every unordered pair of groups is compared once (in
both directions) and the dominated side is marked.  With the stopping rule
enabled (the paper's evaluated "NL with stop condition") individual pair
comparisons terminate early, but no group comparison is ever skipped — the
result is therefore always the exact Definition-2 aggregate skyline and
serves as the correctness oracle for the optimised algorithms.

NL reads no state between compares, so it is ``PAR``'s two-phase pair
kernel (:func:`repro.parallel.executor.compare_span`) over one span of all
pairs, on the batch kernel, with the same verdicts and counters as one
``compare()`` per pair.
"""

from __future__ import annotations

from typing import List

from ...parallel.executor import compare_span
from ...parallel.partition import pair_count
from ..groups import Group
from .base import AggregateSkylineAlgorithm, GroupState

__all__ = ["NestedLoopAlgorithm"]


class NestedLoopAlgorithm(AggregateSkylineAlgorithm):
    """Algorithm 2: compare all pairs of groups, both directions."""

    name = "NL"

    def _run(self, groups: List[Group], state: GroupState) -> None:
        total = pair_count(len(groups))
        if total:
            dominated, strong = compare_span(
                groups,
                self.comparator,
                (0, total),
                columns=self._batch_columns(groups),
            )
            state.mark(dominated, strong)
