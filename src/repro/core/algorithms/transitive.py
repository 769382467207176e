"""Transitive aggregate skyline (Algorithm 3 of the paper).

Identical pair enumeration to the nested loop, but exploits weak
transitivity (Proposition 5): groups dominated at the boosted level γ̄
("strongly dominated") are skipped, because every group they γ̄-dominate is
guaranteed to be γ-dominated by their own dominator, which is still active.

Under ``prune_policy="safe"`` no candidate is skipped outright; instead a
group whose verdict is sealed only participates in the directions that can
still change someone's verdict (see base module docstring).

The loop runs on the batch kernel: each candidate's row is decided ahead
in doubling prefixes and replayed pair by pair
(:meth:`~repro.core.algorithms.base.AggregateSkylineAlgorithm._run_rows`).
"""

from __future__ import annotations

from typing import List

from ..groups import Group
from .base import AggregateSkylineAlgorithm, GroupState

__all__ = ["TransitiveAlgorithm"]


class TransitiveAlgorithm(AggregateSkylineAlgorithm):
    """Algorithm 3: nested loop plus γ̄-based skipping."""

    name = "TR"

    def _run(self, groups: List[Group], state: GroupState) -> None:
        self._run_rows(groups, state, range(len(groups)))
