"""Index + bounding-box aggregate skyline ("LO" in the paper's evaluation).

The same window-query driver as Algorithm 5, with the Section-3.3 internal
optimisation switched on: every group-vs-group comparison first consults the
MBB corners (Figure 9) — total domination is decided with zero record
comparisons, and otherwise records pre-classified by the corners (regions A
and C) are counted in bulk so only "region B" pairs reach the nested loop.
"""

from __future__ import annotations

from typing import Optional

from ..execution import ExecutionConfig
from ..gamma import GammaLike
from .indexed import IndexedAlgorithm

__all__ = ["IndexedBBoxAlgorithm"]


class IndexedBBoxAlgorithm(IndexedAlgorithm):
    """Algorithm 5 plus approximation by bounding boxes."""

    name = "LO"

    def __init__(
        self,
        gamma: GammaLike = 0.5,
        use_stopping_rule: bool = True,
        prune_policy: str = "paper",
        block_size: int = 1024,
        sort_key: str = "size_corner",
        execution: Optional[ExecutionConfig] = None,
    ):
        super().__init__(
            gamma,
            use_stopping_rule=use_stopping_rule,
            use_bbox=True,
            prune_policy=prune_policy,
            block_size=block_size,
            sort_key=sort_key,
            execution=execution,
        )
