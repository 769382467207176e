"""Speculative window batches for the IN/LO candidate loops.

Algorithm 5 compares each polled candidate with the members of its window
query one at a time.  For groups of a few records every such
:meth:`~repro.core.comparator.GroupComparator.compare` call costs its
setup, not its pair checks.  The IN/LO loops therefore speculate: when a
polled candidate is not yet covered by a batch, they take the next
:data:`BATCH_CANDIDATES` candidates, find each one's first
:data:`BATCH_MEMBERS` batchable window members with one chunked scan of the
flat index, and decide all those pairs' directions at once with the batch
kernel, :meth:`~repro.core.comparator.GroupComparator.decide`.

The loops then run unchanged: every polled candidate makes its own
``search_window`` call and walks its window in order, and a member that is
the candidate's next batched member is settled from the batch
(:meth:`~repro.core.comparator.GroupComparator.settle`) instead of going
through ``compare()``.  A settled outcome, with its counters, is exactly
the ``compare()`` one, so keys and every ``AlgorithmStats`` counter stay
the same; the batch only changes where the work is done.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .comparator import DirectionOutcomes, GroupComparator, RecordColumns, _ranges

__all__ = [
    "BATCH_CANDIDATES",
    "BATCH_MEMBERS",
    "SCAN_ENTRIES",
    "WindowBatch",
]

#: Candidates one batch covers.
BATCH_CANDIDATES = 128
#: Window members batched per candidate: its first ones, which are the
#: compares a candidate is most likely to reach before its loop breaks.
BATCH_MEMBERS = 8
#: Index entries the window scan masks per step.
SCAN_ENTRIES = 128


def _leading_members(
    index,
    columns: RecordColumns,
    candidates: np.ndarray,
    upper: np.ndarray,
    block_size: int,
    blocked: Optional[np.ndarray] = None,
) -> List[List[int]]:
    """The first :data:`BATCH_MEMBERS` batchable members of each window.

    Candidate ``candidates[k]``'s window is ``[its min corner, upper]`` over
    the :class:`~repro.index.rtree.FlatRTree` ``index``, tested exactly as
    its ``search_window`` tests it and walked in the same entry order, so
    the members returned are a subsequence of what that query returns.  A
    member is batchable when it is not the candidate itself, not
    ``blocked`` and fits one kernel block with the candidate
    (``n_c · n_j <= block_size``).  The scan masks :data:`SCAN_ENTRIES`
    entries at a time and stops once every candidate has its members.
    """
    sizes = columns.sizes
    lows = columns.mins[:, candidates]
    caps = block_size // sizes[candidates]
    high = np.asarray(upper, dtype=np.float64)[:, None]
    wanted = np.full(candidates.shape[0], BATCH_MEMBERS)
    members: List[List[int]] = [[] for _ in range(candidates.shape[0])]
    rows = np.arange(candidates.shape[0])
    items = index.entry_items
    for start in range(0, items.shape[0], SCAN_ENTRIES):
        if not rows.size:
            break
        stop = start + SCAN_ENTRIES
        chunk = items[start:stop]
        admit = np.logical_and.reduce(index.entry_lows[:, start:stop] <= high, axis=0)
        if blocked is not None:
            admit &= ~blocked[chunk]
        hit = np.logical_and.reduce(
            index.entry_highs[:, None, start:stop] >= lows[:, rows, None], axis=0
        )
        hit &= admit
        hit &= chunk != candidates[rows, None]
        hit &= sizes[chunk] <= caps[rows, None]
        # Hits come out row by row in entry order; keep each row's first
        # ``wanted`` of them.
        found_rows, found_cols = np.nonzero(hit)
        per_row = np.bincount(found_rows, minlength=rows.shape[0])
        _, rank = _ranges(per_row)
        keep = rank < wanted[rows][found_rows]
        for row, member in zip(
            rows[found_rows[keep]].tolist(), chunk[found_cols[keep]].tolist()
        ):
            members[row].append(member)
        wanted[rows] -= np.minimum(per_row, wanted[rows])
        rows = rows[wanted[rows] > 0]
    return members


class WindowBatch:
    """Decided pairs of the next candidates with their leading window members.

    Takes the first :data:`BATCH_CANDIDATES` of ``candidates`` (an iterable
    in polling order).  ``members[i]`` is ``(window members of candidate i
    in window order, slot of the first one)``; a candidate is *covered*
    when it has an entry, even an empty one.  :meth:`prepared` gives a
    slot's directions for :meth:`~repro.core.comparator.GroupComparator.
    settle`.  ``forward=False`` decides only the member-over-candidate
    direction, which is all the chunk kernel asks.
    """

    __slots__ = ("members", "outcomes", "_forward")

    def __init__(
        self,
        comparator: GroupComparator,
        columns: RecordColumns,
        index,
        candidates: Iterable[int],
        upper: np.ndarray,
        blocked: Optional[np.ndarray] = None,
        forward: bool = True,
    ):
        candidates = np.fromiter(
            islice(candidates, BATCH_CANDIDATES), dtype=np.int64
        )
        found = _leading_members(
            index, columns, candidates, upper, comparator.block_size, blocked
        )
        self.members: Dict[int, Tuple[List[int], int]] = {}
        slot = 0
        for candidate, leading in zip(candidates.tolist(), found):
            self.members[candidate] = (leading, slot)
            slot += len(leading)
        # Member over candidate in slots 0 .. slot - 1, then, if asked,
        # candidate over member in the next ``slot`` slots.
        owners = np.repeat(candidates, [len(leading) for leading in found])
        members = np.array(
            [member for leading in found for member in leading], dtype=np.int64
        )
        self._forward = slot if forward else -1
        if forward:
            x = np.concatenate([members, owners])
            y = np.concatenate([owners, members])
        else:
            x, y = members, owners
        self.outcomes: DirectionOutcomes = comparator.decide(columns, x, y)

    def prepared(self, slot: int) -> Tuple[DirectionOutcomes, int, int]:
        """``(outcomes, forward slot, backward slot)`` of pair ``slot``."""
        forward = self._forward + slot if self._forward >= 0 else -1
        return self.outcomes, forward, slot
