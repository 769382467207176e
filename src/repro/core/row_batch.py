"""Row batches: the Algorithm 3–5 pair loops, decided ahead.

In Algorithms 3–5 a polled candidate walks its *row* — the groups after
it in the access order (TR, SI) or its window query (IN, LO) — and
stops once it is strongly dominated.  For groups of a few records every
:meth:`~repro.core.comparator.GroupComparator.compare` call costs its
setup, not its pair checks, so the loops decide ahead.  When a polled
candidate is not covered yet, a :class:`RowBatch` takes the next
:data:`BATCH_CANDIDATES` candidates and, for each, the next
:data:`BATCH_MEMBERS` members of its row that the pruning policy still
needs, of any group size, and decides all their directions in one
:meth:`~repro.core.comparator.GroupComparator.decide` call.

The loops then run unchanged and settle a batched pair from the batch
(:meth:`~repro.core.comparator.GroupComparator.settle`) instead of
comparing it.  A settled outcome, with its counters, is exactly the
``compare()`` one, and marks only grow: a member the policy skips when
the batch is built is still skipped when the loop reaches it, and a
direction the loop needs was needed when the batch was built.  So keys
and every ``AlgorithmStats`` counter stay the same; the batch only
changes where the work is done.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .comparator import DirectionOutcomes, GroupComparator, RecordColumns

__all__ = [
    "BATCH_CANDIDATES",
    "BATCH_MEMBERS",
    "HELD_MEMBERS",
    "Prepared",
    "RowBatch",
    "backward_only",
    "windows",
]

#: Candidates one batch covers.
BATCH_CANDIDATES = 128
#: Row members batched per candidate: its first ones, which are the
#: compares a candidate is most likely to reach before its loop breaks.
BATCH_MEMBERS = 8
#: Window members one IN/LO batch holds at most, plus its last window, so
#: the memory of held windows stays bounded: at 20,000 groups of ~2
#: records a window holds about 2,566 members.
HELD_MEMBERS = 1 << 16

#: ``(outcomes, forward slot, backward slot)`` of a decided pair, as
#: :meth:`~repro.core.comparator.GroupComparator.settle` takes it.
Prepared = Tuple[DirectionOutcomes, int, int]
#: ``needs(candidate, member)``: the ``(forward, backward)`` directions the
#: pruning policy still needs, or ``None`` when it skips the pair.
Needs = Callable[[int, int], Optional[Tuple[bool, bool]]]


def backward_only(candidate: int, member: int) -> Tuple[bool, bool]:
    """The chunk kernel's policy: only "member over candidate"."""
    return False, True


def windows(
    index, groups, candidates: Iterable[int], upper: np.ndarray
) -> Iterator[Tuple[int, List[int], int]]:
    """The IN/LO rows: each candidate's window query, made as it is taken.

    Yields ``(candidate, window, 0)``; the window is ``[the candidate's
    min corner, upper]`` over the :class:`~repro.index.rtree.FlatRTree`
    ``index``.  Stops before a window once :data:`HELD_MEMBERS` window
    members are held, so the first candidate always gets its window.
    """
    held = 0
    for candidate in candidates:
        if held >= HELD_MEMBERS:
            return
        window = index.search_window(groups[candidate].bbox.min_corner, upper)
        held += len(window)
        yield candidate, window, 0


class RowBatch:
    """The next needed row members of upcoming candidates, decided.

    ``rows`` yields ``(candidate, row, start)``: the candidate's row as a
    sequence and the position its loop continues from.  The batch takes
    the first :data:`BATCH_CANDIDATES` of them and, for each, walks the
    row from ``start`` until it has ``width`` (default
    :data:`BATCH_MEMBERS`) members other than the candidate for which
    ``needs`` asks some direction; only those directions are decided.

    ``rows[candidate]`` is ``(row, prepared, covered)``: ``prepared`` maps
    a batched member to its :data:`Prepared` pair, and the batch walked
    the row up to position ``covered``.
    """

    __slots__ = ("rows",)

    def __init__(
        self,
        comparator: GroupComparator,
        columns: RecordColumns,
        rows: Iterable[Tuple[int, Sequence[int], int]],
        needs: Needs,
        width: Optional[int] = None,
    ):
        if width is None:
            width = BATCH_MEMBERS
        # int64 buffers, which the kernel takes without a copy
        x = array("q")
        y = array("q")
        taken = []
        for candidate, row, start in islice(rows, BATCH_CANDIDATES):
            slots: List[Tuple[int, int, int]] = []
            covered = len(row)
            for position in range(start, covered):
                member = row[position]
                if member == candidate:
                    continue
                need = needs(candidate, member)
                if need is None:
                    continue
                forward = backward = -1
                if need[0]:
                    forward = len(x)
                    x.append(candidate)
                    y.append(member)
                if need[1]:
                    backward = len(x)
                    x.append(member)
                    y.append(candidate)
                slots.append((member, forward, backward))
                if len(slots) == width:
                    covered = position + 1
                    break
            taken.append((candidate, row, slots, covered))
        outcomes = comparator.decide(columns, x, y) if x else None
        self.rows: Dict[int, Tuple[Sequence[int], Dict[int, Prepared], int]] = {
            candidate: (
                row,
                {member: (outcomes, forward, backward) for member, forward, backward in slots},
                covered,
            )
            for candidate, row, slots, covered in taken
        }
