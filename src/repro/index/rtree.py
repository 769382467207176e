"""The packed R-tree behind the IN/LO window queries (Algorithm 5).

Group MBB max-corners are indexed as points and, for each candidate group,
a *window query* retrieves the groups whose best corner falls inside the
region that could dominate the candidate's worst corner.

:func:`str_levels` packs a point matrix into a balanced tree of near-full
nodes with Sort-Tile-Recursive (STR) tiling.  :class:`FlatRTree` keeps
that tree's entries as arrays in its depth-first visit order, so a window
query is one vectorised mask instead of a node walk; the record skyline's
branch-and-bound (:func:`repro.core.skyline.skyline_bbs`) walks the node
levels themselves.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["FlatRTree", "STRLevel", "str_levels"]


class STRLevel(NamedTuple):
    """One level of an STR-packed tree.

    ``members[i]`` lists node ``i``'s members: point rows on the leaf
    level, node ids of the level below on every other level.
    ``lows[i]`` / ``highs[i]`` are node ``i``'s bounding box.
    """

    members: List[List[int]]
    lows: np.ndarray
    highs: np.ndarray


def str_levels(points: np.ndarray, max_entries: int = 16) -> List[STRLevel]:
    """STR-pack the rows of a non-empty ``(n × d)`` matrix; leaves first.

    Level 0 partitions the points into leaves of at most ``max_entries``.
    Each level above partitions the node centres of the level below the
    same way, up to the single root node on the last level.  A partition
    stable-sorts by one dimension, cuts the sorted run into
    ``ceil(nodes ** (1 / remaining dimensions))`` slabs and recurses on
    the next dimension, so sibling nodes are spatially coherent.

    The tiling fixes :class:`FlatRTree`'s entry order, hence the IN/LO
    window candidate order and work counters; change it and the golden
    counters move.
    """
    dims = points.shape[1]

    def tile(indices: List[int], centers: np.ndarray, dim: int) -> List[List[int]]:
        if len(indices) <= max_entries:
            return [indices]
        indices = sorted(indices, key=lambda idx: float(centers[idx][dim]))
        if dim == dims - 1:
            return [
                indices[start : start + max_entries]
                for start in range(0, len(indices), max_entries)
            ]
        leaf_count = math.ceil(len(indices) / max_entries)
        slabs = math.ceil(leaf_count ** (1.0 / (dims - dim)))
        slab_size = math.ceil(len(indices) / slabs)
        groups: List[List[int]] = []
        for start in range(0, len(indices), slab_size):
            groups.extend(tile(indices[start : start + slab_size], centers, dim + 1))
        return groups

    # A point's centre is the point itself.
    parts = tile(list(range(len(points))), points, 0)
    lows = np.array([points[part].min(axis=0) for part in parts])
    highs = np.array([points[part].max(axis=0) for part in parts])
    levels = [STRLevel(parts, lows, highs)]
    while len(parts) > 1:
        parts = tile(list(range(len(parts))), (lows + highs) / 2.0, 0)
        lows = np.array([lows[part].min(axis=0) for part in parts])
        highs = np.array([highs[part].max(axis=0) for part in parts])
        levels.append(STRLevel(parts, lows, highs))
    return levels


class FlatRTree:
    """A read-only packed R-tree whose window query is one array mask.

    Built from a point matrix (:meth:`bulk_load_points`), the whole index
    is two contiguous ndarrays: ``entry_points`` (``d × n``: row ``k``
    holds coordinate ``k`` of every entry, so the window mask reduces
    across whole rows) and ``entry_items`` (the ``int64`` payloads; the
    aggregate skyline stores group positions).  They ship to pool workers
    through ``multiprocessing.shared_memory`` without pickling, and
    :meth:`from_arrays` rebuilds a queryable index from the mapped
    buffers in O(1) (views, never copies).

    Entry-order contract: the entries are stored in the order a
    depth-first window walk over the :func:`str_levels` nodes reaches
    them — from the root, the *last* child first (the walk pops a stack
    its children were pushed onto in order), and a leaf's entries in
    their stored order.  A window prunes only subtrees whose bounding box
    rules out every entry inside, so masking all entries at once returns
    exactly the payloads that walk returns, in the same order.  That
    order is a pure function of the arrays, so every process sees
    candidates in the same order — the foundation of the parallel
    determinism contract and of the IN/LO work counters.
    """

    __slots__ = ("entry_points", "entry_items")

    def __init__(self, entry_points: np.ndarray, entry_items: np.ndarray):
        self.entry_points = entry_points
        self.entry_items = entry_items

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load_points(
        cls,
        points: np.ndarray,
        items: Optional[np.ndarray] = None,
        max_entries: int = 16,
    ) -> "FlatRTree":
        """STR bulk-load a packed tree straight from a point matrix.

        ``points`` is an ``(n × d)`` matrix (one point per row — for the
        aggregate skyline these are the dataset's ``max_corners``) and
        ``items[i]`` the integer payload of row ``i`` (defaults to the
        row number).  The nodes come from :func:`str_levels`; only their
        depth-first entry order is kept.  Boolean, float and complex
        ``items`` raise :class:`TypeError` rather than being truncated (an
        empty ``items`` of any dtype is accepted for an empty tree);
        non-numeric ones raise :class:`ValueError` from the integer cast.
        """
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be 2-d (entries x dimensions)")
        count = points.shape[0]
        if items is None:
            payload = np.arange(count, dtype=np.int64)
        else:
            payload = np.asarray(items)
            if payload.size and payload.dtype.kind in "bfc":
                raise TypeError(
                    f"items must be integer payloads, got dtype {payload.dtype}"
                )
            payload = payload.astype(np.int64)
            if payload.shape != (count,):
                raise ValueError("items must be 1-d, one per point")
        if count == 0:
            return cls(np.zeros((0, 0)), np.zeros(0, dtype=np.int64))

        levels = str_levels(points, max_entries)
        entry_order: List[int] = []
        stack = [(len(levels) - 1, 0)]
        while stack:
            level, node = stack.pop()
            members = levels[level].members[node]
            if level == 0:
                entry_order.extend(members)
            else:
                stack.extend((level - 1, child) for child in members)

        entry_rows = np.asarray(entry_order, dtype=np.int64)
        return cls(points[entry_rows].T.copy(), payload[entry_rows])

    # ------------------------------------------------------------------
    # (de)serialisation to plain arrays (for shared-memory shipping)
    # ------------------------------------------------------------------

    _ARRAY_FIELDS = ("entry_points", "entry_items")

    def arrays(self) -> Dict[str, np.ndarray]:
        """The flat representation as named arrays (zero-copy)."""
        return {name: getattr(self, name) for name in self._ARRAY_FIELDS}

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "FlatRTree":
        """Rebuild a queryable index from :meth:`arrays` output (views)."""
        return cls(*(arrays[name] for name in cls._ARRAY_FIELDS))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def search_window(self, low: Sequence[float], high: Sequence[float]) -> List[int]:
        """Integer payloads intersecting ``[low, high]``, in entry order.

        ``±inf`` bounds are allowed, enabling the dominance windows of
        Algorithm 5 (``[g.min, +inf)`` in every dimension).
        """
        if not len(self.entry_items):
            return []
        lo = np.asarray(low, dtype=np.float64)[:, None]
        hi = np.asarray(high, dtype=np.float64)[:, None]
        points = self.entry_points
        hit = (points <= hi).all(axis=0) & (points >= lo).all(axis=0)
        return self.entry_items[hit].tolist()

    def __len__(self) -> int:
        return int(self.entry_items.shape[0])
