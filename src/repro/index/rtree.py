"""An in-memory R-tree with quadratic split and STR bulk loading.

This is the spatial index used by the paper's IN/LO algorithms (Algorithm 5):
group MBB max-corners are inserted as points and, for each candidate group,
a *window query* retrieves the groups whose best corner falls inside the
region that could dominate the candidate's worst corner.

The implementation is a classical Guttman R-tree: grow by insertion with
quadratic split, or build balanced from scratch with Sort-Tile-Recursive
(STR) packing.  Payloads are arbitrary Python objects.  :class:`FlatRTree`
freezes a packed tree into entry arrays kept in the tree's visit order,
so a window query is one vectorised mask instead of a node walk.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .mbr import Rect

__all__ = ["RTree", "RTreeEntry", "FlatRTree"]


class RTreeEntry:
    """Leaf entry: a rectangle (or point) plus its payload."""

    __slots__ = ("rect", "item")

    def __init__(self, rect: Rect, item: Any):
        self.rect = rect
        self.item = item

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RTreeEntry({self.rect!r}, {self.item!r})"


class _Node:
    __slots__ = ("leaf", "entries", "children", "rect")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.entries: List[RTreeEntry] = []
        self.children: List["_Node"] = []
        self.rect: Optional[Rect] = None

    def members(self) -> List:
        return self.entries if self.leaf else self.children

    def recompute_rect(self) -> None:
        members = self.members()
        if not members:
            self.rect = None
            return
        self.rect = Rect.union_of(m.rect for m in members)

    def is_overflowing(self, max_entries: int) -> bool:
        return len(self.members()) > max_entries


class RTree:
    """R-tree over rectangles with window (range) queries.

    Parameters
    ----------
    max_entries:
        Node fan-out ``M``; nodes split when they exceed it.
    min_entries:
        Minimum fill ``m`` after a split (default ``ceil(M * 0.4)``).
    """

    def __init__(self, max_entries: int = 16, min_entries: Optional[int] = None):
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else max(1, math.ceil(max_entries * 0.4))
        )
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValueError("min_entries must be in [1, max_entries // 2]")
        self._root = _Node(leaf=True)
        self._size = 0
        # lightweight observability counters (read by the IN/LO algorithms
        # and flushed into the metrics registry after a run)
        self.window_queries = 0
        self.candidates_returned = 0
        self.nodes_visited = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def insert(self, rect: Rect, item: Any) -> None:
        """Insert one payload with its bounding rectangle."""
        entry = RTreeEntry(rect, item)
        split = self._insert_into(self._root, entry)
        if split is not None:
            # Root split: grow the tree by one level.
            old_root = self._root
            new_root = _Node(leaf=False)
            new_root.children = [old_root, split]
            new_root.recompute_rect()
            self._root = new_root
        self._size += 1

    def insert_point(self, coordinates: Sequence[float], item: Any) -> None:
        self.insert(Rect.point(coordinates), item)

    @classmethod
    def bulk_load(
        cls,
        entries: Iterable[Tuple[Rect, Any]],
        max_entries: int = 16,
        min_entries: Optional[int] = None,
    ) -> "RTree":
        """Build a packed tree with Sort-Tile-Recursive (STR).

        Produces a balanced tree with near-full nodes; much better query
        performance than repeated insertion for static data, which is the
        aggregate-skyline use case (all groups are known up front).
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries)
        leaf_entries = [RTreeEntry(rect, item) for rect, item in entries]
        tree._size = len(leaf_entries)
        if not leaf_entries:
            return tree

        nodes = tree._str_pack_leaves(leaf_entries)
        while len(nodes) > 1:
            nodes = tree._str_pack_internal(nodes)
        tree._root = nodes[0]
        return tree

    def _str_pack_leaves(self, entries: List[RTreeEntry]) -> List[_Node]:
        groups = _str_tile(
            entries, [e.rect.center for e in entries], self.max_entries
        )
        nodes = []
        for group in groups:
            node = _Node(leaf=True)
            node.entries = group
            node.recompute_rect()
            nodes.append(node)
        return nodes

    def _str_pack_internal(self, children: List[_Node]) -> List[_Node]:
        groups = _str_tile(
            children, [c.rect.center for c in children], self.max_entries
        )
        nodes = []
        for group in groups:
            node = _Node(leaf=False)
            node.children = group
            node.recompute_rect()
            nodes.append(node)
        return nodes

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def search_window(self, low: Sequence[float], high: Sequence[float]) -> List[Any]:
        """Payloads whose rectangle intersects the window ``[low, high]``.

        ``±inf`` bounds are allowed, enabling the dominance windows of
        Algorithm 5 (``[g.min, +inf)`` in every dimension).
        """
        window = Rect(low, high)
        results: List[Any] = []
        self.window_queries += 1
        if self._root.rect is None:
            return results
        visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            visited += 1
            if node.rect is None or not window.intersects(node.rect):
                continue
            if node.leaf:
                for entry in node.entries:
                    if window.intersects(entry.rect):
                        results.append(entry.item)
            else:
                for child in node.children:
                    if child.rect is not None and window.intersects(child.rect):
                        stack.append(child)
        self.nodes_visited += visited
        self.candidates_returned += len(results)
        return results

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        levels = 1
        node = self._root
        while not node.leaf:
            node = node.children[0]
            levels += 1
        return levels

    def pack(self) -> "FlatRTree":
        """Freeze this tree into a :class:`FlatRTree` (read-only arrays)."""
        return FlatRTree.from_tree(self)

    # ------------------------------------------------------------------
    # insertion internals
    # ------------------------------------------------------------------

    def _insert_into(self, node: _Node, entry: RTreeEntry) -> Optional[_Node]:
        """Recursive insert; returns a sibling node if ``node`` split."""
        if node.leaf:
            node.entries.append(entry)
        else:
            child = self._choose_child(node, entry.rect)
            split = self._insert_into(child, entry)
            if split is not None:
                node.children.append(split)
        node.recompute_rect()
        if node.is_overflowing(self.max_entries):
            return self._split(node)
        return None

    @staticmethod
    def _choose_child(node: _Node, rect: Rect) -> _Node:
        """Guttman choose-leaf: least enlargement, ties by smallest area."""
        best = None
        best_key = None
        for child in node.children:
            assert child.rect is not None
            key = (child.rect.enlargement(rect), child.rect.area())
            if best_key is None or key < best_key:
                best = child
                best_key = key
        assert best is not None
        return best

    def _split(self, node: _Node) -> _Node:
        """Quadratic split; mutates ``node`` and returns its new sibling."""
        members = node.members()
        rects = [m.rect for m in members]

        seed_a, seed_b = _pick_seeds(rects)
        group_a = [members[seed_a]]
        group_b = [members[seed_b]]
        rect_a = rects[seed_a]
        rect_b = rects[seed_b]
        remaining = [
            member
            for position, member in enumerate(members)
            if position not in (seed_a, seed_b)
        ]

        while remaining:
            # Force assignment when one group must absorb all the rest to
            # reach minimum fill.
            need = self.min_entries
            if len(group_a) + len(remaining) == need:
                group_a.extend(remaining)
                rect_a = Rect.union_of([rect_a] + [m.rect for m in remaining])
                remaining = []
                break
            if len(group_b) + len(remaining) == need:
                group_b.extend(remaining)
                rect_b = Rect.union_of([rect_b] + [m.rect for m in remaining])
                remaining = []
                break
            member = _pick_next(remaining, rect_a, rect_b)
            remaining.remove(member)
            grow_a = rect_a.enlargement(member.rect)
            grow_b = rect_b.enlargement(member.rect)
            if (grow_a, rect_a.area(), len(group_a)) <= (
                grow_b, rect_b.area(), len(group_b)
            ):
                group_a.append(member)
                rect_a = rect_a.union(member.rect)
            else:
                group_b.append(member)
                rect_b = rect_b.union(member.rect)

        sibling = _Node(leaf=node.leaf)
        if node.leaf:
            node.entries = group_a
            sibling.entries = group_b
        else:
            node.children = group_a
            sibling.children = group_b
        node.recompute_rect()
        sibling.recompute_rect()
        return sibling


def _pick_seeds(rects: List[Rect]) -> Tuple[int, int]:
    """Quadratic seed pick: the pair wasting the most area together."""
    best_pair = (0, 1)
    best_waste = -math.inf
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            waste = rects[i].union(rects[j]).area() - rects[i].area() - rects[j].area()
            if waste > best_waste:
                best_waste = waste
                best_pair = (i, j)
    return best_pair


def _pick_next(remaining: List, rect_a: Rect, rect_b: Rect):
    """Entry with the strongest preference for one group."""
    best = remaining[0]
    best_diff = -1.0
    for member in remaining:
        diff = abs(rect_a.enlargement(member.rect) - rect_b.enlargement(member.rect))
        if diff > best_diff:
            best_diff = diff
            best = member
    return best


def _str_tile(items: List, centers: List[np.ndarray], capacity: int) -> List[List]:
    """Sort-Tile-Recursive partition of ``items`` into runs of ``capacity``.

    Recursively sorts by each dimension and slices into vertical "tiles" so
    sibling nodes end up spatially coherent.
    """
    dimensions = len(centers[0])

    def tile(indices: List[int], dim: int) -> List[List[int]]:
        if len(indices) <= capacity:
            return [indices]
        indices = sorted(indices, key=lambda idx: float(centers[idx][dim]))
        if dim == dimensions - 1:
            return [
                indices[start : start + capacity]
                for start in range(0, len(indices), capacity)
            ]
        leaf_count = math.ceil(len(indices) / capacity)
        slabs = math.ceil(leaf_count ** (1.0 / (dimensions - dim)))
        slab_size = math.ceil(len(indices) / slabs)
        groups: List[List[int]] = []
        for start in range(0, len(indices), slab_size):
            groups.extend(tile(indices[start : start + slab_size], dim + 1))
        return groups

    partitions = tile(list(range(len(items))), 0)
    return [[items[idx] for idx in part] for part in partitions]


class FlatRTree:
    """A read-only packed R-tree whose window query is one array mask.

    Built from a constructed :class:`RTree` (``tree.pack()``) or straight
    from a point matrix (:meth:`bulk_load_points`), the whole index is
    three contiguous ndarrays: ``entry_lows`` and ``entry_highs``
    (``d × n``: row ``k`` holds coordinate ``k`` of every entry, so the
    window mask reduces across whole rows) and ``entry_items`` (the
    ``int64`` payloads; the aggregate skyline stores group positions).
    They ship to pool workers through ``multiprocessing.shared_memory``
    without pickling, and :meth:`from_arrays` rebuilds a queryable index
    from the mapped buffers in O(1) (views, never copies).

    Entry-order contract: the entries are stored in the order the tree's
    depth-first window walk reaches them — from the root, the *last*
    child first (the walk pops a stack its children were pushed onto in
    order), and a leaf's entries in their stored order.  A window prunes
    only subtrees whose bounding box rules out every entry inside, so
    masking all entries at once makes :meth:`search_window` return
    exactly the payloads :meth:`RTree.search_window` returns, in the same
    order.  That order is a pure function of the arrays, so every process
    sees candidates in the same order — the foundation of the parallel
    determinism contract and of the IN/LO work counters.
    """

    __slots__ = (
        "entry_lows",
        "entry_highs",
        "entry_items",
        "window_queries",
        "candidates_returned",
    )

    def __init__(
        self,
        entry_lows: np.ndarray,
        entry_highs: np.ndarray,
        entry_items: np.ndarray,
    ):
        self.entry_lows = entry_lows
        self.entry_highs = entry_highs
        self.entry_items = entry_items
        # same observability counters as RTree, flushed by IN/LO
        self.window_queries = 0
        self.candidates_returned = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tree(cls, tree: RTree) -> "FlatRTree":
        """Pack a built :class:`RTree`; payloads must be integers."""
        root = tree._root
        if root.rect is None:
            return cls(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0, dtype=np.int64))
        entries: List[RTreeEntry] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node.leaf:
                entries.extend(node.entries)
            else:
                stack.extend(node.children)
        items: List[int] = []
        for entry in entries:
            try:
                items.append(operator.index(entry.item))
            except TypeError:
                raise TypeError(
                    "FlatRTree payloads must be integers, got "
                    f"{type(entry.item).__name__}"
                ) from None
        return cls(
            np.array([e.rect.low for e in entries]).T.copy(),
            np.array([e.rect.high for e in entries]).T.copy(),
            np.asarray(items, dtype=np.int64),
        )

    @classmethod
    def bulk_load_points(
        cls,
        points: np.ndarray,
        items: Optional[np.ndarray] = None,
        max_entries: int = 16,
    ) -> "FlatRTree":
        """STR bulk-load a packed tree straight from a point matrix.

        ``points`` is an ``(n × d)`` matrix (one point rectangle per row —
        for the aggregate skyline these are the dataset's ``max_corners``)
        and ``items[i]`` the integer payload of row ``i`` (defaults to the
        row number).  This produces **bit-identical arrays** to::

            RTree.bulk_load(
                (Rect.point(points[i]), items[i]) for i in range(n),
                max_entries=max_entries,
            ).pack()

        but never materialises ``Rect``/node objects per entry, so the
        columnar dataset's corner matrices feed the index directly.  The
        tiling mirrors :func:`_str_tile` operation for operation (same
        stable sorts, same slab arithmetic) and the entry emission mirrors
        :meth:`from_tree` (same depth-first order), keeping the
        window-query candidate *order* — and therefore the IN/LO
        algorithms' counters — unchanged.
        """
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be 2-d (entries x dimensions)")
        count, dims = points.shape
        if items is None:
            payload = np.arange(count, dtype=np.int64)
        else:
            payload = np.asarray(items, dtype=np.int64)
            if payload.shape != (count,):
                raise ValueError("items must be 1-d, one per point")
        if count == 0:
            return cls(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0, dtype=np.int64))

        def tile(indices: List[int], centers: np.ndarray, dim: int) -> List[List[int]]:
            # Mirror of _str_tile: stable sort by centre coordinate,
            # identical slab arithmetic.
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
                groups.extend(
                    tile(indices[start : start + slab_size], centers, dim + 1)
                )
            return groups

        # ---- leaf level: partition the points themselves -------------
        # (a point rect's centre is the point).  levels[k][i] lists the
        # members of node i on level k: entry ids on level 0, node ids of
        # level k-1 above it.
        parts = tile(list(range(count)), points, 0)
        levels: List[List[List[int]]] = [parts]
        lows = np.array([points[part].min(axis=0) for part in parts])
        highs = np.array([points[part].max(axis=0) for part in parts])

        # ---- internal levels until a single root ---------------------
        while len(parts) > 1:
            centers = (lows + highs) / 2.0  # Rect.center, elementwise
            parts = tile(list(range(len(parts))), centers, 0)
            levels.append(parts)
            lows = np.array([lows[part].min(axis=0) for part in parts])
            highs = np.array([highs[part].max(axis=0) for part in parts])

        # ---- depth-first entry order (mirror of from_tree) -----------
        entry_order: List[int] = []
        stack = [(len(levels) - 1, 0)]
        while stack:
            level, node = stack.pop()
            members = levels[level][node]
            if level == 0:
                entry_order.extend(members)
            else:
                stack.extend((level - 1, child) for child in members)

        entry_rows = np.asarray(entry_order, dtype=np.int64)
        # A point's low and high corners coincide: one array serves both.
        entry_points = points[entry_rows].T.copy()
        return cls(entry_points, entry_points, payload[entry_rows])

    # ------------------------------------------------------------------
    # (de)serialisation to plain arrays (for shared-memory shipping)
    # ------------------------------------------------------------------

    _ARRAY_FIELDS = ("entry_lows", "entry_highs", "entry_items")

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
        """Integer payloads intersecting ``[low, high]``, in entry order."""
        self.window_queries += 1
        if not len(self.entry_items):
            return []
        lo = np.asarray(low, dtype=np.float64)[:, None]
        hi = np.asarray(high, dtype=np.float64)[:, None]
        hit = (self.entry_lows <= hi).all(axis=0) & (self.entry_highs >= lo).all(axis=0)
        results = self.entry_items[hit].tolist()
        self.candidates_returned += len(results)
        return results

    def pack(self) -> "FlatRTree":
        """Already flat — returns ``self`` (mirrors :meth:`RTree.pack`)."""
        return self

    def __len__(self) -> int:
        return int(self.entry_items.shape[0])
