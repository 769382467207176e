"""Traditional record-wise skyline algorithms.

The paper builds on the classical skyline operator of Börzsönyi et al.
(reference [5]); this module provides it as a substrate: a naive quadratic
oracle, the block-nested-loop (BNL) algorithm, sort-filter-skyline (SFS,
reference [6], presorting by a monotone score), divide & conquer (D&C,
[5]'s third algorithm) and branch-and-bound skyline over the R-tree (BBS,
Papadias et al. — the paper's reference [17]).  They are used by the query
layer for ``SKYLINE OF`` without ``GROUP BY``, by the theory tests around
Proposition 3 (skyline containment) and by examples.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from .dominance import Direction, normalize_values, parse_directions

__all__ = [
    "skyline",
    "skyline_naive",
    "skyline_bnl",
    "skyline_sfs",
    "skyline_dnc",
    "skyline_bbs",
    "skyline_mask",
]


def _normalise(
    values: np.ndarray,
    directions: Union[None, str, Direction, Sequence],
) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError("skyline input must be 2-d (records x dimensions)")
    parsed = parse_directions(directions, array.shape[1])
    return normalize_values(array, parsed)


def _dense_ranks(data: np.ndarray) -> np.ndarray:
    """Per-dimension dense ranks of ``data`` (int64; no NaN).

    ``>=`` and ``>`` hold between two values exactly when they hold
    between their ranks, so dominance is the same in rank space and a
    dominator's rank sum is strictly larger.  The coordinate sum is not a
    safe presort key: it ties at ``±inf``, overflows to ``inf`` and turns
    NaN at ``inf + -inf``.
    """
    ranks = np.empty(data.shape, dtype=np.int64)
    for k in range(data.shape[1]):
        ranks[:, k] = np.unique(data[:, k], return_inverse=True)[1]
    return ranks


def skyline_mask(
    values: np.ndarray,
    directions: Union[None, str, Direction, Sequence] = None,
    algorithm: str = "sfs",
) -> np.ndarray:
    """Boolean mask of records in the skyline of ``values``.

    ``algorithm`` is one of ``"naive"``, ``"bnl"`` or ``"sfs"``.  All three
    return identical masks; they differ only in work performed.
    """
    data = _normalise(values, directions)
    if algorithm == "naive":
        indices = skyline_naive(data)
    elif algorithm == "bnl":
        indices = skyline_bnl(data)
    elif algorithm == "sfs":
        indices = skyline_sfs(data)
    elif algorithm == "dnc":
        indices = skyline_dnc(data)
    elif algorithm == "bbs":
        indices = skyline_bbs(data)
    else:
        raise ValueError(f"unknown skyline algorithm: {algorithm!r}")
    mask = np.zeros(data.shape[0], dtype=bool)
    mask[indices] = True
    return mask


def skyline(
    values: np.ndarray,
    directions: Union[None, str, Direction, Sequence] = None,
    algorithm: str = "sfs",
) -> np.ndarray:
    """Rows of ``values`` (original orientation) that are not dominated."""
    array = np.asarray(values, dtype=np.float64)
    return array[skyline_mask(array, directions, algorithm)]


def skyline_naive(data: np.ndarray) -> List[int]:
    """Quadratic oracle: keep records dominated by nobody.

    ``data`` must already be in the *higher is better* orientation.
    """
    n = data.shape[0]
    result: List[int] = []
    for i in range(n):
        ge = np.all(data >= data[i], axis=1)
        gt = np.any(data > data[i], axis=1)
        if not np.any(ge & gt):
            result.append(i)
    return result


def skyline_bnl(data: np.ndarray) -> List[int]:
    """Block-nested-loop skyline: maintain a window of incomparable records."""
    window: List[int] = []
    for i in range(data.shape[0]):
        record = data[i]
        dominated = False
        survivors: List[int] = []
        for j in window:
            other = data[j]
            other_ge = np.all(other >= record)
            record_ge = np.all(record >= other)
            if other_ge and not record_ge:
                dominated = True
                survivors = window  # nothing evicted; keep as-is
                break
            if record_ge and not other_ge:
                continue  # evict j, dominated by the new record
            survivors.append(j)
        if dominated:
            continue
        survivors.append(i)
        window = survivors
    return sorted(window)


def skyline_dnc(data: np.ndarray) -> List[int]:
    """Divide & conquer skyline (Börzsönyi et al.'s third algorithm).

    Splits on the median of the first dimension, recurses, then removes
    from the low half everything dominated by the high half's skyline.
    ``data`` must already be in the *higher is better* orientation.
    """

    def dominated_by_any(record: np.ndarray, others: np.ndarray) -> bool:
        if others.shape[0] == 0:
            return False
        ge = np.all(others >= record, axis=1)
        gt = np.any(others > record, axis=1)
        return bool(np.any(ge & gt))

    def recurse(indices: List[int]) -> List[int]:
        if len(indices) <= 3:
            kept = []
            for i in indices:
                others = data[[j for j in indices if j != i]]
                if not dominated_by_any(data[i], others):
                    kept.append(i)
            return kept
        values = data[indices, 0]
        pivot = float(np.median(values))
        high = [i for i in indices if data[i, 0] > pivot]
        low = [i for i in indices if data[i, 0] <= pivot]
        if not high or not low:
            # Degenerate split (many ties on dimension 0): fall back to a
            # window filter over the tied block.
            kept = []
            for i in indices:
                others = data[[j for j in indices if j != i]]
                if not dominated_by_any(data[i], others):
                    kept.append(i)
            return kept
        high_sky = recurse(high)
        low_sky = recurse(low)
        high_matrix = data[high_sky]
        merged = list(high_sky)
        for i in low_sky:
            if not dominated_by_any(data[i], high_matrix):
                merged.append(i)
        return merged

    return sorted(recurse(list(range(data.shape[0]))))


def skyline_bbs(data: np.ndarray) -> List[int]:
    """Branch-and-bound skyline over an STR R-tree (reference [17], maximised).

    Runs in rank space (:func:`_dense_ranks`), where dominance is
    unchanged and coordinate sums are exact integers.  Entries are popped
    in decreasing sum of their MBB's best corner.  When a *point* is
    popped, no unseen point can dominate it (any dominator has a strictly
    larger rank sum and lives in an entry with an at least as large key,
    already popped), so undominated popped points go straight into the
    skyline; node entries whose best corner is already dominated are
    pruned without expansion — BBS touches only the part of the tree that
    can contribute.
    """
    import heapq

    from ..index.rtree import str_levels

    if data.shape[0] == 0:
        return []
    ranks = _dense_ranks(data)
    levels = str_levels(ranks)

    skyline_points: List[np.ndarray] = []
    result: List[int] = []

    def dominated(point: np.ndarray) -> bool:
        for s in skyline_points:
            if np.all(s >= point) and np.any(s > point):
                return True
        return False

    # Heap items: (-key, tie-break counter, level, id); level -1 marks a
    # point (id = row of ``ranks``), otherwise id is a node of that level.
    counter = 0
    heap: List = []

    def push(key_corner: np.ndarray, level: int, item: int) -> None:
        nonlocal counter
        heapq.heappush(heap, (-int(key_corner.sum()), counter, level, item))
        counter += 1

    root = len(levels) - 1
    push(levels[root].highs[0], root, 0)
    while heap:
        _, _, level, item = heapq.heappop(heap)
        if level < 0:
            point = ranks[item]
            if not dominated(point):
                skyline_points.append(point)
                result.append(item)
            continue
        nodes = levels[level]
        if dominated(nodes.highs[item]):
            continue
        if level == 0:
            for member in nodes.members[item]:
                if not dominated(ranks[member]):
                    push(ranks[member], -1, member)
        else:
            below = levels[level - 1]
            for child in nodes.members[item]:
                if not dominated(below.highs[child]):
                    push(below.highs[child], level - 1, child)
    return sorted(result)


def skyline_sfs(data: np.ndarray) -> List[int]:
    """Sort-filter skyline: presort by rank sum, then one filter pass.

    After sorting in decreasing sum of :func:`_dense_ranks` a record can
    only be dominated by records already in the window (a dominator always
    has a strictly larger rank sum), so no eviction is necessary.
    """
    order = np.argsort(-_dense_ranks(data).sum(axis=1), kind="stable")
    window: List[int] = []
    for i in order:
        record = data[i]
        dominated = False
        for j in window:
            other = data[j]
            if np.all(other >= record) and np.any(other > record):
                dominated = True
                break
        if not dominated:
            window.append(int(i))
    return sorted(window)
