"""Pair-space partitioning for parallel group-pair execution.

The aggregate skyline's outer loop ranges over the *upper triangle* of the
m x m group-comparison matrix (Equation 3 of the paper): the unordered pairs
``(i, j)`` with ``i < j``.  This module gives that triangle a flat,
row-major *linear index* so it can be

* cut into contiguous, near-equal chunks for a worker pool
  (:func:`chunk_ranges` + :func:`pair_arrays`), and
* sampled without replacement for cheap dataset diagnostics
  (:func:`sample_pair_indices`, used by the adaptive dispatcher's overlap
  estimator).

Everything here is pure integer math (plus an optional numpy RNG for
sampling) — no engine imports — so both :mod:`repro.core` and
:mod:`repro.parallel` can depend on it without cycles.

Linear layout (``n = 4``)::

    k:      0      1      2      3      4      5
    pair: (0,1)  (0,2)  (0,3)  (1,2)  (1,3)  (2,3)

``index_of_pair`` and :func:`pair_from_index` are exact inverses for every
``0 <= k < pair_count(n)`` (see ``tests/test_parallel.py``).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "pair_count",
    "index_of_pair",
    "pair_from_index",
    "pair_arrays",
    "chunk_ranges",
    "sample_pair_indices",
]


def pair_count(n: int) -> int:
    """Number of unordered pairs over ``n`` items: ``n * (n - 1) / 2``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return n * (n - 1) // 2


def index_of_pair(i: int, j: int, n: int) -> int:
    """Row-major linear index of the pair ``(i, j)`` with ``i < j < n``."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def pair_from_index(k: int, n: int) -> Tuple[int, int]:
    """Inverse of :func:`index_of_pair` (exact integer arithmetic).

    Solves the row ``i`` from the triangular-number inequality with
    ``math.isqrt`` — no floating point, so it stays exact for huge ``n``.
    """
    total = pair_count(n)
    if not 0 <= k < total:
        raise ValueError(f"pair index {k} out of range for n={n}")
    # Count pairs from the *end*: row i is the unique row with
    # rem(i+1) <= total - 1 - k < rem(i), where rem(i) = C(n - i, 2).
    rest = total - 1 - k
    i = n - 2 - (math.isqrt(8 * rest + 1) - 1) // 2
    j = k - (i * n - i * (i + 1) // 2) + i + 1
    return i, j


def pair_arrays(start: int, stop: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``i`` and ``j`` arrays of the pairs with linear indices
    ``start <= k < stop``, in linear order.

    Decodes both ends exactly and lays out the rows between them, so it
    costs O(rows + pairs) numpy work however large ``n`` is.
    """
    if start >= stop:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    first, _ = pair_from_index(start, n)
    last, _ = pair_from_index(stop - 1, n)
    rows = np.arange(first, last + 1, dtype=np.int64)
    # Linear index of each row's first pair (i, i + 1), clipped to the span.
    row_start = rows * n - rows * (rows + 1) // 2
    row_stop = np.minimum(row_start + (n - 1 - rows), stop)
    lengths = row_stop - np.maximum(row_start, start)
    i = np.repeat(rows, lengths)
    j = np.arange(start, stop, dtype=np.int64) - np.repeat(row_start, lengths) + i + 1
    return i, j


def chunk_ranges(total: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into up to ``chunks`` contiguous, near-equal
    ``(start, stop)`` ranges (never more ranges than items; deterministic)."""
    if chunks < 1:
        raise ValueError("chunks must be positive")
    if total <= 0:
        return []
    chunks = min(chunks, total)
    base, remainder = divmod(total, chunks)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for c in range(chunks):
        size = base + (1 if c < remainder else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def sample_pair_indices(n: int, samples: int, rng) -> Sequence[int]:
    """``samples`` *distinct* linear pair indices drawn with ``rng``.

    Sampling is without replacement (no pair is probed twice — the old
    overlap estimator could waste its budget on duplicates).  Small pair
    spaces are permuted outright; large ones use rejection sampling into a
    set, which is fast while ``samples`` is well below ``pair_count(n)``.
    """
    total = pair_count(n)
    samples = min(samples, total)
    if samples <= 0:
        return []
    if total <= 4 * samples:
        return [int(k) for k in rng.permutation(total)[:samples]]
    chosen: set = set()
    while len(chosen) < samples:
        draw = rng.integers(0, total, size=samples - len(chosen))
        chosen.update(int(k) for k in draw)
    return sorted(chosen)
