"""Guided chunk sizes for skewed workloads.

Cutting the pair space into four near-equal contiguous spans per worker
(:func:`repro.parallel.partition.chunk_ranges`, the ``static``
scheduler) is fine when every pair costs the same, but
aggregate-skyline work is anything but uniform: under a Zipfian
group-size distribution one pair involving the head group can cost
orders of magnitude more record-pair checks than a tail-tail pair, so a
near-equal *pair-count* split is a wildly unequal *work* split and the
pool convoy-waits on one straggler.

The ``stealing`` scheduler cuts the index space with :func:`guided_spans`
instead: chunks of *decreasing* size, large early (low scheduling
overhead while everyone is busy) and small late (fine-grained slack to
balance the tail).  The pool's backlog dispatch does the rest: it hands
the chunks out in order to whichever slot frees up, so the small tail
chunks fill the idle time of the slots that finish first.  ``PAR``'s
tail chunks are 1/64 of a worker's share of the pairs, IN/LO's 1/16 of
its share of the candidates.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["guided_spans"]


def guided_spans(
    total: int,
    workers: int,
    min_chunk: Optional[int] = None,
    factor: int = 2,
) -> List[Tuple[int, int]]:
    """Guided self-scheduling spans over ``[0, total)``.

    Chunk ``k`` covers ``remaining / (factor * workers)`` indices (never
    below ``min_chunk``, by default 1/64 of a worker's share), so sizes
    decay geometrically: the first chunks are big, the last are
    ``min_chunk``-sized crumbs that fill stragglers' idle tails.
    """

    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if min_chunk is None:
        min_chunk = max(1, total // (workers * 64))
    if min_chunk < 1:
        raise ValueError(f"min_chunk must be >= 1, got {min_chunk}")
    spans: List[Tuple[int, int]] = []
    start = 0
    while start < total:
        remaining = total - start
        size = max(min_chunk, remaining // (factor * workers))
        size = min(size, remaining)
        spans.append((start, start + size))
        start += size
    return spans
