"""Pairwise comparison of two groups with the paper's internal optimisations.

Section 3.3 of the paper introduces two ways to cut the quadratic cost of a
single group-vs-group comparison:

* **Stopping rule** — while scanning pairs, stop as soon as the four
  predicates of interest (``g1 ≻_γ g2``, ``g1 ≻_γ̄ g2`` and symmetric) are all
  decided, because the running counts plus the number of unseen pairs bound
  the final probabilities.
* **Bounding-box pre-classification** (Figure 9) — compare the MBB corners
  first: if ``g2.min`` dominates ``g1.max`` the domination is total with no
  record comparison at all; otherwise records that the corners already decide
  (regions A and C in the figure) are counted in bulk and only the remaining
  "region B" pairs go through the nested loop.

:class:`GroupComparator` implements both, individually switchable, and
reports how many record pairs were actually examined so the benchmark
harness can count dominance checks exactly like the paper does.

**Batch kernel.**  :meth:`GroupComparator.decide` takes whole arrays of
*directions* — "``x[p]`` over ``y[p]``", any group sizes — over a
dataset's :class:`RecordColumns`, and runs them *block-synchronously*:

1. The Figure-9 setup of every direction in one vectorised pass (corner
   tests, then regions A and C record by record for the directions the
   corners leave open), which leaves each direction its known and pending
   pair counts and its pending records (:func:`_open_state`).
2. Rounds (:func:`_round`).  Each round checks the *next* block of every
   direction that is still undecided — ``max(1, block_size // n_y)``
   rows of X's pending records against all of Y's — packed into slices
   of at most :data:`_SLICE_PAIRS` padded record pairs (a block wider
   than that is split by rows; blocks of similar width share a slice, see
   :func:`_count_blocks`), then decides every direction it touched.  A
   decided direction leaves the round set, so no pair past a direction's
   stopping point is ever checked, and ``pairs_examined`` keeps its
   Equation-4 meaning.  Without the stopping rule the one round is every
   pending pair.

Which traffic takes which path:

* NL and PAR's chunks decide whole arrays of pairs
  (:meth:`GroupComparator.compare_batch`); TR, SI, IN, LO and the IN/LO
  chunk kernel decide their rows ahead through
  :class:`~repro.core.row_batch.RowBatch` and
  :meth:`GroupComparator.settle` the pairs they reach.
* The γ-profile, domination counts, the partitioned merge and anytime
  seeding know every ordered pair up front and take the bulk count
  (:func:`pair_counts`: the setup, then one round over every pending
  pair); the anytime refiner's steps are rounds over the pairs its
  bounds leave open, under a pair budget.
* :meth:`GroupComparator.compare` decides one pair at a time: a
  :class:`_DirectionalCount` per direction transposes the records it
  still has to check into ``d × n`` arrays and advances by the same
  blocks, checking the stopping rule after each.  Only IN/LO window
  members past a candidate's batched prefix take it, where a kernel
  call's fixed cost (about ten times a small ``compare()``'s) was
  measured not to pay.

Either way a pair gets the same verdicts, ``pairs_examined`` and
bbox-shortcut and stopping-rule-exit flags.

*Exact thresholds.*  A direction holds at threshold ``γ = num/den`` when
``p = 1`` or ``count / t > γ`` for ``t = n_x · n_y``.  Both kernels
decide on ``T(t) = (num · t) // den``, computed in Python ints (the batch
kernel once per distinct total), so the 51–54-bit denominators of float
γ values never meet a 64-bit product.  For an integer ``count``, ``count > T(t)`` holds exactly
when ``count · den > num · t`` (``count > x`` iff ``count > floor(x)``),
and ``upper <= T(t)`` exactly when ``upper · den <= num · t``; with
``γ <= 1`` both sides are at most ``t`` and fit int64.  So the stopping
rule's "already above" and "cannot reach any more" tests become integer
array comparisons.

*Ranks, not values.*  The batch kernel compares per-dimension dense ranks
(:class:`RecordColumns`), which order exactly like the values, in the
narrowest signed integer dtype that holds ``-1 .. top`` (``top`` the
largest distinct-value count of a dimension; int16 for up to 32,767
distinct values).  ``p > q`` becomes ``all(rank(p) >= rank(q))`` plus a
distinct-row id test for strictness: given ``p >= q`` everywhere, ``p``
beats ``q`` somewhere exactly when the two rows differ (when no two
records are equal the test is skipped).  A NaN fails both ``>=`` and
``>``, so as a dominator it ranks ``-1`` and as a dominated record
``top``, and no test involving it passes.  Both Figure-9 setups read
corners that skip NaN, and draw no "every pair" conclusion (total
domination, regions A and C) for a group holding a NaN record (see
:class:`~repro.core.groups.BoundingBox`).  Pairs a slice pads in are
masked out of its counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .gamma import DEFAULT_BLOCK_SIZE, GammaThresholds
from .groups import Group

__all__ = [
    "ComparisonOutcome",
    "DirectionOutcomes",
    "GroupComparator",
    "RecordColumns",
    "ordered_pairs",
    "pair_counts",
]

#: Padded record pairs one slice of a batch-kernel round checks at most; a
#: block row wider than this is a slice of its own.  A constant, so the
#: kernel's temporaries stay bounded whatever the group sizes.
_SLICE_PAIRS = 1 << 15
#: Directions one batch-kernel chunk sets up and runs rounds over together.
_CHUNK_DIRECTIONS = 1 << 11
#: Records (``n_x + n_y`` summed over directions) one chunk's Figure-9 setup
#: classifies at most when bounding boxes are on.
_CHUNK_RECORDS = 1 << 14
#: Width ratio of the segments one width class pads to a common shape.
_WIDTH_RATIO = 1.5
#: Padded pairs beyond twice the real ones that merging width classes may
#: add: about what one more slice would cost in numpy calls.
_PAD_SLACK = 1 << 13
#: A broadcast inner loop shorter than this costs more than laying the
#: pairs out flat (see :func:`_count_slice`).
_FLAT_WIDTH = 32
#: Directions one block of :func:`ordered_pairs` holds at most: 20,000
#: groups have 4 × 10⁸ ordered pairs, which no caller holds at once.
BULK_DIRECTIONS = 1 << 16


@dataclass(frozen=True)
class ComparisonOutcome:
    """Result of comparing ``g1`` against ``g2`` at thresholds ``(γ, γ̄)``.

    ``d12``/``d21`` are Definition-3 γ-dominance verdicts, ``d12_strong`` /
    ``d21_strong`` the same at the weak-transitivity level γ̄ ("strongly
    dominated" in Algorithm 3).  ``pairs_examined`` counts record pairs that
    went through an actual dominance check; ``used_bbox_shortcut`` flags a
    comparison fully resolved by MBB corners.
    """

    d12: bool
    d12_strong: bool
    d21: bool
    d21_strong: bool
    pairs_examined: int
    used_bbox_shortcut: bool = False

    @property
    def incomparable(self) -> bool:
        return not (self.d12 or self.d21)


class _DirectionalCount:
    """Incremental dominance-pair counting for one direction (A over B), the
    per-pair kernel of :meth:`GroupComparator.compare`.

    Every pair is *known dominated*, *known not dominated* or *pending*:
    the bbox pre-classification seeds the known sets, and a block resolves
    ``max(1, block_size // n_b)`` rows of A's pending records against all
    of B's, both held as contiguous ``d × n`` arrays.
    """

    def __init__(self, a: Group, b: Group, use_bbox: bool):
        self.total = a.size * b.size
        self.known = 0          # pairs known to dominate
        self.pending = 0        # pairs not yet resolved
        self._a_mid: Optional[np.ndarray] = None   # d × pending records of A
        self._b_mid: Optional[np.ndarray] = None   # d × pending records of B
        self._cursor = 0
        self._setup(a, b, use_bbox)

    def _setup(self, a: Group, b: Group, use_bbox: bool) -> None:
        # d × n views of the groups' n × d records.
        a_t = a.values.T
        b_t = b.values.T
        if not use_bbox:
            self._a_mid = np.ascontiguousarray(a_t)
            self._b_mid = np.ascontiguousarray(b_t)
            self.pending = self.total
            return

        a_box, b_box = a.bbox, b.bbox
        # No record of A can dominate any record of B unless A's best corner
        # dominates B's worst corner.
        if not _dominates(a_box.max_corner, b_box.min_corner):
            self.pending = 0
            return
        # Total domination: A's worst corner dominates B's best corner.
        nan = a_box.holds_nan or b_box.holds_nan  # corners skip NaN records
        if not nan and _dominates(a_box.min_corner, b_box.max_corner):
            self.known = self.total
            self.pending = 0
            return

        # Region C: records of A dominating B's best corner dominate all B.
        a_all = _dominates(a_t, b_box.max_corner[:, None]) & (not b_box.holds_nan)
        # Records of A that do not dominate B's worst corner dominate nothing.
        a_some = _dominates(a_t, b_box.min_corner[:, None])
        a_mid_mask = a_some & ~a_all
        # Region A: records of B dominated by A's worst corner are dominated
        # by every record of A.
        b_all = _dominates(a_box.min_corner[:, None], b_t) & (not a_box.holds_nan)
        # Records of B not dominated by A's best corner are dominated by none.
        b_some = _dominates(a_box.max_corner[:, None], b_t)
        b_mid_mask = b_some & ~b_all

        n_a_all = int(np.count_nonzero(a_all))
        n_a_mid = int(np.count_nonzero(a_mid_mask))
        n_b_all = int(np.count_nonzero(b_all))
        n_b_mid = int(np.count_nonzero(b_mid_mask))

        self.known = n_a_all * b.size + n_a_mid * n_b_all
        self.pending = n_a_mid * n_b_mid
        if self.pending:
            self._a_mid = np.ascontiguousarray(a_t[:, a_mid_mask])
            self._b_mid = np.ascontiguousarray(b_t[:, b_mid_mask])

    # ------------------------------------------------------------------

    def advance(self, block_size: int) -> int:
        """Resolve up to ``block_size`` pending pairs; return pairs checked."""
        if self.pending == 0 or self._a_mid is None or self._b_mid is None:
            return 0
        n_b = self._b_mid.shape[1]
        rows = max(1, block_size // max(1, n_b))
        chunk = self._a_mid[:, self._cursor : self._cursor + rows]
        if chunk.shape[1] == 0:
            self.pending = 0
            return 0
        pairs = _dominates(chunk[:, :, None], self._b_mid[:, None, :])
        dominated = int(np.count_nonzero(pairs))
        checked = chunk.shape[1] * n_b
        self.known += dominated
        self.pending -= checked
        self._cursor += chunk.shape[1]
        return checked

    def finish(self) -> int:
        """Resolve everything that is still pending; return pairs checked."""
        checked = 0
        while self.pending > 0:
            step = self.advance(DEFAULT_BLOCK_SIZE)
            if step == 0:
                break
            checked += step
        return checked

    # ------------------------------------------------------------------

    def decide(self, threshold: Tuple[int, int]) -> Optional[bool]:
        """Tri-state verdict of the current bounds at a ``(numerator,
        denominator)`` threshold: ``True``/``False`` once they settle ``p =
        1 or p > threshold``, ``None`` while it is open.  Decided on the
        bar ``T(t)``, as the batch kernel does (:func:`_holds`)."""
        numerator, denominator = threshold
        holds, decided = _holds(
            self.known, self.pending, self.total, numerator * self.total // denominator
        )
        return holds if decided else None


def _dominates(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Definition 1, ``p > q``, reduced over the leading (dimension) axis.

    ``p`` and ``q`` broadcast against each other with dimensions first, so
    two corners give a scalar, ``d × n`` records against a ``d × 1`` corner
    a length-``n`` mask, and ``d × rows × 1`` against ``d × 1 × n`` the
    ``rows × n`` pair matrix of a kernel block.
    """
    return np.logical_and.reduce(p >= q, axis=0) & np.logical_or.reduce(p > q, axis=0)


def _rank_columns(
    matrix: np.ndarray, spare: int
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """``(ranks, dominated_ranks, row_ids)`` of an ``N × d`` record matrix.

    Per dimension, a record's dense rank among the distinct non-NaN values;
    a NaN ranks ``-1`` in ``ranks`` (as a dominator) and ``top`` in
    ``dominated_ranks`` (as a dominated record), so it fails every test.
    Without NaN the two are one array.  Both are ``d × (N + spare)``: the
    spare columns let a window of up to ``spare`` columns start at any
    record (:func:`_windows`); the kernel masks whatever a window reads
    past a block.  ``row_ids`` numbers the distinct records, or is
    ``None`` when no two records are equal: then two records of different
    groups that are ``>=`` everywhere always differ somewhere.
    """
    count, dims = matrix.shape
    ranks = np.empty((dims, count), dtype=np.int32)
    missing = np.isnan(matrix.T)
    top = 1
    for k in range(dims):
        values, ranks[k] = np.unique(matrix[:, k], return_inverse=True)
        top = max(top, values.shape[0] - int(missing[k].any()))
    dtype = next(
        t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= top
    )
    below = np.zeros((dims, count + spare), dtype=dtype)
    below[:, :count] = ranks
    above = below
    if missing.any():
        above = below.copy()
        below[:, :count][missing] = top
        above[:, :count][missing] = -1
    # Sort the records by their ranks; equal records end up adjacent.
    order = np.lexsort(below[:, :count])
    ordered = below[:, order]
    fresh = np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)
    if fresh.all():
        return above, below, None
    row_ids = np.zeros(count + spare, dtype=np.int32)
    row_ids[order[1:]] = np.cumsum(fresh)
    return above, below, row_ids


@dataclass(frozen=True)
class RecordColumns:
    """A dataset's records and MBB corners, dimension-major, for batching.

    ``records`` is ``d × N`` (all groups' records, group after group),
    group ``g`` owning columns ``starts[g] : starts[g] + sizes[g]``;
    ``mins`` / ``maxs`` are the ``d × G`` corner columns (skipping NaN;
    ``nan_groups`` flags the groups holding one, or is ``None``).  ``ranks``,
    ``dominated_ranks`` and ``row_ids`` are what the batch kernel compares
    (see the module docstring and :func:`_rank_columns`), with as many
    spare columns as the largest group has records.  Built on the query
    path — serially from the :class:`~repro.core.groups.GroupedDataset`
    columns, in a pool worker from its group list, once per worker and
    dataset — and read by :meth:`GroupComparator.decide`.
    """

    records: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray
    ranks: np.ndarray
    dominated_ranks: np.ndarray
    row_ids: Optional[np.ndarray]
    nan_groups: Optional[np.ndarray]

    @property
    def spare(self) -> int:
        """Spare columns after the records in the rank arrays."""
        return self.ranks.shape[1] - self.records.shape[1]

    @classmethod
    def _of_matrix(cls, matrix, starts, sizes, mins, maxs) -> "RecordColumns":
        spare = int(sizes.max()) if sizes.shape[0] else 0
        ranks, dominated_ranks, row_ids = _rank_columns(matrix, spare)
        nan_groups = None
        if dominated_ranks is not ranks:  # some record holds a NaN
            nan_groups = np.logical_or.reduceat(np.isnan(matrix).any(axis=1), starts)
        return cls(
            records=np.ascontiguousarray(matrix.T),
            starts=starts,
            sizes=sizes,
            mins=np.ascontiguousarray(mins.T),
            maxs=np.ascontiguousarray(maxs.T),
            ranks=ranks,
            dominated_ranks=dominated_ranks,
            row_ids=row_ids,
            nan_groups=nan_groups,
        )

    @classmethod
    def of_dataset(cls, dataset) -> "RecordColumns":
        """From a :class:`~repro.core.groups.GroupedDataset`'s columns."""
        offsets = np.asarray(dataset.offsets, dtype=np.int64)
        return cls._of_matrix(
            dataset.matrix,
            offsets[:-1],
            np.diff(offsets),
            dataset.min_corners,
            dataset.max_corners,
        )

    @classmethod
    def of_groups(cls, groups: Sequence[Group]) -> "RecordColumns":
        """From a group list whose ``index`` fields are list positions."""
        matrix = np.concatenate([group.values for group in groups], axis=0)
        sizes = np.array([group.size for group in groups], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        return cls._of_matrix(
            matrix,
            starts,
            sizes,
            np.fmin.reduceat(matrix, starts, axis=0),
            np.fmax.reduceat(matrix, starts, axis=0),
        )


@dataclass(frozen=True)
class DirectionOutcomes:
    """What :meth:`GroupComparator.decide` found, per direction slot.

    ``gamma`` / ``strong`` are the γ and γ̄ verdicts of "X over Y";
    ``examined`` the record pairs the stopping rule checked; ``shortcut``
    whether the Figure-9 setup left nothing pending; ``exited`` whether
    the stopping rule decided with pairs still pending.  Python lists, so
    :meth:`GroupComparator.settle` reads them with plain indexing.
    """

    gamma: List[bool]
    strong: List[bool]
    examined: List[int]
    shortcut: List[bool]
    exited: List[bool]


def _ranges(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Owner and offset of every element of consecutive ranges of ``counts``."""
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    offset = np.arange(owner.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, offset


def _cuts(weights: np.ndarray, budget: int) -> Iterator[Tuple[int, int]]:
    """Consecutive ranges of ``weights`` summing to at most ``budget``
    (a single heavier element is a range of its own)."""
    bounds = np.cumsum(weights)
    start = 0
    while start < weights.shape[0]:
        base = int(bounds[start - 1]) if start else 0
        stop = int(np.searchsorted(bounds, base + budget, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _bars(totals: np.ndarray, thresholds: Sequence[Tuple[int, int]]) -> np.ndarray:
    """``T(t) = (numerator · t) // denominator`` of every total, as int64,
    one row per threshold.

    Computed in Python ints once per distinct total (see the module
    docstring); ``T(t) <= t`` because thresholds are at most 1.
    """
    distinct, inverse = np.unique(totals, return_inverse=True)
    bars = [
        [numerator * total // denominator for total in distinct.tolist()]
        for numerator, denominator in thresholds
    ]
    return np.array(bars, dtype=np.int64)[:, inverse.reshape(-1)]


def _holds(
    known: np.ndarray, pending: np.ndarray, totals: np.ndarray, bars: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(holds, decided)`` of ``p = 1 or p > γ`` for ``known`` pairs known
    to dominate and ``pending`` unresolved of ``totals``, on the bars
    ``T(t)`` of γ (see the module docstring); arrays or Python ints.

    ``bars`` may stack several thresholds' bars on a leading axis; the
    results then stack the same way.
    """
    upper = known + pending
    # Already above the bar (p only grows from `known`), or p = 1 for sure;
    # decided, too, once the bar cannot be passed and p = 1 is impossible.
    holds = (known > bars) | (known == totals)
    return holds, holds | ((upper <= bars) & (upper < totals))


def _undecided(
    known: np.ndarray, pending: np.ndarray, totals: np.ndarray, bars: np.ndarray
) -> np.ndarray:
    """Directions the stopping rule keeps open: some threshold undecided."""
    return ~np.logical_and.reduce(_holds(known, pending, totals, bars)[1], axis=0)


def _setup(
    columns: RecordColumns, x: np.ndarray, y: np.ndarray, use_bbox: bool
) -> Tuple[np.ndarray, ...]:
    """Figure-9 setup of every direction "``x[p]`` over ``y[p]``".

    The vectorised counterpart of one :class:`_DirectionalCount` setup per
    direction: the same corner tests, then the region classification of
    the records of the directions the corner tests leave open only.  Returns
    ``(known, pending, x_first, x_count, y_first, y_count, x_mid, y_mid)``:
    direction ``p``'s pending records of X are ``x_mid[x_first[p] :
    x_first[p] + x_count[p]]`` in record order, those of Y likewise, and
    ``x_mid``/``y_mid`` are ``None`` when the pending records are the whole
    groups (no bbox), whose record columns then start at ``x_first[p]``.
    """
    starts = columns.starts
    n_x = columns.sizes[x]
    n_y = columns.sizes[y]
    count = x.shape[0]
    if not use_bbox:
        known = np.zeros(count, dtype=np.int64)
        return known, n_x * n_y, starts[x], n_x, starts[y], n_y, None, None
    records = columns.records
    nan = columns.nan_groups
    # Corner tests first, as in _DirectionalCount._setup: no record of X
    # can dominate unless X's best corner dominates Y's worst, and the
    # domination is total when X's worst corner dominates Y's best.
    possible = _dominates(columns.maxs[:, x], columns.mins[:, y])
    whole = possible & _dominates(columns.mins[:, x], columns.maxs[:, y])
    if nan is not None:  # the corners skip NaN records
        whole &= ~(nan[x] | nan[y])
    split = possible & ~whole
    # Regions of the remaining directions' records, record by record.
    owner_x, offset_x = _ranges(np.where(split, n_x, 0))
    owner_y, offset_y = _ranges(np.where(split, n_y, 0))
    rec_x = starts[x][owner_x] + offset_x
    rec_y = starts[y][owner_y] + offset_y
    x_vals = records[:, rec_x]
    y_of_x = y[owner_x]
    x_all = _dominates(x_vals, columns.maxs[:, y_of_x])
    if nan is not None:
        x_all &= ~nan[y_of_x]
    x_mid = _dominates(x_vals, columns.mins[:, y_of_x]) & ~x_all
    del x_vals
    y_vals = records[:, rec_y]
    x_of_y = x[owner_y]
    y_all = _dominates(columns.mins[:, x_of_y], y_vals)
    if nan is not None:
        y_all &= ~nan[x_of_y]
    y_mid = _dominates(columns.maxs[:, x_of_y], y_vals) & ~y_all
    del y_vals
    n_x_all = np.bincount(owner_x[x_all], minlength=count)
    n_x_mid = np.bincount(owner_x[x_mid], minlength=count)
    n_y_all = np.bincount(owner_y[y_all], minlength=count)
    n_y_mid = np.bincount(owner_y[y_mid], minlength=count)
    known = np.where(whole, n_x * n_y, n_x_all * n_y + n_x_mid * n_y_all)
    return (
        known,
        n_x_mid * n_y_mid,
        np.cumsum(n_x_mid) - n_x_mid,
        n_x_mid,
        np.cumsum(n_y_mid) - n_y_mid,
        n_y_mid,
        rec_x[x_mid],
        rec_y[y_mid],
    )


def _windows(source: np.ndarray, width: int) -> np.ndarray:
    """Every run of ``width`` consecutive columns of a C-contiguous
    ``source``, as a ``(..., M - width + 1, width)`` view of it."""
    *lead, count = source.shape
    step = source.strides[-1]
    return np.ndarray(
        (*lead, count - width + 1, width),
        dtype=source.dtype,
        buffer=source,
        strides=(*source.strides[:-1], step, step),
    )


#: What :func:`_sources` returns.
_Sources = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]


def _sources(
    columns: RecordColumns, x_mid: Optional[np.ndarray], y_mid: Optional[np.ndarray]
) -> _Sources:
    """The rank (and row-id) columns a chunk's blocks are cut from.

    ``(x ranks, y ranks, x row ids, y row ids)``, in which each
    direction's pending records of X (of Y) are one run of columns
    followed by at least ``spare`` more: the dataset's own columns
    without bounding boxes, the gathered pending records with them.
    """
    if x_mid is None:
        ids = columns.row_ids
        return columns.ranks, columns.dominated_ranks, ids, ids

    def gather(source: np.ndarray, records: np.ndarray) -> np.ndarray:
        out = np.zeros(
            (*source.shape[:-1], records.shape[0] + columns.spare), dtype=source.dtype
        )
        out[..., : records.shape[0]] = np.take(source, records, axis=-1)
        return out

    ids = columns.row_ids
    return (
        gather(columns.ranks, x_mid),
        gather(columns.dominated_ranks, y_mid),
        None if ids is None else gather(ids, x_mid),
        None if ids is None else gather(ids, y_mid),
    )


def _count_slice(
    sources: _Sources,
    first_row: np.ndarray,
    rows: np.ndarray,
    first_col: np.ndarray,
    width: np.ndarray,
    reach: int,
    span: int,
) -> np.ndarray:
    """Dominating pairs of each segment of one slice.

    Segment ``s`` is ``rows[s]`` pending records of X from column
    ``first_row[s]`` of the X sources against ``width[s]`` pending records
    of Y from ``first_col[s]`` of the Y sources (:func:`_sources`).  Both
    sides are cut as windows of ``reach`` rows and ``span`` columns (at
    least every segment's), and the pairs a window reads past its segment
    are masked out of the count.  Every dominance test reduces over the
    leading dimension axis.
    """
    x_ranks, y_ranks, x_ids, y_ids = sources
    # A broadcast runs one inner loop per row of its result, so the longer
    # side goes innermost; when both are short, every pair is laid out
    # flat instead.
    if span >= _FLAT_WIDTH:

        def along_x(values: np.ndarray) -> np.ndarray:
            return values[..., :, None]

        def along_y(values: np.ndarray) -> np.ndarray:
            return values[..., None, :]

    elif reach >= _FLAT_WIDTH:

        def along_x(values: np.ndarray) -> np.ndarray:
            return values[..., None, :]

        def along_y(values: np.ndarray) -> np.ndarray:
            return values[..., :, None]

    else:

        def along_x(values: np.ndarray) -> np.ndarray:
            return np.repeat(values, span, axis=-1)

        def along_y(values: np.ndarray) -> np.ndarray:
            return np.tile(values, reach)

    hit = np.logical_and.reduce(
        along_x(_windows(x_ranks, reach)[:, first_row])
        >= along_y(_windows(y_ranks, span)[:, first_col]),
        axis=0,
    )
    if x_ids is not None:
        hit &= along_x(_windows(x_ids, reach)[first_row]) != along_y(
            _windows(y_ids, span)[first_col]
        )
    if int(rows.min()) < reach:
        hit &= along_x(np.arange(reach) < rows[:, None])
    if int(width.min()) < span:
        hit &= along_y(np.arange(span) < width[:, None])
    return np.add.reduce(
        hit.view(np.uint8).reshape(hit.shape[0], -1), axis=1, dtype=np.int64
    )


def _count_blocks(
    sources: _Sources,
    first_row: np.ndarray,
    rows: np.ndarray,
    first_col: np.ndarray,
    width: np.ndarray,
) -> np.ndarray:
    """Dominating pairs of one round's blocks (the arguments as in
    :func:`_count_slice`, one entry per block).

    A block of more than :data:`_SLICE_PAIRS` pairs is split into row
    segments.  Segments are sorted into width classes (widths within
    :data:`_WIDTH_RATIO` of each other), neighbouring classes merge while
    padding them to one shape stays cheap (at most twice their pairs plus
    :data:`_PAD_SLACK`), and each group is cut into slices of at most
    :data:`_SLICE_PAIRS` padded pairs.
    """
    blocks = rows.shape[0]
    owner = None
    if int((rows * width).max()) > _SLICE_PAIRS:
        cap = np.maximum(1, _SLICE_PAIRS // width)
        owner, part = _ranges(-(-rows // cap))
        offset = part * cap[owner]
        first_row = first_row[owner] + offset
        rows = np.minimum(cap[owner], rows[owner] - offset)
        first_col = first_col[owner]
        width = width[owner]
    classes = np.floor(np.log(width) / np.log(_WIDTH_RATIO))
    order = np.argsort(-classes, kind="stable")
    starts = np.flatnonzero(np.diff(classes[order], prepend=np.inf))
    stats = zip(
        starts.tolist(),
        [*starts[1:].tolist(), order.shape[0]],
        np.maximum.reduceat(rows[order], starts).tolist(),
        np.maximum.reduceat(width[order], starts).tolist(),
        np.add.reduceat((rows * width)[order], starts).tolist(),
    )
    groups: List[Tuple[int, int, int, int, int]] = []
    for lo, hi, reach, span, pairs in stats:
        if groups:
            first, _, last_reach, last_span, last_pairs = groups[-1]
            reach_, span_ = max(last_reach, reach), max(last_span, span)
            padded = (hi - first) * reach_ * span_
            if padded <= min(_SLICE_PAIRS, 2 * (last_pairs + pairs) + _PAD_SLACK):
                groups[-1] = (first, hi, reach_, span_, last_pairs + pairs)
                continue
        groups.append((lo, hi, reach, span, pairs))
    found = np.zeros(width.shape[0], dtype=np.int64)
    for lo, hi, reach, span, _ in groups:
        step = max(1, _SLICE_PAIRS // (reach * span))
        for start in range(lo, hi, step):
            segment = order[start : min(hi, start + step)]
            found[segment] = _count_slice(
                sources,
                first_row[segment],
                rows[segment],
                first_col[segment],
                width[segment],
                reach,
                span,
            )
    if owner is None:
        return found
    return np.bincount(owner, weights=found, minlength=blocks).astype(np.int64)


def _open_state(
    columns: RecordColumns,
    x: np.ndarray,
    y: np.ndarray,
    use_bbox: bool,
    block_size: int,
    thresholds: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, _Sources]:
    """The Figure-9 setup of every direction "``x[p]`` over ``y[p]``" as
    the stacked state :func:`_round` advances, and the sources its blocks
    are cut from.  One ``int64`` column per direction, so a round updates
    whole rows; its rows are pairs known to dominate, pending and
    examined, the slot ``p``, the total ``n_x · n_y``, the rows of a block,
    the rows of X left, the next row's column in the X sources, the first
    column and count of Y's pending records, then one bar per threshold.
    """
    known, pending, x_first, x_count, y_first, y_count, x_mid, y_mid = _setup(
        columns, x, y, use_bbox
    )
    totals = columns.sizes[x] * columns.sizes[y]
    state = np.stack(
        [
            known,
            pending,
            np.zeros_like(known),
            np.arange(x.shape[0]),
            totals,
            np.maximum(1, block_size // np.maximum(1, y_count)),
            x_count,
            x_first,
            y_first,
            y_count,
            *_bars(totals, thresholds),
        ]
    )
    return state, _sources(columns, x_mid, y_mid)


def _next_blocks(live: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rows and record pairs of the next block of every column of the
    stacked state ``live`` (:func:`_open_state`)."""
    rows = np.minimum(live[5], live[6])
    return rows, rows * live[9]


def _round(sources: _Sources, live: np.ndarray) -> None:
    """One kernel round, in place: every column of the stacked state
    ``live`` (:func:`_open_state`) checks its next block, ``min(block
    rows, rows left)`` rows of X against its pending records of Y."""
    rows, checked = _next_blocks(live)
    known, pending, examined = live[:3]
    known += _count_blocks(sources, live[7], rows, live[8], live[9])
    pending -= checked
    examined += checked
    live[6] -= rows
    live[7] += rows


def _decide_chunk(
    columns: RecordColumns,
    x: np.ndarray,
    y: np.ndarray,
    use_bbox: bool,
    use_stopping_rule: bool,
    block_size: int,
    thresholds: Tuple[Tuple[int, int], Tuple[int, int]],
) -> Tuple[np.ndarray, ...]:
    """The batch kernel over one chunk of directions (see the module
    docstring): Figure-9 setup, then rounds of next blocks.  Returns the
    :class:`DirectionOutcomes` fields as arrays."""
    state, sources = _open_state(columns, x, y, use_bbox, block_size, thresholds)
    known, pending, examined, _, totals = state[:5]
    bars = state[10:]
    shortcut = pending == 0
    if use_stopping_rule:
        live = state[:, np.flatnonzero(_undecided(known, pending, totals, bars))]
    else:  # one round: every pending pair
        live = state[:, np.flatnonzero(pending)]
        live[5] = live[6]
    while live.shape[1]:
        _round(sources, live)
        still = _undecided(live[0], live[1], live[4], live[10:])
        if not still.all():
            done = live[:, ~still]
            state[:3, done[3]] = done[:3]
            live = live[:, still]
    gamma, strong = _holds(known, pending, totals, bars)[0]
    return gamma, strong, examined, shortcut, pending > 0


def _chunked(
    columns: RecordColumns,
    x: Sequence[int],
    y: Sequence[int],
    use_bbox: bool,
    kernel: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, ...]],
    dtypes: Sequence[type],
) -> Tuple[np.ndarray, ...]:
    """``kernel(x, y)`` over every direction "``x[p]`` over ``y[p]``", in
    chunks bounded by directions (or records, with bounding boxes)."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if np.any(x == y):
        raise ValueError("a direction needs two different groups")
    fields = tuple(np.zeros(x.shape[0], dtype=dtype) for dtype in dtypes)
    if use_bbox:
        weights, budget = columns.sizes[x] + columns.sizes[y], _CHUNK_RECORDS
    else:
        weights, budget = np.ones(x.shape[0], dtype=np.int64), _CHUNK_DIRECTIONS
    for start, stop in _cuts(weights, budget):
        for field, part in zip(fields, kernel(x[start:stop], y[start:stop])):
            field[start:stop] = part
    return fields


def pair_counts(
    columns: RecordColumns,
    x: Sequence[int],
    y: Sequence[int],
    use_bbox: bool = True,
    bounds_only: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(count, pending)`` of every direction "``x[p]`` over ``y[p]``":
    the Figure-9 setup, then one round over the ``pending[p]`` pairs it
    leaves open (region B, or every pair without bounding boxes), so that
    ``count[p]`` is the exact number of dominating record pairs.  With
    ``bounds_only`` there is no round, and the count lies in ``[count,
    count + pending]``.  Reads no threshold and touches no counter.
    """

    def count(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        known, pending, x_first, x_count, y_first, y_count, x_mid, y_mid = _setup(
            columns, x, y, use_bbox
        )
        open_ = np.flatnonzero(pending)
        if open_.shape[0] and not bounds_only:
            known[open_] += _count_blocks(
                _sources(columns, x_mid, y_mid),
                x_first[open_],
                x_count[open_],
                y_first[open_],
                y_count[open_],
            )
        return known, pending

    return _chunked(columns, x, y, use_bbox, count, (np.int64, np.int64))


def ordered_pairs(
    groups: int, targets: Sequence[int]
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every direction "``g`` over ``t``" (``g != t``, ``t`` in ``targets``)
    as ``(block, x, y)``: blocks of whole targets holding at most
    :data:`BULK_DIRECTIONS` directions (or one target), target by target
    and ``g`` ascending, so ``x`` reshapes to ``(len(block), groups - 1)``."""
    targets = np.asarray(targets, dtype=np.int64)
    step = max(1, BULK_DIRECTIONS // max(1, groups - 1))
    for start in range(0, targets.shape[0], step):
        block = targets[start : start + step]
        x = np.tile(np.arange(groups), block.shape[0])
        y = np.repeat(block, groups)
        keep = x != y
        yield block, x[keep], y[keep]


class GroupComparator:
    """Compares two groups and classifies the four dominance predicates.

    Parameters
    ----------
    thresholds:
        The ``(γ, γ̄)`` pair to classify against.
    use_stopping_rule:
        Apply the Section-3.3 stopping rule (stop scanning pairs once all
        four predicates are decided).  With the rule off, every pending pair
        is examined — useful as a correctness oracle.
    use_bbox:
        Apply the Figure-9 bounding-box shortcut and pre-classification.
    block_size:
        Upper bound on pairs resolved per vectorised step (granularity of
        the stopping rule).
    """

    def __init__(
        self,
        thresholds: GammaThresholds,
        use_stopping_rule: bool = True,
        use_bbox: bool = False,
        block_size: int = 1024,
    ):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.thresholds = thresholds
        self._gamma = thresholds.gamma.as_integer_ratio()
        self._strong = thresholds.strong.as_integer_ratio()
        self.use_stopping_rule = use_stopping_rule
        self.use_bbox = use_bbox
        self.block_size = block_size
        # cumulative statistics across compare() calls
        self.comparisons = 0
        self.pairs_examined = 0
        self.bbox_shortcuts = 0
        self.stopping_rule_exits = 0
        # detailed (per-comparison) observability instruments; ``None`` keeps
        # the hot path at a single branch when metrics are disabled.
        self._obs_pairs_hist = None
        self._obs_exit_counter = None
        self._obs_shortcut_counter = None

    def reset_stats(self) -> None:
        self.comparisons = 0
        self.pairs_examined = 0
        self.bbox_shortcuts = 0
        self.stopping_rule_exits = 0

    def absorb(
        self,
        comparisons: int = 0,
        pairs_examined: int = 0,
        bbox_shortcuts: int = 0,
        stopping_rule_exits: int = 0,
    ) -> None:
        """Add externally accumulated counter *values* to this comparator.

        Used when work was done elsewhere on this comparator's behalf — a
        delegate algorithm (:class:`~repro.core.algorithms.adaptive.
        AdaptiveAlgorithm`) or a pool worker (:mod:`repro.parallel`) — so the
        owning algorithm's end-of-run statistics reflect the merged totals
        without swapping comparator objects (swapping would leak the
        delegate's configuration into later runs).
        """
        self.comparisons += int(comparisons)
        self.pairs_examined += int(pairs_examined)
        self.bbox_shortcuts += int(bbox_shortcuts)
        self.stopping_rule_exits += int(stopping_rule_exits)

    def bind_metrics(self, registry, algorithm: str = "") -> None:
        """Attach per-comparison instruments from ``registry``.

        Records a histogram of record pairs examined per comparison (its
        shape exposes the stopping rule's block granularity), plus counters
        for stopping-rule early exits and MBB shortcuts.  Costs one branch
        and up to three locked updates per ``compare()`` — only bind when
        :func:`repro.obs.metrics.enable` was requested.
        """
        from ..obs.metrics import DEFAULT_COUNT_BUCKETS

        labels = {"algorithm": algorithm or "?"}
        self._obs_pairs_hist = registry.histogram(
            "comparator_pairs_per_compare",
            "Record pairs examined by one group-vs-group comparison",
            ("algorithm",),
            buckets=DEFAULT_COUNT_BUCKETS,
        ).labels(**labels)
        self._obs_exit_counter = registry.counter(
            "comparator_stopping_rule_exits_total",
            "Comparisons decided by the stopping rule before exhaustion",
            ("algorithm",),
        ).labels(**labels)
        self._obs_shortcut_counter = registry.counter(
            "comparator_bbox_shortcut_total",
            "Comparisons fully resolved by MBB corners (Figure 9)",
            ("algorithm",),
        ).labels(**labels)

    def unbind_metrics(self) -> None:
        self._obs_pairs_hist = None
        self._obs_exit_counter = None
        self._obs_shortcut_counter = None

    def compare(
        self,
        g1: Group,
        g2: Group,
        need_forward: bool = True,
        need_backward: bool = True,
    ) -> ComparisonOutcome:
        """Classify dominance between ``g1`` and ``g2``.

        ``need_forward`` / ``need_backward`` select which directions the
        caller actually needs (``forward`` is ``g1`` over ``g2``).  A
        direction that is not needed is reported as ``False`` and costs no
        pair checks, which is how one-directional probes ("can this already
        excluded group still dominate the candidate?") stay cheap.
        """
        if g1.dimensions != g2.dimensions:
            raise ValueError("groups have different dimensionality")
        if not (need_forward or need_backward):
            raise ValueError("at least one direction must be requested")
        self.comparisons += 1
        forward = _DirectionalCount(g1, g2, self.use_bbox) if need_forward else None
        backward = _DirectionalCount(g2, g1, self.use_bbox) if need_backward else None
        shortcut = all(
            direction is None or direction.pending == 0
            for direction in (forward, backward)
        )

        gamma = self._gamma
        strong = self._strong
        pairs = 0
        # One direction's verdicts depend only on its own counts, so each is
        # settled on its own: block by block until both of its predicates
        # are decided (stopping rule), or exhaustively.
        for direction in (forward, backward):
            if direction is None:
                continue
            if not self.use_stopping_rule:
                pairs += direction.finish()
                continue
            while direction.decide(gamma) is None or direction.decide(strong) is None:
                step = direction.advance(self.block_size)
                if step == 0:
                    break
                pairs += step

        def verdicts(direction: Optional[_DirectionalCount]) -> Tuple[bool, bool]:
            if direction is None:
                return False, False
            return bool(direction.decide(gamma)), bool(direction.decide(strong))

        d12, d12_strong = verdicts(forward)
        d21, d21_strong = verdicts(backward)
        outcome = ComparisonOutcome(
            d12=d12,
            d12_strong=d12_strong,
            d21=d21,
            d21_strong=d21_strong,
            pairs_examined=pairs,
            used_bbox_shortcut=shortcut,
        )
        early_exit = self.use_stopping_rule and any(
            direction is not None and direction.pending > 0
            for direction in (forward, backward)
        )
        self._account(pairs, shortcut, early_exit)
        return outcome

    def _account(self, pairs: int, shortcut: bool, early_exit: bool) -> None:
        """Add one comparison's pairs and flags to the counters and instruments."""
        self.pairs_examined += pairs
        if shortcut:
            self.bbox_shortcuts += 1
        if early_exit:
            self.stopping_rule_exits += 1
        if self._obs_pairs_hist is not None:
            self._obs_pairs_hist.observe(pairs)
            if early_exit:
                self._obs_exit_counter.inc()
            if shortcut:
                self._obs_shortcut_counter.inc()

    # ------------------------------------------------------------------
    # batch kernel
    # ------------------------------------------------------------------

    def _decide_arrays(
        self, columns: RecordColumns, x: Sequence[int], y: Sequence[int]
    ) -> Tuple[np.ndarray, ...]:
        """The batch kernel over every direction "``x[p]`` over ``y[p]``"."""
        decide = partial(
            _decide_chunk,
            columns,
            use_bbox=self.use_bbox,
            use_stopping_rule=self.use_stopping_rule,
            block_size=self.block_size,
            thresholds=(self._gamma, self._strong),
        )
        dtypes = (bool, bool, np.int64, bool, bool)
        return _chunked(columns, x, y, self.use_bbox, decide, dtypes)

    def decide(
        self, columns: RecordColumns, x: Sequence[int], y: Sequence[int]
    ) -> DirectionOutcomes:
        """Decide every direction "``x[p]`` over ``y[p]``" of ``columns``.

        Each direction gets exactly the verdicts, ``pairs_examined`` and
        flags :meth:`compare` would give it; :meth:`settle` turns two of
        them into one comparison's outcome.  Touches no counter: a decided
        direction costs nothing until it is settled.
        """
        return DirectionOutcomes(
            *(field.tolist() for field in self._decide_arrays(columns, x, y))
        )

    def settle(
        self,
        outcomes: DirectionOutcomes,
        forward: int,
        backward: int,
        need_forward: bool = True,
        need_backward: bool = True,
    ) -> ComparisonOutcome:
        """Exactly what :meth:`compare` reports for one pair of ``outcomes``.

        ``forward`` is the slot of "g1 over g2" and ``backward`` of "g2 over
        g1", ``-1`` for a direction that was not decided.  Same verdicts,
        ``pairs_examined``, bbox-shortcut and stopping-rule-exit flags,
        counters and instruments, read from the needed directions only.
        """
        if not (need_forward or need_backward):
            raise ValueError("at least one direction must be requested")
        self.comparisons += 1
        pairs = 0
        shortcut = True
        early_exit = False
        verdicts = []
        for needed, slot in ((need_forward, forward), (need_backward, backward)):
            if not needed:
                verdicts.append((False, False))
                continue
            if slot < 0:
                raise ValueError("direction was not decided")
            pairs += outcomes.examined[slot]
            shortcut = shortcut and outcomes.shortcut[slot]
            early_exit = early_exit or outcomes.exited[slot]
            verdicts.append((outcomes.gamma[slot], outcomes.strong[slot]))
        (d12, d12_strong), (d21, d21_strong) = verdicts
        self._account(pairs, shortcut, early_exit)
        return ComparisonOutcome(
            d12=d12,
            d12_strong=d12_strong,
            d21=d21,
            d21_strong=d21_strong,
            pairs_examined=pairs,
            used_bbox_shortcut=shortcut,
        )

    def compare_batch(
        self, columns: RecordColumns, a: Sequence[int], b: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`compare` every group pair ``(a[p], b[p])``, both directions.

        Returns the ``d12``, ``d12_strong``, ``d21`` and ``d21_strong``
        arrays, and adds to the counters and instruments what the
        compares, one by one, would have added.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        m = a.shape[0]
        gamma, strong, examined, shortcut, exited = self._decide_arrays(
            columns, np.concatenate([a, b]), np.concatenate([b, a])
        )
        pairs = examined[:m] + examined[m:]
        shortcuts = int(np.count_nonzero(shortcut[:m] & shortcut[m:]))
        exits = int(np.count_nonzero(exited[:m] | exited[m:]))
        self.comparisons += m
        self.pairs_examined += int(pairs.sum())
        self.bbox_shortcuts += shortcuts
        self.stopping_rule_exits += exits
        if self._obs_pairs_hist is not None:
            for value in pairs.tolist():
                self._obs_pairs_hist.observe(value)
            if exits:
                self._obs_exit_counter.inc(exits)
            if shortcuts:
                self._obs_shortcut_counter.inc(shortcuts)
        return gamma[:m], strong[:m], gamma[m:], strong[m:]
