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

The kernel is *dimension-major*: a comparison transposes the records it
still has to check into ``d × n`` arrays, and every dominance test in this
module reduces ``p >= q`` / ``p > q`` over the leading dimension axis
(:func:`_dominates`).  Reducing a row-major ``(rows, n, d)`` broadcast over
its trailing length-``d`` axis instead was most of the old kernel's time;
over the leading axis each reduction step is one elementwise pass over a
contiguous ``(rows, n)`` slab.  Stopping-rule decisions compare integer
pair counts against a threshold's ``(numerator, denominator)`` by Python
integer cross-multiplication, which stays exact where the 51–54-bit
denominators most float γ values have would overflow 64-bit products.

**Batch kernel.**  For groups of a few records, ``compare()`` costs its
per-call overhead, not pair checks: with the stopping rule and the
Figure-9 pre-classification, two 2-record groups check about four record
pairs, against tens of numpy calls to set the comparison up.
:meth:`GroupComparator.count_pairs` therefore takes whole arrays of
``(A, B)`` group pairs over a dataset's :class:`RecordColumns` and returns,
per direction, each pair's Figure-9 *known* and *pending* pair counts and
its exact *final* count, in a fixed number of vectorised passes.  Every pair
must fit one kernel block (``n_a · n_b <= block_size``, the *one-block
rule*): then the stopping rule can only stop before the first block or
after the whole pending set, so those three counts determine everything
:meth:`~GroupComparator.compare` reports, and :meth:`GroupComparator.settle`
turns one pair's counts into exactly that outcome — verdicts from the same
integer :func:`_decide`, ``pairs_examined``, the bbox-shortcut and
stopping-rule-exit flags and the per-compare instruments.  Pairs that span
several blocks always go through ``compare()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .gamma import DEFAULT_BLOCK_SIZE, GammaThresholds
from .groups import Group

__all__ = [
    "ComparisonOutcome",
    "GroupComparator",
    "DirectionalProbe",
    "PairCounts",
    "RecordColumns",
]

#: Record pairs one slice of :meth:`GroupComparator.count_pairs` expands at
#: most (a single pair larger than this is its own slice), which bounds the
#: kernel's temporaries whatever the group sizes.
_SLICE_RECORD_PAIRS = 1 << 14


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
    """Incremental dominance-pair counting for one direction (A over B).

    Maintains exact lower/upper bounds on the final pair count: every pair is
    either *known dominated*, *known not dominated* or *pending*.  The bbox
    pre-classification seeds the known sets; the nested loop then resolves
    pending pairs block by block.

    The pending records of both sides are held dimension-major, as ``d × n``
    arrays transposed from the groups' ``n × d`` rows once per comparison,
    so a block's dominance test reduces over the leading axis (see the
    module docstring).  A block takes whole rows of A against all pending
    records of B, ``max(1, block_size // n_b)`` rows at a time, and checks
    exactly the pairs it counts.
    """

    def __init__(self, a: Group, b: Group, use_bbox: bool):
        self.total = a.size * b.size
        self.known = 0          # pairs known to dominate
        self.pending = 0        # pairs not yet resolved
        self.examined = 0       # pairs resolved via explicit checks
        self._a_mid: Optional[np.ndarray] = None   # d × pending records of A
        self._b_mid: Optional[np.ndarray] = None   # d × pending records of B
        self._cursor = 0
        self._setup(a, b, use_bbox)

    def _setup(self, a: Group, b: Group, use_bbox: bool) -> None:
        # d × n views of the groups' n × d records.
        a_t = a.values.T
        b_t = b.values.T
        if not use_bbox:
            self._keep(a_t, b_t)
            self.pending = self.total
            return

        a_box, b_box = a.bbox, b.bbox
        # No record of A can dominate any record of B unless A's best corner
        # dominates B's worst corner.
        if not _dominates(a_box.max_corner, b_box.min_corner):
            self.pending = 0
            return
        # Total domination: A's worst corner dominates B's best corner.
        if _dominates(a_box.min_corner, b_box.max_corner):
            self.known = self.total
            self.pending = 0
            return

        # Region C: records of A dominating B's best corner dominate all B.
        a_all = _dominates(a_t, b_box.max_corner[:, None])
        # Records of A that do not dominate B's worst corner dominate nothing.
        a_some = _dominates(a_t, b_box.min_corner[:, None])
        a_mid_mask = a_some & ~a_all
        # Region A: records of B dominated by A's worst corner are dominated
        # by every record of A.
        b_all = _dominates(a_box.min_corner[:, None], b_t)
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
            self._keep(a_t[:, a_mid_mask], b_t[:, b_mid_mask])

    def _keep(self, a_t: np.ndarray, b_t: np.ndarray) -> None:
        """Store the pending ``d × n`` records, contiguous for the kernel."""
        self._a_mid = np.ascontiguousarray(a_t)
        self._b_mid = np.ascontiguousarray(b_t)

    # ------------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self.pending == 0

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
        self.examined += checked
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
        """Tri-state verdict of the current bounds (see :func:`_decide`)."""
        return _decide(self.known, self.pending, self.total, threshold)

    def probability_bounds(self) -> Tuple[Fraction, Fraction]:
        return (
            Fraction(self.known, self.total),
            Fraction(self.known + self.pending, self.total),
        )


class DirectionalProbe:
    """Public one-directional probability prober (used by the γ-profile).

    Wraps the incremental counter for ``p(A > B)``: ``bounds()`` returns the
    cheap interval implied by the MBB pre-classification alone, ``exact()``
    resolves the remaining pairs and returns the exact probability.
    """

    def __init__(self, a: Group, b: Group, use_bbox: bool = True):
        self._count = _DirectionalCount(a, b, use_bbox)
        self.pairs_examined = 0

    def bounds(self) -> Tuple[Fraction, Fraction]:
        """Current (lower, upper) bounds on ``p(A > B)``."""
        return self._count.probability_bounds()

    def exact(self) -> Fraction:
        """Resolve all pending pairs and return the exact probability."""
        self.pairs_examined += self._count.finish()
        lower, upper = self._count.probability_bounds()
        assert lower == upper
        return lower


def _dominates(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Definition 1, ``p > q``, reduced over the leading (dimension) axis.

    ``p`` and ``q`` broadcast against each other with dimensions first, so
    two corners give a scalar, ``d × n`` records against a ``d × 1`` corner
    a length-``n`` mask, and ``d × rows × 1`` against ``d × 1 × n`` the
    ``rows × n`` pair matrix of a kernel block.
    """
    return np.logical_and.reduce(p >= q, axis=0) & np.logical_or.reduce(p > q, axis=0)


def _decide(
    known: int, pending: int, total: int, threshold: Tuple[int, int]
) -> Optional[bool]:
    """Tri-state verdict for ``p = 1 or p > numerator/denominator``.

    ``known`` pairs are known to dominate and ``pending`` are unresolved,
    out of ``total``.  ``threshold`` is a ``(numerator, denominator)`` pair
    of Python ints (``Fraction.as_integer_ratio()``), computed once per
    comparator.  They must stay Python ints: most float γ values convert
    to fractions with 51–54-bit denominators, so ``count * denominator``
    can pass 2**63 within a few thousand pairs (two 100-record groups have
    10,000).  Returns ``True``/``False`` once the bounds settle the
    predicate and ``None`` while it is still open.
    """
    numerator, denominator = threshold
    upper = known + pending
    bar = numerator * total
    # Already above the threshold (final p only grows from `known`), or
    # every pair is known to dominate.
    if known * denominator > bar or known == total:
        return True
    # Cannot reach the threshold any more, and p = 1 is impossible.
    if upper * denominator <= bar and upper < total:
        return False
    if pending == 0:
        # Exact: either p == 1 (upper == total == known) or p <= threshold.
        return known == total
    return None


@dataclass(frozen=True)
class RecordColumns:
    """A dataset's records and MBB corners, dimension-major, for batching.

    ``records`` is ``d × N`` (all groups' records, group after group),
    group ``g`` owning columns ``starts[g] : starts[g] + sizes[g]``;
    ``mins`` / ``maxs`` are the ``d × G`` corner columns.  Built once per
    dataset — serially from the :class:`~repro.core.groups.GroupedDataset`
    columns, in a pool worker from its group list — and read by
    :meth:`GroupComparator.count_pairs`.
    """

    records: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def of_dataset(cls, dataset) -> "RecordColumns":
        """From a :class:`~repro.core.groups.GroupedDataset`'s columns."""
        offsets = np.asarray(dataset.offsets, dtype=np.int64)
        return cls(
            records=np.ascontiguousarray(dataset.matrix.T),
            starts=offsets[:-1],
            sizes=np.diff(offsets),
            mins=np.ascontiguousarray(dataset.min_corners.T),
            maxs=np.ascontiguousarray(dataset.max_corners.T),
        )

    @classmethod
    def of_groups(cls, groups: Sequence[Group]) -> "RecordColumns":
        """From a group list whose ``index`` fields are list positions."""
        matrix = np.concatenate([group.values for group in groups], axis=0)
        sizes = np.array([group.size for group in groups], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        return cls(
            records=np.ascontiguousarray(matrix.T),
            starts=starts,
            sizes=sizes,
            mins=np.ascontiguousarray(np.minimum.reduceat(matrix, starts, axis=0).T),
            maxs=np.ascontiguousarray(np.maximum.reduceat(matrix, starts, axis=0).T),
        )


@dataclass(frozen=True)
class PairCounts:
    """What :meth:`GroupComparator.count_pairs` found for a batch of pairs.

    ``totals[p]`` is ``n_a · n_b`` of pair ``p``; ``forward`` (A over B) and
    ``backward`` (B over A) are ``(known, pending, final)`` lists of Python
    ints — the Figure-9 pre-classification's known and pending pair counts
    and the exact count once every pending pair is checked — or ``None``
    for a direction that was not counted.
    """

    totals: List[int]
    forward: Optional[Tuple[List[int], List[int], List[int]]]
    backward: Optional[Tuple[List[int], List[int], List[int]]]


def _ranges(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Owner and offset of every element of consecutive ranges of ``counts``."""
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    offset = np.arange(owner.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, offset


def _slices(totals: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive pair ranges of at most ``_SLICE_RECORD_PAIRS`` record pairs."""
    bounds = np.cumsum(totals)
    start = 0
    while start < totals.shape[0]:
        base = int(bounds[start - 1]) if start else 0
        stop = int(np.searchsorted(bounds, base + _SLICE_RECORD_PAIRS, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _count_direction(
    columns: RecordColumns, x: np.ndarray, y: np.ndarray, use_bbox: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(known, pending, final)`` of X over Y for every pair ``(x[p], y[p])``.

    The vectorised counterpart of one :class:`_DirectionalCount` per pair
    plus its :meth:`~_DirectionalCount.finish`: the same corner tests and
    region classification, then every pending record pair checked.
    """
    records = columns.records
    n_x = columns.sizes[x]
    n_y = columns.sizes[y]
    owner_x, offset_x = _ranges(n_x)
    owner_y, offset_y = _ranges(n_y)
    rec_x = columns.starts[x][owner_x] + offset_x
    rec_y = columns.starts[y][owner_y] + offset_y
    count = len(x)
    if use_bbox:
        # Corner tests first, as in _DirectionalCount._setup: no record of X
        # can dominate unless X's best corner dominates Y's worst, and the
        # domination is total when X's worst corner dominates Y's best.
        possible = _dominates(columns.maxs[:, x], columns.mins[:, y])
        whole = possible & _dominates(columns.mins[:, x], columns.maxs[:, y])
        split = possible & ~whole
        # Regions of the remaining pairs, record by record.
        x_vals = records[:, rec_x]
        y_of_x = y[owner_x]
        x_all = _dominates(x_vals, columns.maxs[:, y_of_x])
        x_mid = _dominates(x_vals, columns.mins[:, y_of_x]) & ~x_all
        y_vals = records[:, rec_y]
        x_of_y = x[owner_y]
        y_all = _dominates(columns.mins[:, x_of_y], y_vals)
        y_mid = _dominates(columns.maxs[:, x_of_y], y_vals) & ~y_all
        x_in = split[owner_x]
        y_in = split[owner_y]
        x_all &= x_in
        x_mid &= x_in
        y_all &= y_in
        y_mid &= y_in
        n_x_all = np.bincount(owner_x[x_all], minlength=count)
        n_x_mid = np.bincount(owner_x[x_mid], minlength=count)
        n_y_all = np.bincount(owner_y[y_all], minlength=count)
        n_y_mid = np.bincount(owner_y[y_mid], minlength=count)
        known = np.where(whole, n_x * n_y, n_x_all * n_y + n_x_mid * n_y_all)
        pending = n_x_mid * n_y_mid
        mid_x = rec_x[x_mid]
        mid_y = rec_y[y_mid]
    else:
        known = np.zeros(count, dtype=np.int64)
        pending = n_x * n_y
        n_x_mid, n_y_mid = n_x, n_y
        mid_x, mid_y = rec_x, rec_y
    # Every pending record pair: the cross product of each pair's remaining
    # records of X and Y.
    owner, offset = _ranges(pending)
    row = (np.cumsum(n_x_mid) - n_x_mid)[owner] + offset // n_y_mid[owner]
    col = (np.cumsum(n_y_mid) - n_y_mid)[owner] + offset % n_y_mid[owner]
    dominated = _dominates(records[:, mid_x[row]], records[:, mid_y[col]])
    final = known + np.bincount(owner[dominated], minlength=count)
    return known, pending, final


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
            direction is None or direction.exhausted
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

    def count_pairs(
        self,
        columns: RecordColumns,
        a: Sequence[int],
        b: Sequence[int],
        forward: bool = True,
    ) -> PairCounts:
        """Count the group pairs ``(a[p], b[p])`` of ``columns`` in one batch.

        Returns the backward (B over A) counts, and the forward ones unless
        ``forward=False``; :meth:`settle` turns them into outcomes.  Every
        pair must fit one kernel block (``n_a · n_b <= block_size``), so
        that the stopping rule cannot stop between blocks.  Touches no
        counter: a prepared pair costs nothing until it is settled.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        totals = columns.sizes[a] * columns.sizes[b]
        if totals.shape[0] and int(totals.max()) > self.block_size:
            raise ValueError("every batched pair must fit one kernel block")
        sides = {"backward": (b, a)}
        if forward:
            sides["forward"] = (a, b)
        # Rows: known, pending, final.
        counts = {side: np.zeros((3, a.shape[0]), dtype=np.int64) for side in sides}
        for start, stop in _slices(totals):
            for side, (x, y) in sides.items():
                counts[side][:, start:stop] = _count_direction(
                    columns, x[start:stop], y[start:stop], self.use_bbox
                )
        return PairCounts(
            totals=totals.tolist(),
            forward=tuple(counts["forward"].tolist()) if forward else None,
            backward=tuple(counts["backward"].tolist()),
        )

    def settle(
        self,
        counts: PairCounts,
        slot: int,
        need_forward: bool = True,
        need_backward: bool = True,
    ) -> ComparisonOutcome:
        """Exactly what :meth:`compare` reports for pair ``slot`` of ``counts``.

        Same verdicts, ``pairs_examined``, bbox-shortcut and
        stopping-rule-exit flags, counters and instruments.  The pair fits
        one block, so each needed direction either is decided by its
        Figure-9 bounds alone (nothing examined; an early exit if pairs are
        still pending) or resolves every pending pair in its first block.
        """
        if not (need_forward or need_backward):
            raise ValueError("at least one direction must be requested")
        self.comparisons += 1
        total = counts.totals[slot]
        gamma = self._gamma
        strong = self._strong
        pairs = 0
        shortcut = True
        early_exit = False
        verdicts = []
        for needed, direction in (
            (need_forward, counts.forward),
            (need_backward, counts.backward),
        ):
            if not needed:
                verdicts.append((False, False))
                continue
            if direction is None:
                raise ValueError("direction was not counted")
            known = direction[0][slot]
            pending = direction[1][slot]
            if pending:
                shortcut = False
                decided = (
                    self.use_stopping_rule
                    and _decide(known, pending, total, gamma) is not None
                    and _decide(known, pending, total, strong) is not None
                )
                if decided:
                    early_exit = True
                else:
                    # The first block checks every pending pair.
                    pairs += pending
                    known = direction[2][slot]
                    pending = 0
            verdicts.append((
                bool(_decide(known, pending, total, gamma)),
                bool(_decide(known, pending, total, strong)),
            ))
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
