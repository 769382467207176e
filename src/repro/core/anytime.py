"""Anytime aggregate-skyline processing.

The paper's reference [15] (Magnani, Assent, Mortensen — *Anytime skyline
query processing for interactive systems*) motivates answering skyline
queries progressively: give the user a sound partial answer immediately
and refine it while time remains.  This module brings that model to the
aggregate skyline.

The key observation is that every pairwise domination predicate is decided
by *bounds*: after examining a subset of record pairs, ``p(S > R)`` is
confined to an interval (Section 3.3's stopping rule).  Group status
follows monotonically:

* ``EXCLUDED``  — some group's lower bound already γ-dominates it;
* ``CONFIRMED`` — every potential dominator's upper bound is too low;
* ``UNDECIDED`` — anything else; shrinks as more pairs are examined.

:class:`AnytimeAggregateSkyline` exposes ``step(pair_budget)`` for
incremental refinement plus the sound partial answers
``confirmed()``/``excluded()``/``candidates()`` at any time.  Once
``done``, ``confirmed()`` is exactly the Definition-2 skyline.

Construction takes every ordered pair's Figure-9 bounds in bulk
(:func:`~repro.core.comparator.pair_counts`), and ``step`` advances the
pairs they leave undecided in rounds of the batch kernel
(:func:`~repro.core.comparator._round`), one block per pair and pass.
"""

from __future__ import annotations

import enum
from typing import Callable, Hashable, List, Optional, Union

import numpy as np

from ..obs.progress import ProgressEvent, ProgressReporter
from . import artifacts
from .comparator import (
    _bars,
    _holds,
    _next_blocks,
    _open_state,
    _round,
    ordered_pairs,
    pair_counts,
)
from .gamma import GammaLike, GammaThresholds
from .groups import GroupedDataset

__all__ = ["GroupStatus", "AnytimeAggregateSkyline"]


class GroupStatus(enum.Enum):
    CONFIRMED = "confirmed"
    EXCLUDED = "excluded"
    UNDECIDED = "undecided"


#: A group's status is held as its position in this tuple.
_STATUSES = tuple(GroupStatus)
_CONFIRMED, _EXCLUDED, _UNDECIDED = range(3)


class AnytimeAggregateSkyline:
    """Progressively refined aggregate skyline.

    Parameters
    ----------
    dataset:
        The grouped input.
    gamma:
        Definition-3 threshold (``>= .5``).
    block_size:
        Record pairs resolved per pair advance — the refinement
        granularity (smaller = smoother progress, more overhead).
    use_bbox:
        Seed every pair with the Figure-9 MBB pre-classification, which
        often decides pairs with zero record comparisons.
    """

    def __init__(
        self,
        dataset: GroupedDataset,
        gamma: GammaLike = 0.5,
        block_size: int = 256,
        use_bbox: bool = True,
    ):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.thresholds = GammaThresholds(gamma)
        threshold = [self.thresholds.gamma.as_integer_ratio()]
        self.block_size = block_size
        self._keys = dataset.keys()
        n = len(self._keys)
        self._status = np.full(n, _UNDECIDED, dtype=np.int8)
        self.pairs_examined = 0
        #: Upper bound on record-pair checks still possible after the MBB
        #: pre-classification — the denominator for progress ETAs.
        self.pair_budget = 0
        columns = artifacts.record_columns(dataset)
        open_x, open_y = [], []
        for _, x, y in ordered_pairs(n, range(n)):
            known, pending = pair_counts(columns, x, y, use_bbox, bounds_only=True)
            totals = columns.sizes[x] * columns.sizes[y]
            holds, decided = _holds(known, pending, totals, _bars(totals, threshold)[0])
            self._status[y[holds]] = _EXCLUDED  # x over y holds: y is out
            self.pair_budget += int(pending[~decided].sum())
            open_x.append(x[~decided])
            open_y.append(y[~decided])
        # The pairs the bounds leave open, as the kernel's stacked state
        # (one column per pair "x over y", in step()'s order); the open
        # list is ``_open[:, _first:]``.
        self._targets = np.concatenate(open_y)
        self._open, self._sources = _open_state(
            columns, np.concatenate(open_x), self._targets, use_bbox, block_size, threshold
        )
        self._first = 0
        #: Per group, the open pairs onto it (kept exact while it is undecided).
        self._onto = np.bincount(self._targets, minlength=n)
        self._refresh_statuses()

    # ------------------------------------------------------------------
    # refinement
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return not np.any(self._status == _UNDECIDED)

    @property
    def progress(self) -> float:
        """Fraction of groups whose status is final."""
        if not self._keys:
            return 1.0
        return np.count_nonzero(self._status != _UNDECIDED) / len(self._keys)

    def step(self, pair_budget: int = 4096) -> bool:
        """Spend up to ``pair_budget`` record-pair checks; True when done.

        Each pass walks the open pairs in order and advances each by one
        block while the spend before it is below the budget, so no group's
        verdict starves; a pair onto a decided group costs nothing and
        leaves, and one the pass did not reach stays, in order.
        """
        if pair_budget <= 0:
            raise ValueError("pair_budget must be positive")
        spent = 0
        while spent < pair_budget and not self.done:
            left = pair_budget - spent
            live = self._open[:, self._first :]
            # The pass reaches the pairs whose running spend before them is
            # below ``left``: widen the head until it holds them all.
            width = left
            while True:
                head = live[:, :width]
                wanted = self._status[self._targets[head[3]]] == _UNDECIDED
                cost = np.where(wanted, _next_blocks(head)[1], 0)
                if cost.sum() >= left or width >= live.shape[1]:
                    break
                width *= 2
            reach = int(np.searchsorted(np.cumsum(cost) - cost, left))
            moved = head[:, :reach][:, wanted[:reach]]
            if not moved.shape[1]:
                break
            _round(self._sources, moved)
            spent += int(cost[:reach].sum())
            holds, decided = _holds(moved[0], moved[1], moved[4], moved[10])
            self._status[self._targets[moved[3, holds]]] = _EXCLUDED
            np.subtract.at(self._onto, self._targets[moved[3, decided]], 1)
            # Still-open pairs keep their place in front of the rest.
            kept = moved[:, ~decided]
            self._first += reach - kept.shape[1]
            self._open[:, self._first : self._first + kept.shape[1]] = kept
            self._refresh_statuses()
        self.pairs_examined += spent
        return self.done

    def run(
        self,
        pair_budget_per_step: int = 4096,
        progress: Union[
            None, ProgressReporter, Callable[[ProgressEvent], None]
        ] = None,
    ) -> List[Hashable]:
        """Refine to completion; returns the exact skyline keys.

        ``progress`` is either a :class:`~repro.obs.progress.ProgressReporter`
        or a plain callback (wrapped in a reporter with a 0.5s heartbeat);
        it receives throttled events with groups decided / total, record
        pairs examined, and an ETA from the remaining pair budget.
        """
        reporter = self._coerce_reporter(progress)

        def heartbeat() -> None:
            if reporter is None:
                return
            reporter.update(
                done=int(np.count_nonzero(self._status != _UNDECIDED)),
                total=len(self._keys),
                pairs_examined=self.pairs_examined,
                pair_budget=self.pair_budget,
                phase="anytime-skyline",
                force=self.done,
            )

        while not self.done:
            self.step(pair_budget_per_step)
            heartbeat()
        if reporter is not None and reporter.events_emitted == 0:
            # Everything was decided by the MBB pre-classification before
            # the first step; still report the (instant) completion.
            heartbeat()
        return self.confirmed()

    @staticmethod
    def _coerce_reporter(progress) -> Optional[ProgressReporter]:
        if progress is None:
            return None
        if isinstance(progress, ProgressReporter):
            return progress
        return ProgressReporter(progress, min_interval=0.5)

    # ------------------------------------------------------------------
    # status derivation
    # ------------------------------------------------------------------

    def _refresh_statuses(self) -> None:
        # A pair that held excluded its target at once; a group is
        # confirmed once no open pair points at it.
        self._status[(self._status == _UNDECIDED) & (self._onto == 0)] = _CONFIRMED

    # ------------------------------------------------------------------
    # partial answers (always sound)
    # ------------------------------------------------------------------

    def _with(self, *codes: int) -> List[Hashable]:
        return [self._keys[g] for g in np.flatnonzero(np.isin(self._status, codes))]

    def status(self, key: Hashable) -> GroupStatus:
        try:
            return _STATUSES[self._status[self._keys.index(key)]]
        except ValueError:
            raise KeyError(f"unknown group {key!r}") from None

    def confirmed(self) -> List[Hashable]:
        """Groups guaranteed to be in the skyline."""
        return self._with(_CONFIRMED)

    def excluded(self) -> List[Hashable]:
        """Groups guaranteed to be out."""
        return self._with(_EXCLUDED)

    def candidates(self) -> List[Hashable]:
        """Upper bound on the skyline: confirmed plus undecided groups."""
        return self._with(_CONFIRMED, _UNDECIDED)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"AnytimeAggregateSkyline(progress={self.progress:.2f},"
            f" confirmed={len(self.confirmed())},"
            f" excluded={len(self.excluded())})"
        )
