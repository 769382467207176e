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
(:func:`~repro.core.comparator.pair_counts`), and only the pairs they
leave undecided get a per-pair counter for ``step`` to advance.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

from ..obs.progress import ProgressEvent, ProgressReporter
from . import artifacts
from .comparator import _bars, _DirectionalCount, _holds, ordered_pairs, pair_counts
from .gamma import GammaLike, GammaThresholds
from .groups import GroupedDataset

__all__ = ["GroupStatus", "AnytimeAggregateSkyline"]


class GroupStatus(enum.Enum):
    CONFIRMED = "confirmed"
    EXCLUDED = "excluded"
    UNDECIDED = "undecided"


class AnytimeAggregateSkyline:
    """Progressively refined aggregate skyline.

    Parameters
    ----------
    dataset:
        The grouped input.
    gamma:
        Definition-3 threshold (``>= .5``).
    block_size:
        Record pairs resolved per probe advance — the refinement
        granularity (smaller = smoother progress, more overhead).
    use_bbox:
        Seed every probe with the Figure-9 MBB pre-classification, which
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
        self._gamma = self.thresholds.gamma.as_integer_ratio()
        self.block_size = block_size
        self._groups = dataset.groups
        self._keys = [group.key for group in self._groups]
        n = len(self._groups)
        self._status = [GroupStatus.UNDECIDED] * n
        self.pairs_examined = 0

        # One probe per ordered pair (i dominating j) the bulk bounds leave
        # undecided, created lazily so bbox-decided pairs never allocate
        # more than the counter; a pair they decide for i excludes j.
        self._probes: Dict[Tuple[int, int], _DirectionalCount] = {}
        self._undecided_pairs: List[Tuple[int, int]] = []
        self._by_target: List[List[_DirectionalCount]] = [[] for _ in range(n)]
        #: Upper bound on record-pair checks still possible after the MBB
        #: pre-classification — the denominator for progress ETAs.
        self.pair_budget = 0
        columns = artifacts.record_columns(dataset)
        for _, x, y in ordered_pairs(n, range(n)):
            known, pending = pair_counts(columns, x, y, use_bbox, bounds_only=True)
            totals = columns.sizes[x] * columns.sizes[y]
            bars = _bars(totals, [self._gamma])[0]
            holds, decided = _holds(known, pending, totals, bars)
            for j in y[holds].tolist():
                self._status[j] = GroupStatus.EXCLUDED
            self.pair_budget += int(pending[~decided].sum())
            for i, j in zip(x[~decided].tolist(), y[~decided].tolist()):
                probe = _DirectionalCount(self._groups[i], self._groups[j], use_bbox)
                self._probes[(i, j)] = probe
                self._by_target[j].append(probe)
                self._undecided_pairs.append((i, j))
        self._refresh_statuses()

    # ------------------------------------------------------------------
    # refinement
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return all(s is not GroupStatus.UNDECIDED for s in self._status)

    @property
    def progress(self) -> float:
        """Fraction of groups whose status is final."""
        decided = sum(
            1 for s in self._status if s is not GroupStatus.UNDECIDED
        )
        return decided / len(self._status) if self._status else 1.0

    def step(self, pair_budget: int = 4096) -> bool:
        """Spend up to ``pair_budget`` record-pair checks; True when done.

        Work is spread round-robin over the pairs that can still influence
        an undecided group, so no group's verdict starves.
        """
        if pair_budget <= 0:
            raise ValueError("pair_budget must be positive")
        spent = 0
        while spent < pair_budget and not self.done:
            progressed = False
            still_open: List[Tuple[int, int]] = []
            for i, j in self._undecided_pairs:
                if spent >= pair_budget:
                    still_open.append((i, j))
                    continue
                if self._status[j] is not GroupStatus.UNDECIDED:
                    continue  # j's fate is sealed; pair is irrelevant
                probe = self._probes[(i, j)]
                if probe.decide(self._gamma) is not None:
                    continue
                advanced = probe.advance(self.block_size)
                spent += advanced
                progressed = progressed or advanced > 0
                if probe.decide(self._gamma) is None:
                    still_open.append((i, j))
            self._undecided_pairs = still_open
            self._refresh_statuses()
            if not progressed:
                break
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
            decided = sum(
                1 for s in self._status if s is not GroupStatus.UNDECIDED
            )
            reporter.update(
                done=decided,
                total=len(self._status),
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
        # A group is excluded once a verdict γ-dominates it (the bulk bounds
        # excluded theirs in __init__), and confirmed once none is open.
        for j, probes in enumerate(self._by_target):
            if self._status[j] is not GroupStatus.UNDECIDED:
                continue
            found = {probe.decide(self._gamma) for probe in probes}
            if True in found:
                self._status[j] = GroupStatus.EXCLUDED
            elif None not in found:
                self._status[j] = GroupStatus.CONFIRMED

    # ------------------------------------------------------------------
    # partial answers (always sound)
    # ------------------------------------------------------------------

    def status(self, key: Hashable) -> GroupStatus:
        return self._status[self._keys.index(key)]

    def confirmed(self) -> List[Hashable]:
        """Groups guaranteed to be in the skyline."""
        return [
            key
            for key, status in zip(self._keys, self._status)
            if status is GroupStatus.CONFIRMED
        ]

    def excluded(self) -> List[Hashable]:
        """Groups guaranteed to be out."""
        return [
            key
            for key, status in zip(self._keys, self._status)
            if status is GroupStatus.EXCLUDED
        ]

    def candidates(self) -> List[Hashable]:
        """Upper bound on the skyline: confirmed plus undecided groups."""
        return [
            key
            for key, status in zip(self._keys, self._status)
            if status is not GroupStatus.EXCLUDED
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"AnytimeAggregateSkyline(progress={self.progress:.2f},"
            f" confirmed={len(self.confirmed())},"
            f" excluded={len(self.excluded())})"
        )
