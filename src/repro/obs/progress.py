"""Progress / heartbeat callbacks for long-running skyline computations.

The anytime engine (:mod:`repro.core.anytime`) refines group verdicts in
record-pair increments; the worst case is bounded by the *pair budget* of
:func:`repro.core.diagnostics.dataset_statistics`.  This module turns those
two numbers into throttled heartbeat events with an ETA, for CLIs and
services that want to show "42/100 groups decided, ~3s left" instead of a
silent spinner.

Usage::

    reporter = ProgressReporter(lambda e: print(e.describe()), min_interval=0.5)
    engine.run(progress=reporter)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "ProgressEvent",
    "ProgressReporter",
    "eta_from_chunks",
    "eta_from_pair_budget",
]


def eta_from_pair_budget(
    pairs_examined: int, pair_budget: Optional[int], elapsed_seconds: float
) -> Optional[float]:
    """Remaining seconds, extrapolated from the pair-examination rate.

    Returns ``None`` when no budget is known or no work happened yet.
    """
    if not pair_budget or pairs_examined <= 0 or elapsed_seconds <= 0:
        return None
    rate = pairs_examined / elapsed_seconds
    remaining = max(0, pair_budget - pairs_examined)
    return remaining / rate


def eta_from_chunks(
    chunks_done: int, chunks_total: Optional[int], elapsed_seconds: float
) -> Optional[float]:
    """Remaining seconds, extrapolated from the pool's chunk rate.

    The right estimator for pooled runs: the serial pair budget wildly
    overestimates when ``workers=N`` chew through pairs N-at-a-time,
    while delivered chunks track real pool throughput whatever the
    schedule looks like.
    """
    if not chunks_total or chunks_done <= 0 or elapsed_seconds <= 0:
        return None
    rate = chunks_done / elapsed_seconds
    remaining = max(0, chunks_total - chunks_done)
    return remaining / rate


@dataclass
class ProgressEvent:
    """One heartbeat: how far along a computation is."""

    phase: str
    done: int
    total: int
    pairs_examined: int = 0
    pair_budget: Optional[int] = None
    elapsed_seconds: float = 0.0
    eta_seconds: Optional[float] = None
    #: Pooled-run telemetry: chunks done / total chunks / chunks a caller
    #: reports as moved between workers.  ``chunks_total`` set means a
    #: pool is driving this run and the ETA came from the chunk rate.
    chunks_done: int = 0
    chunks_total: Optional[int] = None
    chunks_stolen: int = 0

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0

    @property
    def finished(self) -> bool:
        return self.total > 0 and self.done >= self.total

    def describe(self) -> str:
        parts = [f"{self.phase or 'progress'}: {self.done}/{self.total}"]
        if self.chunks_total:
            chunk = f"{self.chunks_done}/{self.chunks_total} chunks"
            if self.chunks_stolen:
                chunk += f" ({self.chunks_stolen} stolen)"
            parts.append(chunk)
        if self.pairs_examined:
            parts.append(f"{self.pairs_examined} pairs")
        parts.append(f"{self.elapsed_seconds:.1f}s elapsed")
        if self.eta_seconds is not None:
            parts.append(f"~{self.eta_seconds:.1f}s left")
        return ", ".join(parts)


class ProgressReporter:
    """Wraps a callback with throttling and ETA computation.

    Parameters
    ----------
    callback:
        Called with a :class:`ProgressEvent` at most every ``min_interval``
        seconds (final/forced events always go through).
    min_interval:
        Heartbeat floor in seconds; ``0`` emits on every update.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        callback: Callable[[ProgressEvent], None],
        min_interval: float = 0.5,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if min_interval < 0:
            raise ValueError("min_interval must be >= 0")
        self._callback = callback
        self._min_interval = min_interval
        self._clock = clock
        self._started = clock()
        self._last_emit: Optional[float] = None
        self._finished_emitted = False
        self.events_emitted = 0

    def update(
        self,
        done: int,
        total: int,
        pairs_examined: int = 0,
        pair_budget: Optional[int] = None,
        phase: str = "",
        force: bool = False,
        chunks_done: int = 0,
        chunks_total: Optional[int] = None,
        chunks_stolen: int = 0,
    ) -> Optional[ProgressEvent]:
        """Maybe emit a heartbeat; returns the event if one was emitted.

        The "finished" heartbeat (``done >= total``) bypasses throttling but
        is emitted exactly once: any further post-completion update — even a
        forced one — is suppressed, so callers that poll after completion do
        not re-announce the finish.

        When ``chunks_total`` is given (pooled runs), the ETA comes from
        :func:`eta_from_chunks` — the serial pair budget is not a
        meaningful yardstick for a ``workers=N`` pool.
        """
        now = self._clock()
        finished = total > 0 and done >= total
        if finished and self._finished_emitted:
            return None
        if not (force or finished):
            if (
                self._last_emit is not None
                and now - self._last_emit < self._min_interval
            ):
                return None
        elapsed = now - self._started
        if chunks_total:
            eta = eta_from_chunks(chunks_done, chunks_total, elapsed)
        else:
            eta = eta_from_pair_budget(pairs_examined, pair_budget, elapsed)
        event = ProgressEvent(
            phase=phase,
            done=done,
            total=total,
            pairs_examined=pairs_examined,
            pair_budget=pair_budget,
            elapsed_seconds=elapsed,
            eta_seconds=eta,
            chunks_done=chunks_done,
            chunks_total=chunks_total,
            chunks_stolen=chunks_stolen,
        )
        self._last_emit = now
        if finished:
            self._finished_emitted = True
        self.events_emitted += 1
        self._callback(event)
        return event
