"""Shared driver machinery for the aggregate-skyline algorithms.

Every algorithm from Section 3 of the paper is a subclass of
:class:`AggregateSkylineAlgorithm`; they share group-status bookkeeping
(active / dominated / strongly dominated) and the work counters the
benchmarks report.

Two pruning policies are supported (see DESIGN.md, "Semantics and
faithfulness notes"):

``prune_policy="paper"``
    The verbatim pseudocode: groups marked *strongly dominated* (γ̄-level)
    are skipped entirely, both as candidates and as potential dominators.
    Weak transitivity (Prop. 5) guarantees their γ̄-exclusions are inherited
    by their own dominator, but merely-γ exclusions are not covered, so in
    adversarial configurations the result can be a strict superset of the
    exact Definition-2 skyline.

``prune_policy="safe"``
    Exact under Definition 2: an excluded group is skipped as a *candidate*
    (its fate is sealed), but it is still probed — one-directionally, which
    is cheap with the stopping rule — as a potential *dominator* of groups
    whose fate is still open.
"""

from __future__ import annotations

import abc
from functools import partial
from itertools import islice
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from ...obs import metrics as obs_metrics
from ...obs import runlog as obs_runlog
from ...obs import tracing as obs_tracing
from ...obs.sampler import profile_phase
from ..comparator import ComparisonOutcome, GroupComparator, RecordColumns
from .. import artifacts, row_batch
from ..gamma import GammaLike, GammaThresholds
from ..groups import Group, GroupedDataset
from ..result import AggregateSkylineResult, AlgorithmStats, Timer
from ..row_batch import Prepared, RowBatch

__all__ = ["AggregateSkylineAlgorithm", "GroupState", "PRUNE_POLICIES"]

PRUNE_POLICIES = ("paper", "safe")


def _record_run_metrics(registry, stats: AlgorithmStats) -> None:
    """Flush one run's end-of-run counters into ``registry``.

    Runs once per ``compute()`` (a handful of locked adds), so it is always
    on; the registry therefore reconciles exactly with
    :class:`~repro.core.result.AlgorithmStats` after every run.
    """
    label = {"algorithm": stats.algorithm or "?"}
    registry.counter(
        "skyline_runs_total",
        "Aggregate-skyline computations",
        ("algorithm",),
    ).inc(1, **label)
    registry.counter(
        "skyline_group_comparisons_total",
        "Group-vs-group comparisons (Equation 3 outer term)",
        ("algorithm",),
    ).inc(stats.group_comparisons, **label)
    registry.counter(
        "skyline_record_pairs_total",
        "Record-pair dominance checks (Equation 4 inner term)",
        ("algorithm",),
    ).inc(stats.record_pairs_examined, **label)
    registry.counter(
        "skyline_bbox_shortcuts_total",
        "Comparisons fully resolved by MBB corners",
        ("algorithm",),
    ).inc(stats.bbox_shortcuts, **label)
    registry.counter(
        "skyline_groups_skipped_total",
        "Candidate groups skipped by the pruning policy",
        ("algorithm",),
    ).inc(stats.groups_skipped, **label)
    registry.counter(
        "skyline_index_candidates_total",
        "Groups returned by index window queries",
        ("algorithm",),
    ).inc(stats.index_candidates, **label)
    registry.counter(
        "skyline_stopping_rule_exits_total",
        "Comparisons decided early by the Section-3.3 stopping rule",
        ("algorithm",),
    ).inc(stats.stopping_rule_exits, **label)
    registry.histogram(
        "skyline_run_seconds",
        "Wall-clock time of one aggregate-skyline computation",
        ("algorithm",),
        buckets=obs_metrics.DEFAULT_LATENCY_BUCKETS,
    ).observe(stats.elapsed_seconds, **label)


class GroupState:
    """Per-group dominance status shared by every algorithm."""

    __slots__ = ("dominated", "strong")

    def __init__(self, n_groups: int):
        self.dominated = [False] * n_groups
        self.strong = [False] * n_groups

    def mark_dominated(self, index: int) -> None:
        self.dominated[index] = True

    def mark_strong(self, index: int) -> None:
        self.dominated[index] = True
        self.strong[index] = True

    def is_dominated(self, index: int) -> bool:
        return self.dominated[index]

    def is_strong(self, index: int) -> bool:
        return self.strong[index]

    def mark(self, dominated: Iterable[int], strong: Iterable[int]) -> None:
        """Mark the ``dominated`` groups, and of those the ``strong`` ones
        strongly dominated (a chunk outcome's lists)."""
        for index in dominated:
            self.dominated[index] = True
        for index in strong:
            self.strong[index] = True

    def surviving_keys(self, groups: List[Group]) -> List[Hashable]:
        return [
            group.key
            for group, out in zip(groups, self.dominated)
            if not out
        ]


class AggregateSkylineAlgorithm(abc.ABC):
    """Base class: configuration, statistics, and the compute() template."""

    #: Short identifier used in benchmark output (paper's NL/TR/SI/IN/LO).
    name = "?"

    def __init__(
        self,
        gamma: GammaLike = 0.5,
        use_stopping_rule: bool = True,
        use_bbox: bool = False,
        prune_policy: str = "paper",
        block_size: int = 1024,
    ):
        if prune_policy not in PRUNE_POLICIES:
            raise ValueError(
                f"prune_policy must be one of {PRUNE_POLICIES}, got {prune_policy!r}"
            )
        self.thresholds = GammaThresholds(gamma)
        self.prune_policy = prune_policy
        self.comparator = GroupComparator(
            self.thresholds,
            use_stopping_rule=use_stopping_rule,
            use_bbox=use_bbox,
            block_size=block_size,
        )
        self._groups_skipped = 0
        self._index_candidates = 0
        #: Optional :class:`~repro.obs.progress.ProgressReporter` consulted
        #: by pooled execution paths (PAR and parallel IN/LO): when set,
        #: the parent polls chunk-claim telemetry while the pool runs and
        #: heartbeats with a chunk-rate ETA.  Serial paths ignore it.
        self.progress_reporter = None
        #: The dataset of the in-flight compute() (None outside one).
        #: Index-driven subclasses use it to reach the columnar corner
        #: matrices and the content-keyed derived-artifact cache
        #: (:mod:`repro.core.artifacts`).
        self._dataset: Optional[GroupedDataset] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def compute(self, dataset: GroupedDataset) -> AggregateSkylineResult:
        """Run the algorithm and return surviving group keys plus stats.

        Observability: a root ``skyline.compute`` span (with a nested
        ``skyline.candidates`` phase span around the candidate loop) is
        recorded when tracing is enabled, the end-of-run counters are
        always flushed into the process-global metrics registry, and
        ``run_start`` / ``run_end`` / ``run_error`` events — correlated
        with the span's trace id — go to the structured run log.  Setting
        ``$REPRO_PROFILE_DIR`` additionally cProfiles the candidate phase
        into one ``pstats`` dump per run.
        """
        tracer = obs_tracing.get_tracer()
        self.comparator.reset_stats()
        self._groups_skipped = 0
        self._index_candidates = 0
        state = GroupState(len(dataset))
        groups = dataset.groups
        bound_metrics = obs_metrics.is_enabled()
        if bound_metrics:
            self.comparator.bind_metrics(
                obs_metrics.get_registry(), algorithm=self.name
            )
        root = tracer.span(
            "skyline.compute",
            algorithm=self.name,
            groups=len(groups),
            gamma=float(self.thresholds.gamma),
            prune_policy=self.prune_policy,
        )
        self._dataset = dataset
        try:
            with root:
                obs_runlog.emit(
                    "run_start",
                    algorithm=self.name,
                    groups=len(groups),
                    gamma=float(self.thresholds.gamma),
                    prune_policy=self.prune_policy,
                )
                try:
                    with Timer() as timer:
                        with tracer.span("skyline.candidates"):
                            with profile_phase(f"{self.name}.candidates"):
                                self._run(groups, state)
                except BaseException as exc:
                    obs_runlog.emit_error(
                        "run_error", exc, algorithm=self.name
                    )
                    raise
                # run_end is emitted while the root span is still open so
                # the event shares its trace_id/span_id.
                if obs_runlog.get_runlog().enabled:
                    obs_runlog.emit(
                        "run_end",
                        algorithm=self.name,
                        elapsed_seconds=timer.elapsed,
                        survivors=len(state.surviving_keys(groups)),
                        group_comparisons=self.comparator.comparisons,
                        record_pairs_examined=self.comparator.pairs_examined,
                    )
        finally:
            self._dataset = None
            if bound_metrics:
                self.comparator.unbind_metrics()
        stats = AlgorithmStats(
            algorithm=self.name,
            group_comparisons=self.comparator.comparisons,
            record_pairs_examined=self.comparator.pairs_examined,
            bbox_shortcuts=self.comparator.bbox_shortcuts,
            groups_skipped=self._groups_skipped,
            index_candidates=self._index_candidates,
            stopping_rule_exits=self.comparator.stopping_rule_exits,
            elapsed_seconds=timer.elapsed,
        )
        keys = state.surviving_keys(groups)
        if root.is_recording:
            root.set_attribute("survivors", len(keys))
            root.set_attribute("group_comparisons", stats.group_comparisons)
            root.set_attribute(
                "record_pairs_examined", stats.record_pairs_examined
            )
            root.set_attribute("bbox_shortcuts", stats.bbox_shortcuts)
        _record_run_metrics(obs_metrics.get_registry(), stats)
        return AggregateSkylineResult(
            keys=keys,
            gamma=float(self.thresholds.gamma),
            stats=stats,
            trace=root if root.is_recording else None,
        )

    # ------------------------------------------------------------------
    # subclass hook
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _run(self, groups: List[Group], state: GroupState) -> None:
        """Populate ``state`` with dominated / strongly-dominated marks."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    #: Set by index-driven algorithms, where every group's verdict comes from
    #: its *own* window query: there a group whose verdict is sealed can be
    #: skipped as candidate without affecting anyone else's verdict.  In
    #: pair-once loops (NL/TR/SI) a dominated candidate must still be probed
    #: one-directionally as a dominator, so the safe policy never skips it.
    _verdicts_are_independent = False

    def _excluded_as_candidate(self, index: int, state: GroupState) -> bool:
        """Is ``index`` excluded as a candidate ``g1`` (without counting)?"""
        if self.prune_policy == "paper":
            return state.is_strong(index)
        if self._verdicts_are_independent:
            return state.is_dominated(index)
        return False

    def _skip_as_candidate(self, index: int, state: GroupState) -> bool:
        """Should ``index`` be skipped as the current candidate ``g1``?"""
        skip = self._excluded_as_candidate(index, state)
        if skip:
            self._groups_skipped += 1
        return skip

    def _needs(
        self, state: GroupState, i: int, j: int
    ) -> Optional[Tuple[bool, bool]]:
        """The directions of ``(g_i, g_j)`` the pruning policy still needs.

        ``(forward, backward)``, forward being ``g_i`` over ``g_j``, or
        ``None`` when the policy skips the pair.  The paper policy skips a
        strongly dominated ``g_j`` and otherwise needs both directions;
        the safe policy drops the directions that can no longer change
        any verdict instead of whole groups.  Marks only grow, so a later
        call never needs more.
        """
        if self.prune_policy == "paper":
            return None if state.strong[j] else (True, True)
        forward = not state.dominated[j]
        backward = not state.dominated[i]
        return (forward, backward) if forward or backward else None

    def _compare_pair(
        self,
        groups: List[Group],
        i: int,
        j: int,
        state: GroupState,
        prepared: Optional[Prepared] = None,
    ) -> Optional[ComparisonOutcome]:
        """Algorithm-3 inner step for the pair ``(g_i, g_j)``.

        Applies the pruning policy (:meth:`_needs`), performs the
        (possibly one-directional) comparison and updates ``state``.
        Returns the raw outcome, or ``None`` when the pair was skipped
        entirely.  Callers should stop processing ``g_i`` when the outcome
        says it became strongly dominated (``d21_strong``) — and, under the
        safe policy, already when it is merely dominated.  ``prepared`` is
        ``(outcomes, forward slot, backward slot)`` when a
        :class:`~repro.core.row_batch.RowBatch` already decided this pair;
        the outcome is then settled from it, identically to ``compare()``.
        """
        needs = self._needs(state, i, j)
        if needs is None:
            self._groups_skipped += 1
            return None
        need_forward, need_backward = needs
        if prepared is None:
            outcome = self.comparator.compare(
                groups[i], groups[j],
                need_forward=need_forward,
                need_backward=need_backward,
            )
        else:
            outcome = self.comparator.settle(
                *prepared,
                need_forward=need_forward,
                need_backward=need_backward,
            )
        if outcome.d12_strong:
            state.mark_strong(j)
        elif outcome.d12:
            state.mark_dominated(j)
        if outcome.d21_strong:
            state.mark_strong(i)
        elif outcome.d21:
            state.mark_dominated(i)
        return outcome

    def _batch_columns(self, groups: List[Group]) -> RecordColumns:
        """The record columns the batch kernel compares over (cached by
        dataset content when the groups are the dataset's)."""
        dataset = self._dataset
        if dataset is not None and len(dataset) == len(groups):
            return artifacts.record_columns(dataset)
        return RecordColumns.of_groups(groups)

    def _run_rows(
        self, groups: List[Group], state: GroupState, order: Sequence[int]
    ) -> None:
        """Algorithm 3's loop over ``order``, decided ahead in row batches.

        Each polled candidate meets the groups after it in ``order`` (TR:
        index order; SI: its sort).  The loop runs exactly as the paper's
        does — same skips, marks and breaks via :meth:`_compare_pair` —
        and replays its pairs from :class:`~repro.core.row_batch.RowBatch`
        decisions: a polled candidate no batch covers batches itself and
        the next candidates not yet excluded, each with the first members
        of its row, and when the loop passes a candidate's batched prefix
        its next members are decided as a one-candidate batch twice as
        wide as the last.  Doubling keeps decided-but-unused pairs, after
        a break, under half of the row's work.
        """
        columns = self._batch_columns(groups)
        paper = self.prune_policy == "paper"
        needs = partial(self._needs, state)
        count = len(order)
        batch: Optional[RowBatch] = None
        for rank, i in enumerate(order):
            if self._skip_as_candidate(i, state):
                continue
            if batch is None or i not in batch.rows:
                upcoming = (
                    (candidate, order, position + 1)
                    for position, candidate in enumerate(islice(order, rank, None), rank)
                    if not self._excluded_as_candidate(candidate, state)
                )
                batch = RowBatch(self.comparator, columns, upcoming, needs)
            _, prepared, covered = batch.rows[i]
            width = row_batch.BATCH_MEMBERS
            for position in range(rank + 1, count):
                j = order[position]
                if position >= covered:
                    width *= 2
                    tail = RowBatch(
                        self.comparator, columns, [(i, order, position)], needs, width
                    )
                    _, prepared, covered = tail.rows[i]
                outcome = self._compare_pair(groups, i, j, state, prepared.get(j))
                if outcome is None:
                    continue
                if outcome.d21_strong and paper:
                    # "end processing of g1" (Algorithm 3, line 19).  The
                    # safe policy keeps looping: the sealed candidate may
                    # still dominate later groups, which _compare_pair
                    # handles with cheap one-directional probes.
                    break
