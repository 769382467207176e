"""Statistics-driven choice of the physical skyline algorithm.

The paper's evaluation (Section 4) shows no algorithm wins everywhere:
``NL`` on tiny problems (every overhead dominates), ``SI`` when group MBBs
overlap heavily (Figure 11 — window queries return nearly everything while
the index still costs its build), the index methods ``LO``/``IN``
otherwise, ``PAR`` when a worker pool is available.  This module turns
that regime analysis into an explicit cost model over
:class:`~repro.plan.stats.PlanStatistics`, rejects candidates by two
guardrails (tiny pair budget, heavy overlap) and picks the cheapest *kept*
candidate.  :func:`repro.core.diagnostics.suggest_algorithm` (``aggskyline
stats``) returns this module's choice for a serial query at γ = 0.5.

Cost model (unit: comparator work ~ one record pair).  With ``P`` the pair
budget, ``G`` the group count, ``ω`` the sampled MBB overlap, ``γ`` the
threshold and ``w`` the resolved worker count (1 when serial)::

    NL  = 2γ·P
    TR  = 2_000 + 2γ·0.9·P                      (presort + early breaks)
    SI  = G·log2(G+1) + 5_000 + 2γ·0.55·P       (sorted access + bbox)
    IN  = 4G·log2(G+1) + 2_000 + 2γ·(0.20 + 0.80ω)·P / w
    LO  = 4G·log2(G+1) + 2_000 + 2γ·(0.12 + 0.55ω)·P / w
    PAR = 3_000 + 2γ·P / w
    SQL = 2γ·25·P                               (always rejected: baseline)

The pair-term coefficients are distilled from this reproduction's own
measurements (EXPERIMENTS.md): how much of the worst-case pair budget each
algorithm's optimisations typically shave, and how that saving erodes as
overlap grows for the window-query methods.  The uniform ``2γ`` factor
models γ's selectivity (larger γ keeps more groups alive longer); it
scales every candidate alike, so it shows sensitivity in ``EXPLAIN``
without flipping rankings.

Planner decisions for ``algorithm="auto"`` are memoised per
``(dataset fingerprint, plan shape, execution)`` through the
:mod:`~repro.core.artifacts` cache — a mutated
:class:`~repro.core.incremental.IncrementalAggregateSkyline` snapshot
changes its fingerprint and misses naturally, which *is* the invalidation
story.  Hits/misses surface as ``plan_cache_{hits,misses}_total`` counters
and every planning pass emits ``plan_start``/``plan_choice`` run-log
events, so planning is observable like every other phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core import artifacts
from ..core.algorithms import ALGORITHMS
from ..core.execution import ExecutionConfig
from ..obs import metrics as obs_metrics
from ..obs import runlog as obs_runlog
from .logical import LogicalPlan
from .stats import PlanStatistics, collect_statistics

__all__ = [
    "AUTO_ALGORITHM",
    "TINY_PAIR_BUDGET",
    "HIGH_OVERLAP",
    "CandidateCost",
    "PlanDecision",
    "estimate_costs",
    "decide",
    "optimize",
]

#: The ``algorithm=`` value that delegates the choice to this module.
AUTO_ALGORITHM = "AUTO"

#: Below this pair budget every overhead dominates — NL wins outright.
TINY_PAIR_BUDGET = 50_000

#: At this sampled MBB overlap the window-query methods degenerate
#: (Figure 11's crossover; same threshold as ``AD``).
HIGH_OVERLAP = 0.65

#: Candidate order is fixed so EXPLAIN output is deterministic.
CANDIDATES = ("NL", "TR", "SI", "IN", "LO", "PAR", "SQL")


@dataclass(frozen=True)
class CandidateCost:
    """One candidate's estimated cost and keep/reject verdict."""

    algorithm: str
    cost: float
    kept: bool
    reason: str

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "cost": self.cost,
            "kept": self.kept,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CandidateCost":
        return cls(
            algorithm=str(data["algorithm"]),
            cost=float(data["cost"]),
            kept=bool(data["kept"]),
            reason=str(data["reason"]),
        )


@dataclass
class PlanDecision:
    """What the planner decided, and why — attached to every result.

    ``forced`` decisions (an explicit ``algorithm=`` through any entry
    path) carry no statistics or candidates unless they were probed for
    ``EXPLAIN``: the forced fast path must stay bit-identical to the
    pre-planner behaviour, including not sampling overlap pairs.
    """

    requested: str
    algorithm: str
    forced: bool
    cached: bool = False
    entry: str = "api"
    statistics: Optional[dict] = None
    candidates: Tuple[CandidateCost, ...] = ()

    def as_dict(self) -> dict:
        data: Dict[str, Any] = {
            "requested": self.requested,
            "algorithm": self.algorithm,
            "forced": self.forced,
            "cached": self.cached,
            "entry": self.entry,
        }
        if self.statistics is not None:
            data["statistics"] = dict(self.statistics)
        if self.candidates:
            data["candidates"] = [c.as_dict() for c in self.candidates]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlanDecision":
        return cls(
            requested=str(data["requested"]),
            algorithm=str(data["algorithm"]),
            forced=bool(data["forced"]),
            cached=bool(data.get("cached", False)),
            entry=str(data.get("entry", "api")),
            statistics=(
                dict(data["statistics"])
                if data.get("statistics") is not None
                else None
            ),
            candidates=tuple(
                CandidateCost.from_dict(c)
                for c in data.get("candidates", ())
            ),
        )

    def describe_lines(self) -> List[str]:
        """The EXPLAIN annotation block under the skyline node.

        Deliberately excludes ``entry`` and ``cached`` so the same query
        renders the same tree from SQL, CLI and serve mode, on cold and
        repeat invocations alike.
        """
        from .stats import describe_statistics

        lines: List[str] = []
        if self.statistics is not None:
            lines.append(describe_statistics(self.statistics))
        for candidate in self.candidates:
            mark = ""
            if candidate.algorithm == self.algorithm:
                mark = "  <- forced by caller" if self.forced else "  <- chosen"
            lines.append(
                f"{candidate.algorithm:<4} cost≈{candidate.cost:,.0f}"
                f"  {candidate.reason}{mark}"
            )
        if not self.candidates:
            lines.append(
                f"algorithm {self.algorithm} forced by caller (not costed)"
            )
        return lines


def _gamma_factor(gamma) -> float:
    """``2γ`` as a float — γ may arrive as float, Fraction or string."""
    from ..core.gamma import GammaThresholds

    return 2.0 * float(GammaThresholds(gamma).gamma)


def estimate_costs(
    statistics: PlanStatistics,
    execution: Optional[ExecutionConfig],
    gamma=0.5,
) -> List[CandidateCost]:
    """Cost every candidate and apply the keep/reject guardrails."""
    pairs = float(max(statistics.pair_budget, 0))
    groups = max(statistics.groups, 1)
    overlap = statistics.overlap
    log_g = math.log2(groups + 1)
    index_overhead = 4.0 * groups * log_g + 2_000.0
    sort_overhead = groups * log_g
    parallel = execution is not None and execution.parallel
    workers = float(execution.resolve_workers()) if parallel else 1.0
    scale = _gamma_factor(gamma)

    costs = {
        "NL": scale * pairs,
        "TR": 2_000.0 + scale * 0.9 * pairs,
        "SI": sort_overhead + 5_000.0 + scale * 0.55 * pairs,
        "IN": index_overhead + scale * (0.20 + 0.80 * overlap) * pairs / workers,
        "LO": index_overhead + scale * (0.12 + 0.55 * overlap) * pairs / workers,
        "PAR": 3_000.0 + scale * pairs / workers,
        "SQL": scale * 25.0 * pairs,
    }

    tiny = statistics.pair_budget <= TINY_PAIR_BUDGET
    crowded = overlap >= HIGH_OVERLAP
    verdicts: List[CandidateCost] = []
    for name in CANDIDATES:
        kept = True
        reason = "kept"
        supports = getattr(ALGORITHMS[name], "supports_execution", False)
        if name == "SQL":
            kept = False
            reason = "rejected: sqlite measurement baseline, never auto-picked"
        elif execution is not None and not supports:
            kept = False
            reason = "rejected: no pooled path for the given ExecutionConfig"
        elif execution is None and name == "PAR":
            kept = False
            reason = "rejected: needs an ExecutionConfig (query is serial)"
        elif execution is None and tiny and name != "NL":
            kept = False
            reason = (
                f"rejected: pair budget ≤ {TINY_PAIR_BUDGET}"
                " — overheads dominate, NL wins tiny problems"
            )
        elif crowded and name in ("IN", "LO"):
            kept = False
            reason = (
                f"rejected: MBB overlap ≥ {HIGH_OVERLAP:.0%}"
                " — window queries degenerate (Figure 11)"
            )
        verdicts.append(
            CandidateCost(
                algorithm=name, cost=costs[name], kept=kept, reason=reason
            )
        )
    return verdicts


def _execution_signature(execution: Optional[ExecutionConfig]) -> Tuple:
    if execution is None:
        return ()
    return tuple(sorted(execution.to_dict().items()))


def decide(
    dataset,
    logical: LogicalPlan,
    *,
    gamma,
    algorithm: str,
    execution: Optional[ExecutionConfig] = None,
    entry: str = "api",
    probe: bool = False,
    sample_pairs: int = 256,
    seed: int = 0,
) -> PlanDecision:
    """Resolve ``algorithm`` (a name or ``"auto"``) to a `PlanDecision`.

    Explicit names short-circuit: no statistics probe, no cache traffic —
    the forced path stays bit-identical to pre-planner behaviour.
    ``probe=True`` (the EXPLAIN path) computes statistics and candidate
    costs even for a forced algorithm, so the rendered tree always shows
    what the optimizer *would* have said.
    """
    name = str(algorithm).strip().upper()
    forced = name != AUTO_ALGORITHM
    runlog_on = obs_runlog.get_runlog().enabled
    if runlog_on:
        obs_runlog.emit(
            "plan_start",
            entry=entry,
            requested=name,
            groups=len(dataset),
            gamma=str(gamma),
        )

    if forced and not probe:
        decision = PlanDecision(
            requested=name, algorithm=name, forced=True, entry=entry
        )
    elif forced:
        statistics = collect_statistics(
            dataset, sample_pairs=sample_pairs, seed=seed
        )
        decision = PlanDecision(
            requested=name,
            algorithm=name,
            forced=True,
            entry=entry,
            statistics=statistics.as_dict(),
            candidates=tuple(estimate_costs(statistics, execution, gamma)),
        )
    else:
        params = (
            logical.shape(),
            _execution_signature(execution),
            sample_pairs,
            seed,
        )
        built: List[bool] = []

        def build() -> dict:
            built.append(True)
            statistics = collect_statistics(
                dataset, sample_pairs=sample_pairs, seed=seed
            )
            candidates = estimate_costs(statistics, execution, gamma)
            kept = [c for c in candidates if c.kept]
            chosen = min(kept, key=lambda c: c.cost)
            return {
                "algorithm": chosen.algorithm,
                "statistics": statistics.as_dict(),
                "candidates": [c.as_dict() for c in candidates],
            }

        if artifacts.cache_enabled():
            payload = artifacts.get_cache().get_or_build(
                dataset, "plan_choice", params, build
            )
            cached = not built
        else:
            payload = build()
            cached = False
        obs_metrics.get_registry().counter(
            "plan_cache_hits_total" if cached else "plan_cache_misses_total",
            "Planner decisions served from the artifact cache"
            if cached
            else "Planner decisions computed from dataset statistics",
        ).inc(1)
        decision = PlanDecision(
            requested=name,
            algorithm=payload["algorithm"],
            forced=False,
            cached=cached,
            entry=entry,
            statistics=dict(payload["statistics"]),
            candidates=tuple(
                CandidateCost.from_dict(c) for c in payload["candidates"]
            ),
        )

    if runlog_on:
        obs_runlog.emit(
            "plan_choice",
            entry=entry,
            requested=name,
            algorithm=decision.algorithm,
            forced=decision.forced,
            cached=decision.cached,
        )
    return decision


def optimize(
    logical: LogicalPlan,
    dataset,
    *,
    gamma,
    algorithm: str,
    execution: Optional[ExecutionConfig] = None,
    options: Optional[Mapping[str, Any]] = None,
    entry: str = "api",
    probe: bool = False,
    sample_pairs: int = 256,
    seed: int = 0,
):
    """Decide the physical algorithm and wrap everything executable.

    The one planning entry point shared by ``aggregate_skyline``, the SQL
    executor and ``SkylineEngine.query``; returns a
    :class:`~repro.plan.physical.PhysicalPlan`.
    """
    from .physical import PhysicalPlan

    decision = decide(
        dataset,
        logical,
        gamma=gamma,
        algorithm=algorithm,
        execution=execution,
        entry=entry,
        probe=probe,
        sample_pairs=sample_pairs,
        seed=seed,
    )
    return PhysicalPlan(
        logical=logical,
        decision=decision,
        gamma=gamma,
        execution=execution,
        options=dict(options or {}),
    )
