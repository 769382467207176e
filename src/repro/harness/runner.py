"""Experiment runner: time algorithms over parameter sweeps.

The benchmarks in ``benchmarks/`` regenerate the paper's figures by calling
:func:`run_algorithms` for each point of a sweep and pivoting the collected
:class:`RunResult` records into the same series the figures plot (run time —
and dominance checks — per algorithm, against the swept parameter).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.algorithms import ALGORITHMS, make_algorithm
from ..core.execution import ExecutionConfig, coerce_execution, reject_kwargs
from ..core.groups import GroupedDataset
from ..obs import metrics as obs_metrics
from ..obs import runlog as obs_runlog
from ..obs import tracing as obs_tracing
from ..plan import logical_for_dataset, optimize

__all__ = ["RunResult", "run_algorithms", "sweep"]

DEFAULT_ALGORITHMS = ("NL", "TR", "SI", "IN", "LO")


@dataclass
class RunResult:
    """One (workload point, algorithm) measurement.

    ``trace`` / ``metrics`` are optional observability payloads (span tree
    and metrics-registry snapshot as plain dicts), collected when
    :func:`run_algorithms` runs with ``collect_obs=True`` and persisted by
    :mod:`repro.harness.persistence` so ``aggskyline compare`` can diff
    counter deltas, not just wall-clock.
    """

    experiment: str
    params: Dict[str, object]
    algorithm: str
    elapsed_seconds: float
    group_comparisons: int
    record_pairs: int
    skyline_size: int
    skyline_keys: frozenset = field(default_factory=frozenset, repr=False)
    trace: Optional[dict] = field(default=None, repr=False)
    metrics: Optional[dict] = field(default=None, repr=False)
    #: Worker-pool size the measurement ran with (``None`` = serial /
    #: unspecified); persisted so saved benchmarks record their parallelism.
    workers: Optional[int] = None
    #: Compact :meth:`ExecutionConfig.to_dict` snapshot of the execution
    #: config the measurement ran with (``None`` = serial legacy path);
    #: persisted so saved benchmarks record scheduler/shm choices too.
    execution: Optional[dict] = None
    #: Planner decision snapshot (:meth:`PlanDecision.as_dict`) when the
    #: run went through the plan pipeline — always for ``"AUTO"``, with
    #: the chosen algorithm, candidate costs and statistics; persisted so
    #: saved benchmarks record *why* an algorithm ran (``None`` for
    #: pre-planner result files and direct explicit runs).
    plan: Optional[dict] = None


def run_algorithms(
    dataset: GroupedDataset,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    gamma: float = 0.5,
    experiment: str = "",
    params: Optional[Mapping[str, object]] = None,
    algorithm_options: Optional[Mapping[str, Mapping]] = None,
    repeats: int = 1,
    verify_consistency: bool = False,
    collect_obs: bool = False,
    execution: Optional[ExecutionConfig] = None,
    **removed,
) -> List[RunResult]:
    """Run each named algorithm on ``dataset`` and collect measurements.

    ``algorithm_options`` maps an algorithm name to extra constructor
    options.  With ``repeats > 1`` the best (minimum) wall-clock time is
    kept, the usual benchmarking convention.  ``verify_consistency`` raises
    if the algorithms disagree on the skyline — useful while developing
    benches, off by default because the paper-faithful pruning policy is
    allowed to deviate on adversarial inputs (see DESIGN.md).

    ``collect_obs=True`` runs every measurement under a scoped tracer and a
    fresh metrics registry and attaches the serialized span tree and
    registry snapshot to the returned :class:`RunResult` records (the
    per-algorithm run span feeds the saved benchmark JSON).

    ``execution`` is an :class:`~repro.core.execution.ExecutionConfig`
    (or mapping / spec string) applied to every algorithm that supports
    pooled execution (``PAR``, ``IN``, ``LO``); serial algorithms ignore
    it.  Its compact snapshot is recorded on the :class:`RunResult` so
    persisted measurements carry scheduler and shm choices.
    """
    reject_kwargs("run_algorithms", removed)
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    execution = coerce_execution(execution)
    options = dict(algorithm_options or {})
    results: List[RunResult] = []
    tracer = obs_tracing.get_tracer()
    for name in algorithms:
        engine_options = dict(options.get(name, {}))
        key = name.strip().upper()
        # "AUTO" benchmarks the planner itself: the optimizer picks the
        # engine per workload point, so the execution config must reach it
        # (the cost model decides whether pooled candidates are eligible).
        is_auto = key == "AUTO"
        supports = is_auto or getattr(
            ALGORITHMS.get(key), "supports_execution", False
        )
        engine_execution = execution if supports else None
        execution_payload = (
            engine_execution.to_dict() if engine_execution is not None else None
        )
        best: Optional[RunResult] = None
        for _ in range(repeats):
            physical = None
            if is_auto:
                logical = logical_for_dataset(dataset, gamma=gamma, algorithm=key)
                physical = optimize(
                    logical,
                    dataset,
                    gamma=gamma,
                    algorithm=key,
                    execution=engine_execution,
                    options=engine_options,
                    entry="harness",
                )
                engine = physical.build_algorithm()
            else:
                engine = make_algorithm(
                    name, gamma, execution=engine_execution, **engine_options
                )
            trace_payload = None
            metrics_payload = None
            with tracer.span(
                "bench.run", experiment=experiment, algorithm=name
            ):
                obs_runlog.emit(
                    "bench_start",
                    experiment=experiment,
                    algorithm=name,
                    params=dict(params or {}),
                )
                if collect_obs:
                    scoped_tracer = obs_tracing.Tracer()
                    with obs_metrics.use_registry() as registry:
                        with obs_tracing.use_tracer(scoped_tracer):
                            started = time.perf_counter()
                            outcome = engine.compute(dataset)
                            elapsed = time.perf_counter() - started
                        if outcome.trace is not None:
                            trace_payload = outcome.trace.to_dict()
                        metrics_payload = registry.as_dict()
                else:
                    started = time.perf_counter()
                    outcome = engine.compute(dataset)
                    elapsed = time.perf_counter() - started
                obs_runlog.emit(
                    "bench_end",
                    experiment=experiment,
                    algorithm=name,
                    elapsed_seconds=elapsed,
                    skyline_size=len(outcome),
                )
            measured = RunResult(
                experiment=experiment,
                params=dict(params or {}),
                algorithm=name,
                elapsed_seconds=elapsed,
                group_comparisons=outcome.stats.group_comparisons,
                record_pairs=outcome.stats.record_pairs_examined,
                skyline_size=len(outcome),
                skyline_keys=frozenset(outcome.keys),
                trace=trace_payload,
                metrics=metrics_payload,
                workers=(
                    engine_execution.workers if engine_execution is not None
                    else None
                ),
                execution=execution_payload,
                plan=(
                    physical.decision.as_dict() if physical is not None
                    else None
                ),
            )
            if best is None or measured.elapsed_seconds < best.elapsed_seconds:
                best = measured
        assert best is not None
        results.append(best)

    if verify_consistency and results:
        reference = results[0]
        for other in results[1:]:
            if other.skyline_keys != reference.skyline_keys:
                raise AssertionError(
                    f"{other.algorithm} disagrees with {reference.algorithm}"
                    f" on {experiment} {params}:"
                    f" {sorted(other.skyline_keys ^ reference.skyline_keys)}"
                )
    return results


def sweep(
    experiment: str,
    parameter: str,
    values: Iterable,
    dataset_factory: Callable[[object], GroupedDataset],
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    gamma: float = 0.5,
    algorithm_options: Optional[Mapping[str, Mapping]] = None,
    extra_params: Optional[Mapping[str, object]] = None,
    repeats: int = 1,
    collect_obs: bool = False,
    execution: Optional[ExecutionConfig] = None,
) -> List[RunResult]:
    """Run ``algorithms`` for each value of a swept parameter.

    ``dataset_factory`` builds the workload for one sweep value.  Returns
    the flat list of measurements (pivot them with
    :func:`repro.harness.reporting.series_table`).
    """
    results: List[RunResult] = []
    for value in values:
        dataset = dataset_factory(value)
        params = {parameter: value, **dict(extra_params or {})}
        results.extend(
            run_algorithms(
                dataset,
                algorithms=algorithms,
                gamma=gamma,
                experiment=experiment,
                params=params,
                algorithm_options=algorithm_options,
                repeats=repeats,
                collect_obs=collect_obs,
                execution=execution,
            )
        )
    return results
