"""repro.parallel — parallel group-pair execution subsystem.

Layers (bottom-up):

* :mod:`repro.parallel.partition` — linear indexing and chunking of the
  upper-triangular group-pair space (pure math, no engine imports; also
  backs the adaptive dispatcher's duplicate-free overlap sampling).
* :mod:`repro.parallel.scheduler` — guided decreasing chunk sizes for
  skewed workloads (the ``stealing`` scheduler).
* :mod:`repro.parallel.executor` — the chunk kernels and
  :func:`run_spans`, which runs one query's chunks inline (``workers=1``)
  or on :class:`repro.engine.pool.PersistentPool` — the one process
  pool, with its timeout for wedged pools (:class:`PoolTimeoutError`),
  crash detection in a liveness tick (:class:`WorkerCrashError`),
  per-slot respawn and an optional inline fallback (``on_failure``).
* :mod:`repro.parallel.faults` — opt-in fault injection (``$REPRO_FAULTS``
  or :class:`FaultSpec`): crash / hang / slow / exception at chunk *k* or
  with probability *p*, for testing the recovery paths.
* :class:`~repro.core.algorithms.parallel.ParallelSkylineAlgorithm` — the
  ``PAR`` algorithm gluing both into the standard
  :class:`~repro.core.algorithms.base.AggregateSkylineAlgorithm` template
  (re-exported here lazily to avoid an import cycle with
  ``repro.core.algorithms``).

See ``docs/parallel.md`` for the architecture and determinism guarantees.
"""

from .executor import (
    ON_FAILURE_POLICIES,
    ChunkOutcome,
    PoolRun,
    PoolTimeoutError,
    WorkerConfig,
    WorkerCrashError,
    compare_candidate_span,
    compare_span,
    preferred_start_method,
    resolve_workers,
    run_spans,
)
from .partition import (
    chunk_ranges,
    index_of_pair,
    pair_count,
    pair_from_index,
    sample_pair_indices,
)
from .faults import FAULTS_ENV_VAR, FaultSpec, InjectedFaultError
from .scheduler import guided_spans
from .shm import ArrayRef, GroupShipment, ShmArena, ship_groups, load_groups

__all__ = [
    "ON_FAILURE_POLICIES",
    "ChunkOutcome",
    "PoolRun",
    "PoolTimeoutError",
    "WorkerConfig",
    "WorkerCrashError",
    "FAULTS_ENV_VAR",
    "FaultSpec",
    "InjectedFaultError",
    "compare_candidate_span",
    "compare_span",
    "preferred_start_method",
    "resolve_workers",
    "run_spans",
    "chunk_ranges",
    "index_of_pair",
    "pair_count",
    "pair_from_index",
    "sample_pair_indices",
    "guided_spans",
    "ArrayRef",
    "GroupShipment",
    "ShmArena",
    "ship_groups",
    "load_groups",
    "ParallelSkylineAlgorithm",
]


def __getattr__(name: str):
    # Lazy re-export: the algorithm lives in repro.core.algorithms (it
    # subclasses the shared base class); importing it eagerly here would
    # cycle with repro.core.algorithms -> repro.parallel.
    if name == "ParallelSkylineAlgorithm":
        from ..core.algorithms.parallel import ParallelSkylineAlgorithm

        return ParallelSkylineAlgorithm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
