"""The session-oriented public API: :class:`SkylineEngine`.

``aggregate_skyline()`` answers one query and tears everything down —
pool, shipped payload, pinned index.  Under the service workload the
ROADMAP targets (many queries against a resident dataset, the assumption
group-skyline work such as Yu et al.'s contour computation and
Bhattacharya & Teja's aggregate skyline joins also makes), that cold
path wastes almost all of its time on setup.  The engine amortises it:

* :meth:`SkylineEngine.attach` ships a dataset to a persistent worker
  pool (:class:`~repro.engine.pool.PersistentPool`) **once** and returns
  a :class:`DatasetHandle`;
* :meth:`SkylineEngine.query` runs one ``(dims, gamma, algorithm,
  execution)`` query — warm-eligible algorithms (``PAR`` and the
  parallel ``IN``/``LO`` paths) execute their chunk spans over the
  resident pool, everything else runs the unchanged cold path;
* :meth:`SkylineEngine.submit_batch` pipelines many queries over the
  shared pool;
* :meth:`SkylineEngine.close` (or the context manager) releases the
  worker processes and every shared-memory segment deterministically.

Determinism contract
--------------------
A warm query builds the *same* algorithm object with the same spans,
worker config, index and candidate order as a cold
``aggregate_skyline()`` call; only the pool differs (the algorithm's
``_resident`` pool and token, instead of a pool opened for the query).
Chunk kernels, per-chunk comparator resets and the span-ordered merge
are shared code, so warm results **and every ``AlgorithmStats``
counter** are bit-identical to cold, serial runs.

Failure semantics
-----------------
Worker deaths surface within a liveness-poll tick.  Under
``on_failure="retry"``/``"serial"`` the engine respawns only the dead
slot — surviving workers keep their pids and their pinned data — and
re-dispatches exactly the chunk tasks it held; each slot carries a
lifetime respawn budget (``ExecutionConfig.max_retries``).  ``"raise"``
fails the query immediately and still replaces the dead slot, so the
next query finds the pool whole.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..core import artifacts
from ..core.algorithms.sorted_access import SORT_KEYS
from ..core.dominance import Direction
from ..core.execution import ExecutionConfig, coerce_execution
from ..core.gamma import GammaLike
from ..core.groups import GroupedDataset
from ..core.result import AggregateSkylineResult
from ..obs import runlog as obs_runlog
from ..obs import metrics as obs_metrics
from ..plan import logical_for_dataset, optimize
from ..parallel.executor import resolve_workers
from ..parallel.faults import FaultSpec
from .pool import EngineClosedError, PersistentPool

__all__ = ["SkylineEngine", "DatasetHandle", "EngineStats", "EngineClosedError"]

#: Algorithms whose pooled span execution the warm path can take over.
WARM_ALGORITHMS = ("PAR", "IN", "LO")


@dataclass
class EngineStats:
    """Lifetime counters of one engine session (see also ``engine_*`` metrics)."""

    attaches: int = 0
    queries: int = 0
    warm_queries: int = 0
    cold_queries: int = 0
    batches: int = 0
    slot_respawns: int = 0


class DatasetHandle:
    """A dataset resident in an engine: parent-side views + worker pins.

    Obtained from :meth:`SkylineEngine.attach`; pass it (or the raw
    dataset, which re-resolves to the same handle by fingerprint) to
    :meth:`SkylineEngine.query`.  ``dims`` projections are materialised
    parent-side once per dimension tuple and attached as child handles.
    """

    def __init__(self, engine: "SkylineEngine", dataset: GroupedDataset, token: str):
        self.engine = engine
        self.dataset = dataset
        self.token = token
        #: True when the payload travelled via shared memory.
        self.via_shm = False
        self._projections: Dict[Tuple[int, ...], "DatasetHandle"] = {}

    def __len__(self) -> int:
        return len(self.dataset)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DatasetHandle(groups={len(self.dataset)},"
            f" token={self.token[:12]}..., via_shm={self.via_shm})"
        )

    def project(self, dims: Sequence[int]) -> "DatasetHandle":
        """Handle over the sub-space ``dims`` (columns of the value space).

        The projected dataset is built once per dimension tuple from the
        parent's normalised matrix (directions were applied at
        construction, so the slice needs none) and attached to the same
        engine; repeat queries over the same ``dims`` reuse it.
        """
        key = tuple(int(d) for d in dims)
        handle = self._projections.get(key)
        if handle is None:
            handle = self.engine.attach(self.dataset.project(key))
            self._projections[key] = handle
        return handle


class SkylineEngine:
    """A long-lived aggregate-skyline session over a persistent pool.

    Parameters
    ----------
    execution:
        Default :class:`ExecutionConfig` (or mapping / spec string) for
        the session: its ``workers`` sizes the pool, ``max_retries`` is
        the per-slot lifetime respawn budget, ``on_failure`` the default
        crash policy.  ``None`` defaults to a ``scheduler="stealing"``
        config sized by the standard worker resolution
        (``$REPRO_WORKERS`` → cpu).
    start_method:
        Multiprocessing start method for the pool (default: the
        platform/env preference, see ``$REPRO_START_METHOD``).
    faults:
        Fault-injection spec for tests and demos (default: honour
        ``$REPRO_FAULTS``); see :mod:`repro.parallel.faults`.

    Usage::

        with SkylineEngine(execution="workers=4,scheduler=stealing") as eng:
            movies = eng.attach(dataset)
            first = eng.query(movies, gamma=0.5, algorithm="LO")
            rest = eng.submit_batch(movies, [
                {"gamma": 0.6}, {"gamma": 0.7, "algorithm": "PAR"},
            ])

    The pool spins up lazily at the first :meth:`attach`; a purely cold
    engine (serial algorithms only) never forks at all.
    """

    def __init__(
        self,
        execution: Union[None, ExecutionConfig, str, Mapping] = None,
        *,
        start_method: Optional[str] = None,
        faults: Optional[FaultSpec] = None,
        _ephemeral: bool = False,
    ):
        execution = coerce_execution(execution)
        if execution is None:
            execution = ExecutionConfig(
                workers=resolve_workers(None), scheduler="stealing"
            )
        self.execution = execution
        self.start_method = start_method
        self._faults = faults
        self._ephemeral = _ephemeral
        self.stats = EngineStats()
        self._pool: Optional[PersistentPool] = None
        self._handles: Dict[str, DatasetHandle] = {}
        self._closed = False
        # Concurrent admission (repro.net, submit_batch(concurrency=N)):
        # attach/pool-creation/stats are guarded; query execution itself
        # runs outside the lock so chunk streams genuinely interleave on
        # the shared pool (the pool routes deliveries by (qid, span)).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # lifecycle

    @classmethod
    def ephemeral(cls, execution=None) -> "SkylineEngine":
        """A one-shot engine: no resident pool, no session telemetry.

        This is what :func:`repro.aggregate_skyline` wraps.  Its queries
        run cold: a pooled IN/LO/PAR query opens a
        :class:`~repro.engine.pool.PersistentPool` for itself (through
        :func:`~repro.parallel.executor.run_spans`), registers its
        dataset, index and order there before the slots start, and
        closes it when the query ends.
        """
        return cls(execution, _ephemeral=True)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pool(self) -> Optional[PersistentPool]:
        """The persistent pool, or ``None`` before the first attach."""
        return self._pool

    @property
    def worker_pids(self) -> List[int]:
        """Pids of the live worker slots (empty before the first attach)."""
        return [] if self._pool is None else self._pool.pids

    def close(self) -> None:
        """Release the pool, its queues and every shm segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._pool is not None:
            self.stats.slot_respawns = self._pool.total_respawns
            if not self._ephemeral and obs_runlog.get_runlog().enabled:
                obs_runlog.emit(
                    "engine_end",
                    queries=self.stats.queries,
                    warm_queries=self.stats.warm_queries,
                    attaches=self.stats.attaches,
                    slot_respawns=self._pool.total_respawns,
                )
            self._pool.close()
        self._handles.clear()

    def __enter__(self) -> "SkylineEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # GC safety net; the pool has its own finalizer
        if getattr(self, "_closed", True) or self._pool is None:
            return
        try:
            self._pool.close()
        except (OSError, ValueError, RuntimeError, EOFError) as exc:
            # The narrow set a queue/process/shm teardown can actually
            # raise.  Swallowing silently here used to hide leaked shm
            # segments and wedged worker slots — record the failure so
            # it is visible in the run log and the metrics registry.
            # Anything outside this set propagates (Python prints it as
            # "Exception ignored in __del__", which is the point).
            self._report_teardown_failure(exc)

    @staticmethod
    def _report_teardown_failure(exc: BaseException) -> None:
        """Make a failed engine/pool release visible (runlog + counter)."""
        try:
            obs_metrics.get_registry().counter(
                "engine_teardown_errors_total",
                "Engine pool releases that failed (possible leaked shm"
                " segments or worker slots)",
            ).inc(1)
            obs_runlog.emit_error("engine_teardown_error", exc, scope="engine")
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def _require_open(self) -> None:
        if self._closed:
            raise EngineClosedError("this SkylineEngine has been closed")

    # ------------------------------------------------------------------
    # attach

    def _ensure_pool(self) -> Optional[PersistentPool]:
        if self._ephemeral:
            return None
        with self._lock:
            return self._ensure_pool_locked()

    def _ensure_pool_locked(self) -> Optional[PersistentPool]:
        if self._pool is None:
            workers = self.execution.resolve_workers()
            if workers < 2:
                return None
            self._pool = PersistentPool(
                workers,
                start_method=self.start_method,
                shm=self.execution.shm,
                max_respawns=self.execution.max_retries,
                faults=self._faults,
            ).start()
            obs_metrics.get_registry().counter(
                "engine_starts_total", "SkylineEngine pools started"
            ).inc(1)
        return self._pool

    def attach(
        self,
        groups: Union[GroupedDataset, Mapping[Hashable, Iterable]],
        directions: Union[None, str, Direction, Sequence] = None,
        *,
        warm: bool = True,
    ) -> DatasetHandle:
        """Make a dataset resident: ship it to the pool, pin it, hand back
        a :class:`DatasetHandle`.

        Re-attaching content-identical data (same fingerprint) returns
        the existing handle without re-shipping.  With ``warm=True`` the
        packed R-tree and the default candidate order are precomputed
        (through the content-keyed :mod:`~repro.core.artifacts` cache)
        and pinned in every worker, so even the *first* ``IN``/``LO``
        query skips index shipping.
        """
        self._require_open()
        dataset = (
            groups
            if isinstance(groups, GroupedDataset) and directions is None
            else (
                groups
                if isinstance(groups, GroupedDataset)
                else GroupedDataset(groups, directions=directions)
            )
        )
        if isinstance(groups, GroupedDataset) and directions is not None:
            raise ValueError(
                "directions are fixed at GroupedDataset construction;"
                " do not pass them again"
            )
        token = dataset.fingerprint()
        with self._lock:
            handle = self._handles.get(token)
            if handle is not None:
                return handle
            handle = DatasetHandle(self, dataset, token)
            started = time.perf_counter()
            pool = self._ensure_pool_locked() if not self._ephemeral else None
            if pool is not None:
                handle.via_shm = pool.attach(
                    token, dataset.groups, timeout=self.execution.pool_timeout
                )
                if warm:
                    index = artifacts.packed_rtree(dataset)
                    pool.pin_index(token, index, timeout=self.execution.pool_timeout)
                    order = artifacts.sort_order(
                        dataset, "size_corner", SORT_KEYS["size_corner"]
                    )
                    pool.pin_order(token, order, timeout=self.execution.pool_timeout)
            self._handles[token] = handle
            self.stats.attaches += 1
        obs_metrics.get_registry().counter(
            "engine_attaches_total", "Datasets attached to a SkylineEngine"
        ).inc(1)
        if not self._ephemeral and obs_runlog.get_runlog().enabled:
            obs_runlog.emit(
                "attach",
                token=token[:16],
                groups=len(dataset),
                records=dataset.total_records,
                via_shm=handle.via_shm,
                warm=warm and pool is not None,
                elapsed_seconds=time.perf_counter() - started,
            )
        return handle

    def detach(self, handle: DatasetHandle) -> None:
        """Release a resident dataset (worker pins + shm segments)."""
        self._require_open()
        for child in handle._projections.values():
            self.detach(child)
        handle._projections.clear()
        if self._handles.pop(handle.token, None) is None:
            return
        if self._pool is not None:
            self._pool.detach(handle.token, timeout=self.execution.pool_timeout)

    # ------------------------------------------------------------------
    # queries

    def query(
        self,
        data: Union[DatasetHandle, GroupedDataset, Mapping[Hashable, Iterable]],
        *,
        gamma: GammaLike = 0.5,
        algorithm: str = "LO",
        execution: Union[None, ExecutionConfig, str, Mapping] = None,
        dims: Optional[Sequence[int]] = None,
        **options,
    ) -> AggregateSkylineResult:
        """Answer one aggregate-skyline query against resident data.

        ``execution`` defaults to the session's config; pass ``None``
        explicitly per query to inherit it, or any coercible shape
        (config / mapping / ``"k=v"`` spec) to override.  ``dims``
        restricts the query to a projection of the value space (resident
        per dimension tuple after the first use).  All other ``options``
        are the usual algorithm options, validated with did-you-mean
        suggestions by :func:`~repro.core.algorithms.make_algorithm`.

        Every query goes through the shared plan pipeline
        (:mod:`repro.plan`): ``algorithm="auto"`` lets the optimizer pick
        the engine from dataset statistics (decisions are memoised per
        ``(dataset fingerprint, plan shape)`` through the artifact cache,
        so warm repeats skip the probe); an explicit name is forced
        through unchanged — same construction, same counters, bit-for-bit.
        """
        self._require_open()
        execution = coerce_execution(execution)
        name = str(algorithm).upper()
        handle: Optional[DatasetHandle]
        if isinstance(data, DatasetHandle):
            if data.engine is not self:
                raise ValueError("DatasetHandle belongs to a different engine")
            handle = data
        elif self._ephemeral:
            handle = None
        else:
            handle = self.attach(data)
        if handle is not None and dims is not None:
            handle = handle.project(dims)
        if handle is not None:
            dataset = handle.dataset
        else:
            dataset = (
                data
                if isinstance(data, GroupedDataset)
                else GroupedDataset(data)
            )
            if dims is not None:
                dataset = dataset.project(dims)
        logical = logical_for_dataset(
            dataset, gamma=gamma, algorithm=name, dims=dims
        )
        physical = optimize(
            logical,
            dataset,
            gamma=gamma,
            algorithm=name,
            execution=execution,
            options=options,
            entry="api" if self._ephemeral else "engine",
        )
        name = physical.algorithm
        if (
            execution is None
            and not self._ephemeral
            and name in WARM_ALGORITHMS
        ):
            # Session default: warm-eligible algorithms inherit the
            # engine's config.  Ephemeral engines (the aggregate_skyline
            # wrapper) must not — execution=None keeps the serial path
            # for IN/LO and PAR's own defaults.  Applied after
            # the optimizer resolved "auto": the decision was made for a
            # serial query, and PAR is never auto-picked without an
            # explicit ExecutionConfig, so the chosen algorithm is valid
            # under the session default too.
            execution = self.execution
            physical = physical.replace_execution(execution)
        engine_algorithm = physical.build_algorithm()
        warm = (
            handle is not None
            and self._pool is not None
            and not self._pool.closed
            and name in WARM_ALGORITHMS
            and execution is not None
            and execution.parallel
            and execution.resolve_workers() >= 2
            and hasattr(engine_algorithm, "_resident")
        )
        if warm:
            engine_algorithm._resident = (self._pool, handle.token)
        with self._lock:
            self.stats.queries += 1
            if warm:
                self.stats.warm_queries += 1
            else:
                self.stats.cold_queries += 1
        obs_metrics.get_registry().counter(
            "engine_queries_total",
            "Queries answered by a SkylineEngine",
            ("mode",),
        ).inc(1, mode="warm" if warm else "cold")
        emit_events = not self._ephemeral and obs_runlog.get_runlog().enabled
        if emit_events:
            obs_runlog.emit(
                "query_start",
                algorithm=name,
                gamma=str(gamma),
                groups=len(dataset),
                warm=warm,
                dims=list(dims) if dims is not None else None,
            )
        started = time.perf_counter()
        try:
            result = physical.execute(dataset, algorithm=engine_algorithm)
        except BaseException as exc:
            if emit_events:
                obs_runlog.emit_error("query_end", exc, algorithm=name, warm=warm)
            raise
        if emit_events:
            obs_runlog.emit(
                "query_end",
                algorithm=name,
                warm=warm,
                survivors=len(result.keys),
                elapsed_seconds=time.perf_counter() - started,
            )
        if self._pool is not None:
            self.stats.slot_respawns = self._pool.total_respawns
        return result

    def explain(
        self,
        data: Union[DatasetHandle, GroupedDataset, Mapping[Hashable, Iterable]],
        *,
        gamma: GammaLike = 0.5,
        algorithm: str = "auto",
        execution: Union[None, ExecutionConfig, str, Mapping] = None,
        dims: Optional[Sequence[int]] = None,
        measures: Optional[Sequence[str]] = None,
        **options,
    ) -> str:
        """Render the plan a :meth:`query` with these arguments would run,
        without executing it (and without attaching ``data`` or spinning
        up a pool).

        Statistics and candidate costs are probed even for an explicit
        ``algorithm`` so the tree always shows the optimizer's comparison;
        ``measures`` optionally names the skyline dimensions for display.
        """
        self._require_open()
        execution = coerce_execution(execution)
        name = str(algorithm).strip().upper()
        if isinstance(data, DatasetHandle):
            dataset = data.dataset
        elif isinstance(data, GroupedDataset):
            dataset = data
        else:
            dataset = GroupedDataset(data)
        if dims is not None:
            dataset = dataset.project(dims)
        if execution is None and not self._ephemeral and name in WARM_ALGORITHMS:
            execution = self.execution
        logical = logical_for_dataset(
            dataset, gamma=gamma, algorithm=name, dims=dims, measures=measures
        )
        physical = optimize(
            logical,
            dataset,
            gamma=gamma,
            algorithm=name,
            execution=execution,
            options=options,
            entry="api" if self._ephemeral else "engine",
            probe=True,
        )
        return physical.render()

    def submit_batch(
        self,
        data: Union[DatasetHandle, GroupedDataset, Mapping[Hashable, Iterable]],
        queries: Sequence[Mapping[str, Any]],
        *,
        concurrency: int = 1,
    ) -> List[AggregateSkylineResult]:
        """Run many queries against one resident dataset over the shared
        pool; results in submission order.

        Each entry is a mapping of :meth:`query` keyword arguments
        (``gamma``, ``algorithm``, ``execution``, ``dims``, options...).
        The dataset is attached once up front; warm-eligible queries then
        ship nothing but chunk spans, and the pool's shared task backlog
        keeps every worker busy across query boundaries.

        ``concurrency`` overlaps up to that many queries' chunk streams
        on the one resident pool — deliveries are routed by
        ``(query id, span)``, so results and every ``AlgorithmStats``
        counter stay bit-identical to running the batch sequentially.
        With ``concurrency=1`` the batch is fail-fast: the first failing
        query raises and the rest are not run.  With ``concurrency > 1``
        queries already in flight run to completion and the error of the
        earliest failing query is raised after they settle.
        """
        self._require_open()
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        handle = (
            data if isinstance(data, DatasetHandle) or self._ephemeral
            else self.attach(data)
        )
        with self._lock:
            self.stats.batches += 1
        if concurrency == 1 or len(queries) <= 1:
            results: List[AggregateSkylineResult] = []
            for spec in queries:
                results.append(self.query(handle, **dict(spec)))
            return results
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(
            max_workers=min(concurrency, len(queries)),
            thread_name_prefix="repro-engine-batch",
        ) as executor:
            futures = [
                executor.submit(self.query, handle, **dict(spec))
                for spec in queries
            ]
            outcome: List[Any] = []
            first_error: Optional[BaseException] = None
            for future in futures:
                try:
                    outcome.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = exc
                    outcome.append(None)
            if first_error is not None:
                raise first_error
            return outcome
