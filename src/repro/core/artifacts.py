"""Derived-artifact cache keyed by dataset content fingerprints.

Running the paper's experiment harness rebuilds the same derived structures
over and over: every ``IN``/``LO`` instantiation STR-packs the same R-tree
over the same max corners, every ``SI``/``IN`` run re-sorts the same groups
by the same key, repetition after repetition.  With the columnar backbone
each :class:`~repro.core.groups.GroupedDataset` carries a cheap content
:meth:`~repro.core.groups.GroupedDataset.fingerprint`, so those artifacts
can be memoised process-wide and shared across algorithm instances.

Entries are keyed by ``(fingerprint, kind, params)``; because the
fingerprint covers the full record matrix, any logically different dataset
— including a new snapshot produced by
:class:`~repro.core.incremental.IncrementalAggregateSkyline` after a
mutation (its ``version`` counter bumps and ``to_dataset`` yields new
content) — misses naturally, which *is* the invalidation story.  The cache
stores plain data (flat array dicts, index-order tuples, read-only record
columns); live objects with per-run counters (e.g.
:class:`~repro.index.rtree.FlatRTree`) are re-hydrated per use so
observability counters start at zero.

Hit/miss/eviction counters are flushed into the observability registry
(``artifact_cache_{hits,misses,evictions}_total`` by artifact kind), so a
``run_algorithms`` sweep makes the reuse visible in ``repro metrics``.

Disable with ``REPRO_ARTIFACT_CACHE=0`` (or :func:`configure`) to force
every build; the default keeps a small LRU per process.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs import runlog as obs_runlog

__all__ = [
    "ArtifactCache",
    "get_cache",
    "set_cache",
    "configure",
    "cache_enabled",
    "packed_rtree",
    "sort_order",
    "record_columns",
    "overlap_estimate",
]

ENV_VAR = "REPRO_ARTIFACT_CACHE"
_FALSE_VALUES = {"0", "false", "off", "no", ""}

CacheKey = Tuple[str, str, Tuple]


class ArtifactCache:
    """A thread-safe LRU of derived artifacts, keyed by content.

    ``maxsize`` bounds the number of entries (not bytes); the artifacts
    cached here (flat R-tree arrays, sort orders) are small compared to the
    datasets they derive from, and an experiment sweep touches only a
    handful of distinct datasets at a time.
    """

    def __init__(self, maxsize: int = 64):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._store: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def get_or_build(
        self,
        dataset,
        kind: str,
        params: Tuple[Hashable, ...],
        builder: Callable[[], Any],
    ) -> Any:
        """The artifact ``kind``/``params`` for ``dataset``, built at most once.

        ``builder`` runs outside the lock (it can be expensive); a racing
        duplicate build is tolerated — last writer wins, both get correct
        values.
        """
        key: CacheKey = (dataset.fingerprint(), kind, tuple(params))
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.hits += 1
                value = self._store[key]
                self._observe(kind, hit=True)
                return value
        value = builder()
        with self._lock:
            self.misses += 1
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)
                self.evictions += 1
                self._observe_eviction(kind)
        self._observe(kind, hit=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._store),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    # ------------------------------------------------------------------

    @staticmethod
    def _observe(kind: str, hit: bool) -> None:
        registry = obs_metrics.get_registry()
        name = (
            "artifact_cache_hits_total" if hit else "artifact_cache_misses_total"
        )
        help_text = (
            "Derived-artifact cache hits (index/order rebuilt from cache)"
            if hit
            else "Derived-artifact cache misses (artifact built from scratch)"
        )
        registry.counter(name, help_text, ("kind",)).inc(1, kind=kind)
        obs_runlog.emit("cache_hit" if hit else "cache_miss", kind=kind)

    @staticmethod
    def _observe_eviction(kind: str) -> None:
        registry = obs_metrics.get_registry()
        registry.counter(
            "artifact_cache_evictions_total",
            "Derived-artifact cache LRU evictions",
            ("kind",),
        ).inc(1, kind=kind)


# ----------------------------------------------------------------------
# process-wide cache
# ----------------------------------------------------------------------

_cache: Optional[ArtifactCache] = None
_enabled: Optional[bool] = None
_state_lock = threading.Lock()


def cache_enabled() -> bool:
    """Is the process-wide cache on?  (env ``REPRO_ARTIFACT_CACHE``)."""
    global _enabled
    with _state_lock:
        if _enabled is None:
            raw = os.environ.get(ENV_VAR)
            _enabled = (
                True if raw is None else raw.strip().lower() not in _FALSE_VALUES
            )
        return _enabled


def configure(enabled: bool) -> None:
    """Force the cache on/off for this process (overrides the env var)."""
    global _enabled
    with _state_lock:
        _enabled = bool(enabled)


def get_cache() -> ArtifactCache:
    """The process-wide cache (created on first use)."""
    global _cache
    with _state_lock:
        if _cache is None:
            _cache = ArtifactCache()
        return _cache


def set_cache(cache: Optional[ArtifactCache]) -> None:
    """Swap the process-wide cache (tests use this for isolation)."""
    global _cache
    with _state_lock:
        _cache = cache


# ----------------------------------------------------------------------
# artifact builders used by the algorithms
# ----------------------------------------------------------------------


def packed_rtree(dataset, max_entries: int = 16):
    """A queryable :class:`~repro.index.rtree.FlatRTree` over the dataset's
    max corners, with the packed arrays cached by content.

    The cache stores the flat arrays (plain ndarrays); every call
    re-hydrates a fresh ``FlatRTree`` via ``from_arrays`` — zero-copy on
    the arrays, but with per-instance query counters starting at zero so
    observability and :class:`~repro.core.result.AlgorithmStats` stay
    bit-identical to an uncached build.
    """
    from ..index.rtree import FlatRTree

    def build():
        return FlatRTree.bulk_load_points(
            dataset.max_corners, max_entries=max_entries
        ).arrays()

    if not cache_enabled():
        return FlatRTree.from_arrays(build())
    arrays = get_cache().get_or_build(
        dataset, "flat_rtree", ("max_corners", max_entries), build
    )
    return FlatRTree.from_arrays(arrays)


def sort_order(dataset, key_name: str, key_func) -> Tuple[int, ...]:
    """The candidate-access order ``sorted(range(G), key=key_func(group))``,
    cached by content and key name (used by SI/IN/LO)."""

    def build() -> Tuple[int, ...]:
        groups = dataset.groups
        return tuple(
            sorted(range(len(groups)), key=lambda i: key_func(groups[i]))
        )

    if not cache_enabled():
        return build()
    return get_cache().get_or_build(dataset, "sort_order", (key_name,), build)


def record_columns(dataset):
    """The batch kernel's :class:`~repro.core.comparator.RecordColumns` of
    the dataset, cached by content.

    The arrays are made read-only, so the one cached instance can be
    shared by every compute over the same content: the kernel only reads
    them, and a stray write raises instead of corrupting later queries.
    """
    from .comparator import RecordColumns

    def build():
        columns = RecordColumns.of_dataset(dataset)
        for value in vars(columns).values():
            if value is not None:
                value.flags.writeable = False
        return columns

    if not cache_enabled():
        return RecordColumns.of_dataset(dataset)
    return get_cache().get_or_build(dataset, "record_columns", (), build)


def overlap_estimate(
    dataset, sample_pairs: int = 256, seed: int = 0
) -> float:
    """The sampled MBB-overlap fraction of the dataset, memoised by content.

    Wraps :func:`repro.core.algorithms.adaptive.estimate_overlap` (the
    probe is deterministic given ``sample_pairs`` and ``seed``, so caching
    it is sound) and shares one entry between every consumer: the ``AD``
    algorithm's dispatch, :func:`repro.core.diagnostics.dataset_statistics`
    and the plan optimizer's statistics source all stop re-sampling pairs
    on repeated computes over the same dataset content.
    """

    def build() -> float:
        from .algorithms.adaptive import estimate_overlap as probe

        return probe(dataset.groups, sample_pairs=sample_pairs, seed=seed)

    if not cache_enabled():
        return build()
    return get_cache().get_or_build(
        dataset, "overlap_estimate", (sample_pairs, seed), build
    )
