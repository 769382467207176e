"""Shared-memory ndarray shipping for spawn-platform pools.

Under the ``fork`` start method workers inherit the parent's memory
copy-on-write, so the group payload ships for free.  Under ``spawn``
(Windows, macOS default, or ``REPRO_START_METHOD=spawn``) the full group
list would be pickled once per worker — cheap for small workloads,
painful for the paper-scale ones.  This module removes that copy: the
parent packs the group ndarrays into ``multiprocessing.shared_memory``
segments once, and every worker maps the same physical pages,
reconstructing zero-copy read-only views.

Leak safety
-----------
POSIX shared memory outlives the creating process unless unlinked, so a
crashed parent must not strand segments in ``/dev/shm``.  Every segment
created here is owned by a :class:`ShmArena` whose cleanup runs through
``weakref.finalize`` — it fires on explicit :meth:`ShmArena.close`, on
garbage collection, *and* at interpreter exit, whichever comes first,
and is idempotent.  Error paths therefore cannot leak: the arena is
created before the pool and finalized in a ``finally``.

A :class:`~repro.engine.pool.PersistentPool` keeps one arena per
attached dataset (plus pinned index/order arrays) open for as long as
the pool lives — one query, or a whole engine session — and releases
them deterministically on ``close()`` / ``detach()``.

Attach-side quirk: CPython's ``resource_tracker`` (bpo-39959) registers
*attached* segments as if the attaching process owned them, producing
spurious "leaked shared_memory" warnings and — worse — early unlinks
when a worker exits.  :func:`attach_array` unregisters the segment after
attaching; only the creating arena unlinks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.groups import Group

try:  # pragma: no cover - the stdlib module exists on every supported python
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]

__all__ = [
    "ArrayRef",
    "ShmArena",
    "GroupShipment",
    "shm_available",
    "attach_array",
    "detach_all",
    "ship_groups",
    "load_groups",
    "ship_arrays",
    "load_arrays",
]


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can be used."""

    return shared_memory is not None


@dataclass(frozen=True)
class ArrayRef:
    """A picklable handle to an ndarray living in a shared segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


def _release_segments(segments: List) -> None:
    """Close and unlink every owned segment; idempotent and exception-safe."""

    while segments:
        seg = segments.pop()
        try:
            seg.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


class ShmArena:
    """Owner of a set of shared-memory segments with leak-proof cleanup.

    The parent creates an arena, :meth:`share`\\ s the ndarrays it wants
    to ship, hands the returned :class:`ArrayRef`\\ s to the pool's
    workers, and calls :meth:`close` when they are done.  If it never does (exception, ctrl-C, GC), the
    ``weakref.finalize`` hook unlinks the segments anyway.
    """

    def __init__(self) -> None:
        if not shm_available():  # pragma: no cover - py always has it
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self._segments: List = []
        self._finalizer = weakref.finalize(self, _release_segments, self._segments)

    def share(self, array: np.ndarray) -> ArrayRef:
        """Copy *array* into a fresh segment and return its handle."""

        array = np.ascontiguousarray(array)
        seg = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        self._segments.append(seg)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)
        view[...] = array
        return ArrayRef(name=seg.name, shape=tuple(array.shape), dtype=array.dtype.str)

    @property
    def segment_names(self) -> List[str]:
        """Names of the currently owned segments (for leak tests)."""

        return [seg.name for seg in self._segments]

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Close and unlink all owned segments (idempotent)."""

        self._finalizer()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# attach side (pool workers)
# ----------------------------------------------------------------------

#: Segments this process has attached, keyed by name.  Keeping the
#: ``SharedMemory`` objects alive keeps the mapped buffers valid for the
#: zero-copy views handed out by :func:`attach_array`.
_ATTACHED: Dict[str, object] = {}


def _attach_untracked(name: str):
    """Attach a segment without registering it with the resource tracker.

    Attaching processes must not register (bpo-39959): pool workers share
    the parent's tracker, so an attach-side register/unregister pair would
    cancel the *owner's* registration — losing crash protection and making
    the final unlink warn.  Python 3.13+ has ``track=False`` for exactly
    this; older versions need the register call suppressed for the
    duration of the attach.
    """

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - python < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shared_memory(resource_name, rtype):
        if rtype != "shared_memory":
            original(resource_name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_array(ref: ArrayRef) -> np.ndarray:
    """Map the segment behind *ref* and return a read-only ndarray view."""

    seg = _ATTACHED.get(ref.name)
    if seg is None:
        seg = _attach_untracked(ref.name)
        _ATTACHED[ref.name] = seg
    view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)
    view.flags.writeable = False
    return view


def _close(seg) -> None:
    try:
        seg.close()
    except Exception:  # pragma: no cover - best-effort cleanup
        pass


def detach_all() -> None:
    """Close every attached segment (without unlinking; the owner does that)."""

    while _ATTACHED:
        _close(_ATTACHED.popitem()[1])


# ----------------------------------------------------------------------
# group payloads
# ----------------------------------------------------------------------


@dataclass
class GroupShipment:
    """A group list packed for the pool's workers.

    Either ``inline`` holds the :class:`Group` objects directly (fork:
    inherited copy-on-write; small spawn runs: pickled once per worker)
    or ``values`` / ``offsets`` reference shared segments holding the
    concatenated record matrix and the per-group row offsets.
    """

    keys: Tuple[Hashable, ...] = ()
    indices: Tuple[int, ...] = ()
    inline: Optional[List[Group]] = None
    values: Optional[ArrayRef] = None
    offsets: Optional[ArrayRef] = None

    @property
    def via_shm(self) -> bool:
        return self.values is not None


def _contiguous_block(
    groups: Sequence[Group],
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Detect the columnar fast path: groups that are consecutive zero-copy
    slices of one contiguous base matrix (what ``GroupedDataset`` hands out).

    Returns ``(matrix_view, offsets)`` spanning all groups without copying,
    or ``None`` when the groups do not form one contiguous block (standalone
    groups, shuffled subsets, mixed dtypes) — callers then re-flatten.
    """

    if not groups:
        return None
    first_span = getattr(groups[0], "_span", None)
    if first_span is None:
        return None
    base = groups[0].values.base
    if (
        base is None
        or base.ndim != 2
        or base.dtype != np.float64
        or not base.flags["C_CONTIGUOUS"]
    ):
        return None
    start_row = int(first_span[0])
    offsets = np.zeros(len(groups) + 1, dtype=np.int64)
    expected = start_row
    total = 0
    for pos, group in enumerate(groups):
        span = getattr(group, "_span", None)
        if (
            span is None
            or span[0] != expected
            or group.values.base is not base
        ):
            return None
        expected = int(span[1])
        total += expected - int(span[0])
        offsets[pos + 1] = total
    if expected > base.shape[0]:
        return None
    return base[start_row:expected], offsets


def ship_groups(
    groups: Sequence[Group], arena: Optional[ShmArena] = None
) -> GroupShipment:
    """Pack *groups* for shipping; with an *arena*, via shared memory.

    Groups handed out by a columnar :class:`~repro.core.groups.GroupedDataset`
    are consecutive views of one contiguous record matrix, so the pack is a
    straight buffer handoff — the matrix view goes to :meth:`ShmArena.share`
    as-is (one copy into the segment, no intermediate re-flatten).  Only
    heterogeneous group lists still pay the stacking copy.
    """

    if arena is None:
        return GroupShipment(inline=list(groups))
    block = _contiguous_block(groups)
    if block is not None:
        stacked, offsets = block
    else:
        offsets = np.zeros(len(groups) + 1, dtype=np.int64)
        for pos, group in enumerate(groups):
            offsets[pos + 1] = offsets[pos] + group.values.shape[0]
        dims = groups[0].values.shape[1] if groups else 0
        stacked = np.empty((int(offsets[-1]), dims), dtype=np.float64)
        for pos, group in enumerate(groups):
            stacked[int(offsets[pos]) : int(offsets[pos + 1])] = group.values
    return GroupShipment(
        keys=tuple(group.key for group in groups),
        indices=tuple(group.index for group in groups),
        values=arena.share(stacked),
        offsets=arena.share(offsets),
    )


def load_groups(shipment: GroupShipment) -> List[Group]:
    """Materialise the group list in a worker; zero-copy under shm."""

    if shipment.inline is not None:
        return shipment.inline
    values = attach_array(shipment.values)
    offsets = attach_array(shipment.offsets)
    groups: List[Group] = []
    for pos, (key, index) in enumerate(zip(shipment.keys, shipment.indices)):
        rows = values[int(offsets[pos]) : int(offsets[pos + 1])]
        # Group's ascontiguousarray is a no-op for this contiguous
        # float64 slice, so the worker never copies the payload.
        groups.append(Group(key, rows, index=index))
    return groups


# ----------------------------------------------------------------------
# generic named-array payloads (used for the flat index)
# ----------------------------------------------------------------------

ShippedArrays = Mapping[str, Union[ArrayRef, np.ndarray]]


def ship_arrays(
    arrays: Mapping[str, np.ndarray], arena: Optional[ShmArena] = None
) -> Dict[str, Union[ArrayRef, np.ndarray]]:
    """Ship a dict of named ndarrays, via *arena* when given."""

    if arena is None:
        return dict(arrays)
    return {name: arena.share(array) for name, array in arrays.items()}


def load_arrays(shipped: ShippedArrays) -> Dict[str, np.ndarray]:
    """Inverse of :func:`ship_arrays` on the worker side."""

    return {
        name: attach_array(value) if isinstance(value, ArrayRef) else value
        for name, value in shipped.items()
    }
