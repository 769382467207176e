"""Groups of records and grouped datasets — the columnar backbone.

The aggregate skyline operates on a *partition* of the record universe into
groups (Table 1 of the paper: ``U_g``).  Since the columnar refactor the
canonical representation of a :class:`GroupedDataset` is **one contiguous
``(N_records × d)`` float64 matrix** (already normalised to *higher is
better*) plus CSR-style group row offsets and precomputed per-group MBB
corner matrices:

* ``dataset.matrix`` — all records, group after group, C-contiguous;
* ``dataset.offsets`` — ``int64`` array of length ``G + 1``; group ``i``'s
  records are ``matrix[offsets[i]:offsets[i + 1]]``;
* ``dataset.min_corners`` / ``dataset.max_corners`` — ``(G × d)`` matrices
  holding each group's MBB corners (Figure 9's virtual worst/best records).

:class:`Group` objects are **zero-copy views** into those columns: their
``values`` payload is a slice of the matrix and their bounding box reads the
corner rows.  The same contiguous layout feeds every other layer without
reshaping — ``repro.data.store`` persists the columns verbatim (format v2),
``repro.parallel.shm`` ships the matrix buffer to pool workers as-is, and
``repro.index`` bulk-loads its packed R-tree straight from the corner
matrices.  See ``docs/data-model.md``.

A dataset is immutable once built and identified by a content
:meth:`~GroupedDataset.fingerprint` (shape/dtype/offsets/keys/data hash),
which keys the derived-artifact cache (:mod:`repro.core.artifacts`).
"""

from __future__ import annotations

import hashlib
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .dominance import Direction, parse_directions

__all__ = ["BoundingBox", "Group", "GroupedDataset"]


class BoundingBox:
    """Axis-aligned minimum bounding box of a set of records.

    ``min_corner`` / ``max_corner`` follow the paper's Figure 9: with the
    *higher is better* convention the max corner is the (virtual) best record
    of the group and the min corner the worst.  The corners skip NaN, and
    ``holds_nan`` flags a group with a record holding one: the corners do
    not bound that record, so they prove nothing about *every* record.
    """

    __slots__ = ("min_corner", "max_corner", "holds_nan")

    def __init__(self, min_corner: np.ndarray, max_corner: np.ndarray):
        self.min_corner = np.asarray(min_corner, dtype=np.float64)
        self.max_corner = np.asarray(max_corner, dtype=np.float64)
        self.holds_nan = False
        if self.min_corner.shape != self.max_corner.shape:
            raise ValueError("corner shapes differ")
        if np.any(self.min_corner > self.max_corner):
            raise ValueError("min corner exceeds max corner")

    @classmethod
    def of(cls, values: np.ndarray) -> "BoundingBox":
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 2 or array.shape[0] == 0:
            raise ValueError("bounding box needs a non-empty 2-d array")
        low = array.min(axis=0)
        if np.isnan(low).any():  # min() propagates NaN
            low, high = np.fmin.reduce(array, axis=0), np.fmax.reduce(array, axis=0)
            return cls._trusted(low, high, True)
        return cls._trusted(low, array.max(axis=0))

    @classmethod
    def _trusted(
        cls, min_corner: np.ndarray, max_corner: np.ndarray, holds_nan: bool = False
    ) -> "BoundingBox":
        """Wrap pre-validated corner views without copies or checks.

        Used by :class:`GroupedDataset` to hand out boxes whose corners are
        rows of the dataset's corner matrices (already float64, already
        consistent by construction), and by :meth:`of`.
        """
        box = cls.__new__(cls)
        box.min_corner = min_corner
        box.max_corner = max_corner
        box.holds_nan = holds_nan
        return box

    @property
    def dimensions(self) -> int:
        return int(self.min_corner.shape[0])

    def contains_point(self, point: np.ndarray) -> bool:
        pt = np.asarray(point, dtype=np.float64)
        return bool(
            np.all(pt >= self.min_corner) and np.all(pt <= self.max_corner)
        )

    def intersects(self, other: "BoundingBox") -> bool:
        return bool(
            np.all(self.min_corner <= other.max_corner)
            and np.all(other.min_corner <= self.max_corner)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundingBox):
            return NotImplemented
        return bool(
            np.array_equal(self.min_corner, other.min_corner)
            and np.array_equal(self.max_corner, other.max_corner)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"BoundingBox({self.min_corner.tolist()}, {self.max_corner.tolist()})"


class Group:
    """One group of records, with key, payload and cached bounding box.

    When the group belongs to a columnar :class:`GroupedDataset`, ``values``
    is a zero-copy slice of the dataset matrix and the bounding box wraps
    rows of the precomputed corner matrices; standalone groups keep the old
    behaviour (own contiguous payload, box computed lazily).
    """

    __slots__ = ("key", "values", "_bbox", "index", "_span")

    def __init__(
        self,
        key: Hashable,
        values: np.ndarray,
        index: int = -1,
        bbox: Optional[BoundingBox] = None,
        span: Optional[Tuple[int, int]] = None,
    ):
        # ``ascontiguousarray`` is a no-op (returns the same view) for the
        # already-contiguous float64 slices a columnar dataset passes in.
        array = np.ascontiguousarray(values, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("group values must be 2-d (records x dims)")
        if array.shape[0] == 0:
            raise ValueError(f"group {key!r} is empty")
        self.key = key
        self.values = array
        self.index = index
        self._bbox: Optional[BoundingBox] = bbox
        #: Row range of this view inside its dataset's record matrix
        #: (``None`` for standalone groups).  Lets the parallel layer
        #: recognise a consecutive columnar block in O(1) per group
        #: (:func:`repro.parallel.shm.ship_groups`).
        self._span = span

    @property
    def size(self) -> int:
        """Number of records in the group (``|R|`` in the paper)."""
        return int(self.values.shape[0])

    @property
    def dimensions(self) -> int:
        return int(self.values.shape[1])

    @property
    def bbox(self) -> BoundingBox:
        """Minimum bounding box, computed lazily and cached."""
        if self._bbox is None:
            self._bbox = BoundingBox.of(self.values)
        return self._bbox

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Group({self.key!r}, n={self.size}, d={self.dimensions})"


GroupsInput = Union[
    Mapping[Hashable, Iterable],
    Sequence[Group],
]


def _readonly_view(array: np.ndarray) -> np.ndarray:
    """A non-writeable view of ``array`` (zero-copy immutability guard)."""
    view = array.view()
    view.flags.writeable = False
    return view


class GroupedDataset:
    """A partition of the record universe into named groups.

    This is the input type of every aggregate-skyline algorithm.  It can be
    built from a mapping ``{key: array-like of records}`` (records as rows)
    or from a sequence of :class:`Group` objects.  On construction all values
    are normalised to *higher is better* according to ``directions`` and
    packed into the columnar layout described in the module docstring.

    Non-finite records (NaN or ±inf) poison dominance pair counts, so they
    are rejected with an error naming the offending group; pass
    ``allow_non_finite=True`` to accept them anyway (at your own risk).
    """

    def __init__(
        self,
        groups: GroupsInput,
        directions: Union[None, str, Direction, Sequence] = None,
        dimensions: Optional[int] = None,
        allow_non_finite: bool = False,
    ):
        raw: List[Tuple[Hashable, np.ndarray]] = []
        if isinstance(groups, Mapping):
            for key, values in groups.items():
                raw.append((key, np.asarray(values, dtype=np.float64)))
        else:
            for group in groups:
                if not isinstance(group, Group):
                    raise TypeError(
                        "sequence input must contain Group objects"
                    )
                raw.append((group.key, group.values))
        if not raw:
            raise ValueError("a grouped dataset needs at least one group")

        first = raw[0][1]
        if first.ndim == 1:
            first = first.reshape(1, -1)
        inferred = dimensions if dimensions is not None else first.shape[-1]
        directions_parsed = parse_directions(directions, inferred)
        dims = len(directions_parsed)

        keys: List[Hashable] = []
        arrays: List[np.ndarray] = []
        total = 0
        offsets = np.zeros(len(raw) + 1, dtype=np.int64)
        for position, (key, values) in enumerate(raw):
            array = values
            if array.ndim == 1:
                array = array.reshape(1, -1)
            if array.ndim != 2:
                raise ValueError(
                    "values must be a 2-d array (records x dimensions)"
                )
            if array.shape[1] != dims:
                raise ValueError(
                    f"values have {array.shape[1]} dimensions, "
                    f"expected {dims}"
                )
            if array.shape[0] == 0:
                raise ValueError(f"group {key!r} is empty")
            keys.append(key)
            arrays.append(array)
            total += array.shape[0]
            offsets[position + 1] = total

        matrix = np.empty((total, dims), dtype=np.float64)
        for position, array in enumerate(arrays):
            matrix[offsets[position] : offsets[position + 1]] = array
        for column, direction in enumerate(directions_parsed):
            if direction is Direction.MIN:
                matrix[:, column] = -matrix[:, column]

        self._init_columns(
            keys,
            matrix,
            offsets,
            directions_parsed,
            allow_non_finite=allow_non_finite,
        )

    # ------------------------------------------------------------------
    # columnar core
    # ------------------------------------------------------------------

    def _init_columns(
        self,
        keys: Sequence[Hashable],
        matrix: np.ndarray,
        offsets: np.ndarray,
        directions: Tuple[Direction, ...],
        allow_non_finite: bool = False,
    ) -> None:
        """Install pre-assembled columns (matrix already normalised)."""
        key_index: Dict[Hashable, int] = {}
        for position, key in enumerate(keys):
            if key in key_index:
                raise ValueError(f"duplicate group key: {key!r}")
            key_index[key] = position

        self.directions = directions
        self.allow_non_finite = bool(allow_non_finite)
        self._keys: Tuple[Hashable, ...] = tuple(keys)
        self._key_index = key_index
        self._matrix = _readonly_view(matrix)
        self._offsets = _readonly_view(offsets)
        starts = offsets[:-1]
        low, high = np.minimum, np.maximum
        self._nan_groups: Sequence[bool] = (False,) * len(keys)
        if not allow_non_finite:
            self._check_finite()
        elif np.isnan(matrix).any():
            low, high = np.fmin, np.fmax
            nan_records = np.isnan(matrix).any(axis=1)
            self._nan_groups = np.logical_or.reduceat(nan_records, starts).tolist()
        self._min_corners = _readonly_view(low.reduceat(matrix, starts, axis=0))
        self._max_corners = _readonly_view(high.reduceat(matrix, starts, axis=0))
        # Zero-copy Group views are materialised lazily: large archive
        # loads and column-level consumers never pay for G python objects.
        self._group_views: Optional[List[Group]] = None
        self._fingerprint: Optional[str] = None

    def _check_finite(self) -> None:
        finite = np.isfinite(self._matrix)
        if finite.all():
            return
        bad_row = int(np.flatnonzero(~finite.all(axis=1))[0])
        position = int(
            np.searchsorted(self._offsets, bad_row, side="right") - 1
        )
        key = self._keys[position]
        value = self._matrix[bad_row]
        kind = "NaN" if np.isnan(value).any() else "infinite"
        raise ValueError(
            f"group {key!r} contains a non-finite record ({kind} value);"
            " NaN/inf poison dominance pair counts — clean the data or"
            " pass allow_non_finite=True to accept it anyway"
        )

    @classmethod
    def from_columns(
        cls,
        matrix: np.ndarray,
        offsets: np.ndarray,
        keys: Sequence[Hashable],
        directions: Union[None, str, Direction, Sequence] = None,
        *,
        normalized: bool = False,
        allow_non_finite: bool = False,
    ) -> "GroupedDataset":
        """Build a dataset directly from columnar inputs (the fast path).

        ``matrix`` holds all records group after group; group ``i`` owns rows
        ``offsets[i]:offsets[i + 1]``.  With ``normalized=False`` (default)
        the matrix is in the user's original orientation and MIN-direction
        columns are negated into a private copy; with ``normalized=True`` —
        or when every direction is MAX — **the matrix is adopted without a
        copy** (this is what makes ``mmap``-backed store-v2 loads and
        shared-memory attach zero-copy).  The caller must not mutate an
        adopted matrix afterwards.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-d (records x dimensions)")
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.shape[0] < 2:
            raise ValueError("offsets must be 1-d with at least 2 entries")
        if offsets[0] != 0 or offsets[-1] != matrix.shape[0]:
            raise ValueError(
                "offsets must start at 0 and end at the record count"
            )
        sizes = np.diff(offsets)
        if (sizes <= 0).any():
            position = int(np.flatnonzero(sizes <= 0)[0])
            keys = list(keys)
            key = keys[position] if position < len(keys) else position
            raise ValueError(f"group {key!r} is empty")
        keys = list(keys)
        if len(keys) != offsets.shape[0] - 1:
            raise ValueError(
                f"got {len(keys)} keys for {offsets.shape[0] - 1} groups"
            )
        parsed = parse_directions(directions, matrix.shape[1])
        if not normalized and any(d is Direction.MIN for d in parsed):
            matrix = np.ascontiguousarray(matrix)
            flipped = matrix.copy()
            for column, direction in enumerate(parsed):
                if direction is Direction.MIN:
                    flipped[:, column] = -flipped[:, column]
            matrix = flipped
        elif not matrix.flags["C_CONTIGUOUS"]:
            matrix = np.ascontiguousarray(matrix)
        dataset = cls.__new__(cls)
        dataset._init_columns(
            keys, matrix, offsets, parsed, allow_non_finite=allow_non_finite
        )
        return dataset

    @property
    def matrix(self) -> np.ndarray:
        """All records (normalised, C-contiguous, read-only), group-major."""
        return self._matrix

    @property
    def offsets(self) -> np.ndarray:
        """CSR row offsets: group ``i`` is ``matrix[offsets[i]:offsets[i+1]]``."""
        return self._offsets

    @property
    def min_corners(self) -> np.ndarray:
        """Per-group MBB min corners, ``(G × d)`` (read-only)."""
        return self._min_corners

    @property
    def max_corners(self) -> np.ndarray:
        """Per-group MBB max corners, ``(G × d)`` (read-only)."""
        return self._max_corners

    @property
    def group_sizes(self) -> np.ndarray:
        """Records per group (``int64`` vector of length ``G``)."""
        return np.diff(self._offsets)

    def fingerprint(self) -> str:
        """Content hash identifying this dataset (hex string, cached).

        Covers shape, dtype, directions, offsets, keys and the full record
        matrix, so two datasets with identical content share a fingerprint
        regardless of how they were built — the key of the derived-artifact
        cache (:mod:`repro.core.artifacts`).
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=20)
            digest.update(b"grouped-dataset/v1|")
            digest.update(
                f"{self._matrix.shape[0]}x{self._matrix.shape[1]}|".encode()
            )
            digest.update(self._matrix.dtype.str.encode() + b"|")
            digest.update(
                ",".join(d.value for d in self.directions).encode() + b"|"
            )
            digest.update(np.ascontiguousarray(self._offsets).data)
            for key in self._keys:
                digest.update(repr(key).encode("utf-8", "backslashreplace"))
                digest.update(b"\x1f")
            digest.update(np.ascontiguousarray(self._matrix).data)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def _materialize(self) -> List[Group]:
        """Build (once) the zero-copy :class:`Group` views of the columns."""
        if self._group_views is None:
            matrix = self._matrix
            offsets = self._offsets
            min_corners = self._min_corners
            max_corners = self._max_corners
            nan_groups = self._nan_groups
            views: List[Group] = []
            for position, key in enumerate(self._keys):
                start = int(offsets[position])
                stop = int(offsets[position + 1])
                bbox = BoundingBox._trusted(
                    min_corners[position], max_corners[position], nan_groups[position]
                )
                views.append(
                    Group(
                        key,
                        matrix[start:stop],
                        index=position,
                        bbox=bbox,
                        span=(start, stop),
                    )
                )
            self._group_views = views
        return self._group_views

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[Sequence[float]],
        keys: Iterable[Hashable],
        directions: Union[None, str, Direction, Sequence] = None,
        allow_non_finite: bool = False,
    ) -> "GroupedDataset":
        """Group flat records by parallel ``keys`` (a GROUP BY, basically)."""
        buckets: Dict[Hashable, List[Sequence[float]]] = {}
        for record, key in zip(records, keys):
            buckets.setdefault(key, []).append(record)
        return cls(
            {key: np.asarray(rows, dtype=np.float64) for key, rows in buckets.items()},
            directions=directions,
            allow_non_finite=allow_non_finite,
        )

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------

    @property
    def dimensions(self) -> int:
        return int(self._matrix.shape[1])

    @property
    def total_records(self) -> int:
        """Total number of records across all groups (``|U_r|``)."""
        return int(self._matrix.shape[0])

    @property
    def groups(self) -> List[Group]:
        return list(self._materialize())

    def keys(self) -> List[Hashable]:
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Group]:
        return iter(self._materialize())

    def __getitem__(self, key: Hashable) -> Group:
        return self._materialize()[self._key_index[key]]

    def __contains__(self, key: Hashable) -> bool:
        return key in self._key_index

    def original_values(self, key: Hashable) -> np.ndarray:
        """Records of one group in the user's original orientation."""
        position = self._key_index[key]
        start = int(self._offsets[position])
        stop = int(self._offsets[position + 1])
        return self._denormalize(self._matrix[start:stop])

    def _denormalize(self, values: np.ndarray) -> np.ndarray:
        result = values.copy()
        for column, direction in enumerate(self.directions):
            if direction is Direction.MIN:
                result[:, column] = -result[:, column]
        return result

    def original_matrix(self) -> np.ndarray:
        """The full record matrix in the user's original orientation.

        A copy with MIN columns un-negated (or a read-only view when every
        direction is MAX); rows follow :attr:`offsets`.  This is what the
        binary store persists (format v2 writes it verbatim).
        """
        if any(d is Direction.MIN for d in self.directions):
            return self._denormalize(self._matrix)
        return self._matrix

    def subset(self, keys: Iterable[Hashable]) -> "GroupedDataset":
        """A new dataset containing only ``keys`` (same directions, order).

        Useful for drill-downs: run the operator, then re-analyse just the
        winners (or just the losers).
        """
        wanted = set(keys)
        missing = wanted - set(self._key_index)
        if missing:
            raise KeyError(f"unknown group keys: {sorted(map(str, missing))}")
        groups = {
            key: self.original_values(key)
            for key in self._keys
            if key in wanted
        }
        return GroupedDataset(
            groups,
            directions=self.directions,
            allow_non_finite=self.allow_non_finite,
        )

    def project(self, dims: Iterable[int]) -> "GroupedDataset":
        """A new dataset over the dimensions ``dims`` only, in that order.

        Each entry must index a dimension (``0 <= d < dimensions``) and
        appear once.  The projection keeps the keys, the normalised values
        (so every direction is *higher is better*) and
        ``allow_non_finite``.
        """
        columns = [int(d) for d in dims]
        for d in columns:
            if not 0 <= d < self.dimensions:
                raise ValueError(
                    f"dims entry {d} out of range for a"
                    f" {self.dimensions}-dimensional dataset"
                )
        if len(set(columns)) != len(columns):
            raise ValueError(f"dims must not repeat, got {tuple(columns)}")
        return GroupedDataset.from_columns(
            self._matrix[:, columns],
            self._offsets,
            self._keys,
            normalized=True,
            allow_non_finite=self.allow_non_finite,
        )

    def merge(self, other: "GroupedDataset") -> "GroupedDataset":
        """Union of two datasets over the same dimensions and directions.

        Shared keys have their records concatenated (both partitions'
        records belong to the same logical group).
        """
        if other.directions != self.directions:
            raise ValueError("datasets have different directions")
        if other.dimensions != self.dimensions:
            raise ValueError("datasets have different dimensionality")
        merged: Dict[Hashable, np.ndarray] = {
            key: self.original_values(key) for key in self._keys
        }
        for key in other.keys():
            values = other.original_values(key)
            if key in merged:
                merged[key] = np.vstack([merged[key], values])
            else:
                merged[key] = values
        return GroupedDataset(
            merged,
            directions=self.directions,
            allow_non_finite=self.allow_non_finite or other.allow_non_finite,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"GroupedDataset(groups={len(self)}, records={self.total_records},"
            f" d={self.dimensions})"
        )
