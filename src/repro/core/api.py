"""High-level public API of the aggregate-skyline library.

Typical usage::

    from repro import aggregate_skyline

    result = aggregate_skyline(
        {"Tarantino": [[557, 9.0], [313, 8.2]],
         "Wiseau": [[10, 3.2]]},
        directions=["max", "max"],
        gamma=0.5,
    )
    print(result.keys)           # ['Tarantino']

or, starting from flat records with a grouping column::

    result = aggregate_skyline_from_records(
        records=[[557, 9.0], [313, 8.2], [10, 3.2]],
        keys=["Tarantino", "Tarantino", "Wiseau"],
    )
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..obs import runlog as obs_runlog
from .algorithms import make_algorithm
from .dominance import Direction
from .execution import ExecutionConfig
from .gamma import GammaLike, GammaThresholds, dominance_probability
from .groups import GroupedDataset
from .result import AggregateSkylineResult

__all__ = [
    "aggregate_skyline",
    "aggregate_skyline_from_records",
    "ExecutionConfig",
    "GammaProfile",
    "gamma_profile",
]


def _coerce_dataset(
    groups: Union[GroupedDataset, Mapping[Hashable, Iterable]],
    directions: Union[None, str, Direction, Sequence],
) -> GroupedDataset:
    if isinstance(groups, GroupedDataset):
        if directions is not None:
            raise ValueError(
                "directions are fixed at GroupedDataset construction;"
                " do not pass them again"
            )
        return groups
    return GroupedDataset(groups, directions=directions)


def aggregate_skyline(
    groups: Union[GroupedDataset, Mapping[Hashable, Iterable]],
    directions: Union[None, str, Direction, Sequence] = None,
    gamma: GammaLike = 0.5,
    algorithm: str = "LO",
    execution: Optional[ExecutionConfig] = None,
    **options,
) -> AggregateSkylineResult:
    """Compute the aggregate skyline of a set of groups (Definition 2).

    Parameters
    ----------
    groups:
        Either a prepared :class:`GroupedDataset` or a mapping
        ``{group key: array-like of records}``.
    directions:
        Per-dimension ``"max"``/``"min"`` preferences (default: all max,
        the paper's convention).  Only valid with a mapping input.
    gamma:
        Dominance threshold of Definition 3; must be ``>= .5``
        (Proposition 1).  ``.5`` is the paper's parameter-free default and
        the most selective choice; larger values admit more groups.
    algorithm:
        ``"NL"``, ``"TR"``, ``"SI"``, ``"IN"``, ``"LO"`` (default),
        ``"SQL"`` — or ``"auto"`` to let the plan optimizer pick from
        dataset statistics (see ``docs/planner.md``; the decision is
        recorded on ``result.plan``).  An explicit name is forced through
        the same pipeline bit-identically.
    execution:
        An :class:`ExecutionConfig` (or mapping / ``"k=v,..."`` spec)
        selecting the pooled execution path of ``PAR`` / ``IN`` / ``LO``:
        worker count, chunk scheduler, shared-memory shipping.  ``None``
        (default) keeps the serial code path untouched.
    options:
        Forwarded to the algorithm constructor (e.g. ``prune_policy``,
        ``use_stopping_rule``, ``sort_key``, ``block_size``).

    Notes
    -----
    This is the one-shot convenience wrapper over an *ephemeral*
    :class:`repro.engine.SkylineEngine` session: one query, then every
    resource is torn down.  For repeated queries against the same data,
    hold a :class:`~repro.engine.SkylineEngine` open instead — it ships
    the dataset to a persistent worker pool once and reuses it (see
    ``docs/engine.md``).
    """
    dataset = _coerce_dataset(groups, directions)
    if obs_runlog.get_runlog().enabled:
        obs_runlog.emit(
            "api_call",
            api="aggregate_skyline",
            algorithm=str(algorithm),
            groups=len(dataset),
            gamma=str(gamma),
            execution=(
                execution.to_dict()
                if isinstance(execution, ExecutionConfig)
                else execution
            ),
        )
    # Imported here: repro.engine itself imports from repro.core.
    from ..engine import SkylineEngine

    with SkylineEngine.ephemeral(execution) as session:
        return session.query(
            dataset, gamma=gamma, algorithm=algorithm,
            execution=execution, **options,
        )


def aggregate_skyline_from_records(
    records: Iterable[Sequence[float]],
    keys: Iterable[Hashable],
    directions: Union[None, str, Direction, Sequence] = None,
    gamma: GammaLike = 0.5,
    algorithm: str = "LO",
    execution: Optional[ExecutionConfig] = None,
    **options,
) -> AggregateSkylineResult:
    """GROUP BY ``keys`` then compute the aggregate skyline of the groups."""
    dataset = GroupedDataset.from_records(records, keys, directions=directions)
    return aggregate_skyline(
        dataset, gamma=gamma, algorithm=algorithm, execution=execution, **options
    )


class GammaProfile:
    """Per-group domination degrees across all γ (Section 2.2).

    For every group ``R`` stores ``m(R) = max over S != R of p(S > R)``.
    ``R`` belongs to the γ-skyline iff no ``p`` equals 1 and ``m(R) <= γ``,
    so ``m(R)`` (clamped to ``.5``) is the minimum γ at which ``R`` enters
    the result — the sort key for the paper's "return groups ranked by the
    minimum γ for which they are in the skyline" mode.
    """

    def __init__(self, degrees: Mapping[Hashable, Fraction], strictly_dominated: set):
        self._degrees = dict(degrees)
        self._strict = set(strictly_dominated)

    def degree(self, key: Hashable) -> Fraction:
        """``m(R)``: the strongest domination suffered by group ``key``."""
        return self._degrees[key]

    def minimal_gamma(self, key: Hashable) -> Optional[Fraction]:
        """Smallest valid γ admitting ``key``, or ``None`` if never admitted.

        A group fully dominated by some other group (``p = 1``) is excluded
        at every γ (Definition 3's ``p = 1`` clause).
        """
        if key in self._strict:
            return None
        return max(Fraction(1, 2), self._degrees[key])

    def skyline_at(self, gamma: GammaLike) -> List[Hashable]:
        """Group keys in the aggregate skyline for this γ."""
        thresholds = GammaThresholds(gamma)
        result = []
        for key, degree in self._degrees.items():
            if key in self._strict:
                continue
            if degree > thresholds.gamma:
                continue
            result.append(key)
        return result

    def ranked(self) -> List[Tuple[Hashable, Optional[Fraction]]]:
        """All groups sorted by minimal admitting γ (never-admitted last)."""
        entries = [(key, self.minimal_gamma(key)) for key in self._degrees]
        return sorted(
            entries,
            key=lambda pair: (pair[1] is None, pair[1] if pair[1] is not None else 0),
        )

    def __len__(self) -> int:
        return len(self._degrees)


def gamma_profile(
    groups: Union[GroupedDataset, Mapping[Hashable, Iterable]],
    directions: Union[None, str, Direction, Sequence] = None,
) -> GammaProfile:
    """Exact domination degrees between all pairs of groups.

    Quadratic in groups and record pairs — meant for analysis and for the
    "γ as a result-size knob" workflow of Section 2.2, not for the hot path.
    """
    dataset = _coerce_dataset(groups, directions)
    degrees = {}
    strict = set()
    group_list = dataset.groups
    for target in group_list:
        worst = Fraction(0)
        for other in group_list:
            if other.key == target.key:
                continue
            p = dominance_probability(other, target)
            if p == 1:
                strict.add(target.key)
            if p > worst:
                worst = p
        degrees[target.key] = worst
    return GammaProfile(degrees, strict)
