"""Aggregate-skyline algorithms (Section 3 of the paper).

The registry maps the paper's evaluation names to implementations:

======  =======================================================
``NL``  Nested loop with stop condition (Algorithm 2)
``TR``  Transitive, weak-transitivity pruning (Algorithm 3)
``SI``  Sorted access (Algorithm 4 + Section 3.4 global opt.)
``IN``  Spatial-index window queries (Algorithm 5)
``LO``  IN plus bounding-box approximation (Section 3.3)
``SQL`` Direct SQL implementation on sqlite (Algorithm 1)
``AD``  Adaptive LO/SI dispatch by estimated overlap (extension)
``PAR`` Parallel chunked nested loop on a worker pool (extension)
======  =======================================================
"""

from __future__ import annotations

from typing import Optional, Union

from ..execution import ExecutionConfig, coerce_execution, normalize_options, suggest
from ..gamma import GammaLike
from .adaptive import AdaptiveAlgorithm
from .base import AggregateSkylineAlgorithm, GroupState, PRUNE_POLICIES
from .indexed import IndexedAlgorithm
from .indexed_bbox import IndexedBBoxAlgorithm
from .nested_loop import NestedLoopAlgorithm
from .parallel import ParallelSkylineAlgorithm
from .sorted_access import SortedAlgorithm
from .sql_baseline import SqlBaselineAlgorithm, build_skyline_sql
from .transitive import TransitiveAlgorithm

__all__ = [
    "AggregateSkylineAlgorithm",
    "GroupState",
    "PRUNE_POLICIES",
    "NestedLoopAlgorithm",
    "AdaptiveAlgorithm",
    "ParallelSkylineAlgorithm",
    "TransitiveAlgorithm",
    "SortedAlgorithm",
    "IndexedAlgorithm",
    "IndexedBBoxAlgorithm",
    "SqlBaselineAlgorithm",
    "build_skyline_sql",
    "ALGORITHMS",
    "make_algorithm",
]

ALGORITHMS = {
    "NL": NestedLoopAlgorithm,
    "AD": AdaptiveAlgorithm,
    "TR": TransitiveAlgorithm,
    "SI": SortedAlgorithm,
    "IN": IndexedAlgorithm,
    "LO": IndexedBBoxAlgorithm,
    "SQL": SqlBaselineAlgorithm,
    "PAR": ParallelSkylineAlgorithm,
}


def make_algorithm(
    name: str,
    gamma: GammaLike = 0.5,
    execution: Optional[ExecutionConfig] = None,
    **options,
) -> Union[AggregateSkylineAlgorithm, SqlBaselineAlgorithm]:
    """Instantiate an algorithm by its paper name (case-insensitive).

    This is the single validation point for algorithm options:

    * *execution* — an :class:`~repro.core.execution.ExecutionConfig`
      (or a mapping / ``"workers=4,scheduler=stealing"`` spec string)
      describing how supporting algorithms (``PAR``, ``IN``, ``LO``)
      run on the process pool.  Passing one to an algorithm that does
      not support pooled execution raises :class:`ValueError`.
    * unknown option names raise :class:`TypeError` with a
      did-you-mean suggestion; an execution setting passed as an option
      (``workers=2``) is pointed at ``execution=``.
    """
    key = name.strip().upper()
    if key not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
            + suggest(key, ALGORITHMS)
        )
    cls = ALGORITHMS[key]
    execution = coerce_execution(execution)
    options = normalize_options(key, cls, options)
    if getattr(cls, "supports_execution", False):
        if execution is not None:
            options["execution"] = execution
    elif execution is not None:
        raise ValueError(
            f"algorithm {key!r} does not accept an execution config; only"
            " pool-backed algorithms (PAR, IN, LO) do"
        )
    return cls(gamma, **options)
