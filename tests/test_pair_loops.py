"""NL, TR, SI and PAR's two-phase chunks against the per-pair loops they replaced.

These loops decide their compares on the block-synchronous batch kernel
(:meth:`~repro.core.comparator.GroupComparator.compare_batch` for NL and
two-phase chunks, which are one kernel: NL is ``compare_span`` over all
pairs; row batches of upcoming candidates, then doubling
one-candidate tails, replayed through ``_compare_pair(prepared=...)`` for
TR and SI, see :mod:`repro.core.row_batch`).  This module keeps the
per-pair loops — one ``compare()`` per pair — as the reference: the
batched loops must give the same keys, verdicts and every work counter,
and must not fall back to ``compare()`` at all.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import row_batch
from repro.core.algorithms import make_algorithm
from repro.core.algorithms.nested_loop import NestedLoopAlgorithm
from repro.core.algorithms.sorted_access import SortedAlgorithm
from repro.core.algorithms.transitive import TransitiveAlgorithm
from repro.core.comparator import GroupComparator, RecordColumns
from repro.core.gamma import GammaThresholds
from repro.core.groups import GroupedDataset
from repro.parallel import executor as executor_module
from repro.parallel.executor import compare_span
from repro.parallel.partition import pair_count, pair_from_index

COMPARATOR_COUNTERS = (
    "comparisons",
    "pairs_examined",
    "bbox_shortcuts",
    "stopping_rule_exits",
)


class PerPairNL(NestedLoopAlgorithm):
    """Algorithm 2 with one ``compare()`` per pair."""

    def _run(self, groups, state):
        n = len(groups)
        for i in range(n):
            for j in range(i + 1, n):
                outcome = self.comparator.compare(groups[i], groups[j])
                if outcome.d12_strong:
                    state.mark_strong(j)
                elif outcome.d12:
                    state.mark_dominated(j)
                if outcome.d21_strong:
                    state.mark_strong(i)
                elif outcome.d21:
                    state.mark_dominated(i)


class PerPairRows:
    """Algorithm 3's loop over ``order`` with one ``compare()`` per pair."""

    def _run_rows(self, groups, state, order):
        for rank, i in enumerate(order):
            if self._skip_as_candidate(i, state):
                continue
            for j in order[rank + 1 :]:
                outcome = self._compare_pair(groups, i, j, state)
                if outcome is None:
                    continue
                if outcome.d21_strong and self.prune_policy == "paper":
                    break


class PerPairTR(PerPairRows, TransitiveAlgorithm):
    pass


class PerPairSI(PerPairRows, SortedAlgorithm):
    pass


def iter_pairs(start, stop, n):
    """The pairs with linear indices ``start <= k < stop``, one at a time:
    the reference pair order of :func:`repro.parallel.partition.pair_arrays`."""
    if start >= stop:
        return
    i, j = pair_from_index(start, n)
    for _ in range(stop - start):
        yield i, j
        j += 1
        if j >= n:
            i += 1
            j = i + 1


def per_pair_span(groups, comparator, span):
    """A two-phase chunk with one ``compare()`` per pair; its marks."""
    dominated, strong = set(), set()
    for i, j in iter_pairs(*span, len(groups)):
        outcome = comparator.compare(groups[i], groups[j])
        for loser, marked, firm in (
            (j, outcome.d12, outcome.d12_strong),
            (i, outcome.d21, outcome.d21_strong),
        ):
            if marked or firm:
                dominated.add(loser)
            if firm:
                strong.add(loser)
    return sorted(dominated), sorted(strong)


def counters(comparator):
    return {name: getattr(comparator, name) for name in COMPARATOR_COUNTERS}


def forbid_compare(comparator):
    """Make ``comparator.compare`` fail: the batched loops never call it."""

    def refuse(*args, **kwargs):
        raise AssertionError("a batched loop fell back to compare()")

    comparator.compare = refuse


@st.composite
def configurations(draw):
    """A small dataset whose pairs span one block or many, plus every knob
    the batched loops depend on.

    Integer-grid values drawn from a small pool of records give ties and
    duplicate records; sizes mix single-record groups with groups of 12
    and 40 records.  ``batch_candidates``, ``batch_members`` and
    ``pairs_per_batch`` (``SPAN_PAIRS``, NL's batch too) shrink the batch
    constants so small datasets cross many batch boundaries.
    """
    dims = draw(st.integers(1, 4))
    sizes = draw(
        st.lists(st.sampled_from([1, 2, 3, 12, 40]), min_size=2, max_size=8)
    )
    grid = draw(st.integers(1, 4))
    values = {}
    for position, size in enumerate(sizes):
        pool = draw(
            st.lists(
                st.lists(st.integers(0, grid), min_size=dims, max_size=dims),
                min_size=1,
                max_size=6,
            )
        )
        rows = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        values[f"g{position}"] = np.array(rows, dtype=np.float64)
    with_nan = draw(st.integers(0, 9)) == 0
    if with_nan:
        key = draw(st.sampled_from(sorted(values)))
        values[key][0, 0] = np.nan
    return dict(
        dataset=GroupedDataset(values, allow_non_finite=with_nan),
        gamma=draw(st.sampled_from([0.5, 0.55, 0.75, 0.9, 1.0])),
        block_size=draw(st.sampled_from([1, 3, 64, 1024])),
        use_stopping_rule=draw(st.booleans()),
        use_bbox=draw(st.booleans()),
        prune_policy=draw(st.sampled_from(["paper", "safe"])),
        batch_candidates=draw(st.sampled_from([1, 3, 128])),
        batch_members=draw(st.sampled_from([1, 2, 8])),
        pairs_per_batch=draw(st.sampled_from([1, 5, 2048])),
        split=draw(st.floats(0.0, 1.0)),
    )


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_batched_loops_match_per_pair_loops(config):
    dataset = config["dataset"]
    options = dict(
        gamma=config["gamma"],
        use_stopping_rule=config["use_stopping_rule"],
        use_bbox=config["use_bbox"],
        prune_policy=config["prune_policy"],
        block_size=config["block_size"],
    )
    with mock.patch.object(
        row_batch, "BATCH_CANDIDATES", config["batch_candidates"]
    ), mock.patch.object(
        row_batch, "BATCH_MEMBERS", config["batch_members"]
    ), mock.patch.object(
        executor_module, "SPAN_PAIRS", config["pairs_per_batch"]
    ):
        for name, reference in (("NL", PerPairNL), ("TR", PerPairTR), ("SI", PerPairSI)):
            batched = make_algorithm(name, **options)
            forbid_compare(batched.comparator)
            result = batched.compute(dataset)
            expected = reference(**options).compute(dataset)
            assert result.keys == expected.keys, name
            for field in dataclasses.fields(result.stats):
                if field.name != "elapsed_seconds":
                    assert getattr(result.stats, field.name) == getattr(
                        expected.stats, field.name
                    ), (name, field.name)

        # Two-phase chunks over two spans, with worker-built columns.
        groups = dataset.groups
        columns = RecordColumns.of_groups(groups)
        cut = int(config["split"] * pair_count(len(groups)))
        switches = (
            GammaThresholds(config["gamma"]),
            config["use_stopping_rule"],
            config["use_bbox"],
            config["block_size"],
        )
        for span in ((0, cut), (cut, pair_count(len(groups)))):
            kernel = GroupComparator(*switches)
            reference = GroupComparator(*switches)
            forbid_compare(kernel)
            assert compare_span(
                groups, kernel, span, columns=columns
            ) == per_pair_span(groups, reference, span)
            assert counters(kernel) == counters(reference)


def test_two_phase_chunks_need_columns():
    dataset = GroupedDataset({"a": [[1.0]], "b": [[2.0]]})
    comparator = GroupComparator(GammaThresholds(0.5))
    with pytest.raises(TypeError, match="columns"):
        compare_span(dataset.groups, comparator, (0, 1))
