"""Row-batched IN/LO compares against the per-pair loops they replace.

The serial IN/LO loop and the chunk kernel every pool runs query each
upcoming candidate's window once, when its row batch is built, and settle
the window members the batch decided (:mod:`repro.core.row_batch`).  This
module keeps the per-pair versions of both loops as the reference.
Batching must leave keys, verdicts and every work counter bit-identical to
them, and no pair inside a candidate's batched prefix may reach
``compare()``.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from math import isqrt
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import row_batch
from repro.core.algorithms.indexed import IndexedAlgorithm
from repro.core.comparator import GroupComparator, RecordColumns
from repro.core.gamma import GammaThresholds
from repro.core.groups import GroupedDataset
from repro.parallel.executor import compare_candidate_span

COMPARATOR_COUNTERS = (
    "comparisons",
    "pairs_examined",
    "bbox_shortcuts",
    "stopping_rule_exits",
)


class PerPairIndexed(IndexedAlgorithm):
    """The serial Algorithm-5 loop with one ``compare()`` per window pair."""

    def _run(self, groups, state):
        index = self._build_index(groups)
        upper = np.full(groups[0].dimensions, np.inf)
        for i in self._sorted_order(groups):
            if self._skip_as_candidate(i, state):
                continue
            g1 = groups[i]
            candidates = index.search_window(g1.bbox.min_corner, upper)
            self._index_candidates += len(candidates)
            for j in candidates:
                if j == i:
                    continue
                outcome = self._compare_pair(groups, i, j, state)
                if outcome is None:
                    continue
                if outcome.d21 or outcome.d21_strong:
                    if self.prune_policy == "safe" or outcome.d21_strong:
                        break


def per_pair_span(groups, comparator, index, order, span):
    """The chunk kernel with one ``compare()`` per window pair; its marks."""
    start, stop = span
    upper = np.full(groups[0].dimensions, np.inf)
    dominated, strong = [], []
    window_queries = 0
    index_candidates = 0
    for position in range(start, stop):
        i = order[position]
        g1 = groups[i]
        candidates = index.search_window(g1.bbox.min_corner, upper)
        window_queries += 1
        index_candidates += len(candidates)
        for j in candidates:
            if j == i:
                continue
            outcome = comparator.compare(
                g1, groups[j], need_forward=False, need_backward=True
            )
            if outcome.d21_strong:
                strong.append(i)
            if outcome.d21 or outcome.d21_strong:
                dominated.append(i)
                break
    return sorted(dominated), sorted(strong), window_queries, index_candidates


@contextmanager
def record_calls(comparator):
    """Log the ``(g1, g2)`` positions of every ``compare()`` call on
    ``comparator`` and the ``(candidate, member)`` pairs inside the batched
    prefix of every row a batch built meanwhile covered (IN/LO rows are
    windows, walked from their start)."""
    compared, prefixes = set(), set()
    compare = comparator.compare
    init = row_batch.RowBatch.__init__

    def logged_compare(g1, g2, **directions):
        compared.add((g1.index, g2.index))
        return compare(g1, g2, **directions)

    def logged_init(batch, *args, **options):
        init(batch, *args, **options)
        prefixes.update(
            (candidate, member)
            for candidate, (row, _, covered) in batch.rows.items()
            for member in row[:covered]
        )

    comparator.compare = logged_compare
    with mock.patch.object(row_batch.RowBatch, "__init__", logged_init):
        yield compared, prefixes


def counters(comparator):
    return {name: getattr(comparator, name) for name in COMPARATOR_COUNTERS}


@st.composite
def configurations(draw):
    """A small dataset plus every knob the batched loops depend on.

    Integer-grid values give ties and duplicate records; sizes mix
    single-record groups, small groups and groups of ``isqrt(block) + 1``
    records, so one window holds pairs of one kernel block and of several.
    The batch constants shrink so small datasets cross many batch
    boundaries, and a small ``held_members`` ends batches early.
    """
    dims = draw(st.integers(1, 5))
    block_size = draw(st.sampled_from([1, 3, 64, 1024]))
    large = isqrt(block_size) + 1
    sizes = draw(
        st.lists(
            st.one_of(st.integers(1, 3), st.sampled_from([1, large])),
            min_size=2,
            max_size=36,
        )
    )
    grid = draw(st.integers(1, 4))
    values = {}
    for position, size in enumerate(sizes):
        pool = draw(
            st.lists(
                st.lists(st.integers(0, grid), min_size=dims, max_size=dims),
                min_size=1,
                max_size=3,
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
        block_size=block_size,
        use_stopping_rule=draw(st.booleans()),
        use_bbox=draw(st.booleans()),
        prune_policy=draw(st.sampled_from(["paper", "safe"])),
        batch_candidates=draw(st.sampled_from([1, 3, 128])),
        batch_members=draw(st.sampled_from([1, 2, 8])),
        held_members=draw(st.sampled_from([1, 5, 1 << 16])),
        split=draw(st.floats(0.0, 1.0)),
    )


@settings(max_examples=150, deadline=None)
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
    ), mock.patch.object(row_batch, "HELD_MEMBERS", config["held_members"]):
        # Serial loop: same keys and every AlgorithmStats counter.
        batched = IndexedAlgorithm(**options)
        with record_calls(batched.comparator) as (compared, prefixes):
            result = batched.compute(dataset)
        expected = PerPairIndexed(**options).compute(dataset)
        assert result.keys == expected.keys
        for field in dataclasses.fields(result.stats):
            if field.name != "elapsed_seconds":
                assert getattr(result.stats, field.name) == getattr(
                    expected.stats, field.name
                ), field.name
        assert not compared & prefixes

        # Chunk kernel over two spans, with worker-built columns.
        groups = dataset.groups
        index = batched._build_index(groups)
        order = batched._sorted_order(groups)
        cut = int(config["split"] * len(order))
        columns = RecordColumns.of_groups(groups)
        for span in ((0, cut), (cut, len(order))):
            reference = GroupComparator(
                batched.thresholds,
                use_stopping_rule=options["use_stopping_rule"],
                use_bbox=options["use_bbox"],
                block_size=options["block_size"],
            )
            kernel = GroupComparator(
                batched.thresholds,
                use_stopping_rule=options["use_stopping_rule"],
                use_bbox=options["use_bbox"],
                block_size=options["block_size"],
            )
            with record_calls(kernel) as (compared, prefixes):
                assert compare_candidate_span(
                    groups, kernel, index, order, span, columns=columns
                ) == per_pair_span(groups, reference, index, order, span)
            assert counters(kernel) == counters(reference)
            assert not compared & prefixes


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_settle_matches_compare_for_every_direction_request(config):
    # Pairs of one kernel block and of several.
    dataset = config["dataset"]
    groups = dataset.groups
    pairs = [
        (a, b) for a in range(len(groups)) for b in range(len(groups)) if a != b
    ][:64]
    thresholds = GammaThresholds(config["gamma"])
    options = dict(
        use_stopping_rule=config["use_stopping_rule"],
        use_bbox=config["use_bbox"],
        block_size=config["block_size"],
    )
    batch = GroupComparator(thresholds, **options)
    a = [a for a, _ in pairs]
    b = [b for _, b in pairs]
    outcomes = batch.decide(RecordColumns.of_dataset(dataset), a + b, b + a)
    for need_forward, need_backward in ((True, True), (True, False), (False, True)):
        directions = dict(need_forward=need_forward, need_backward=need_backward)
        single = GroupComparator(thresholds, **options)
        batch.reset_stats()
        for slot, (a, b) in enumerate(pairs):
            assert batch.settle(
                outcomes, slot, len(pairs) + slot, **directions
            ) == single.compare(groups[a], groups[b], **directions)
        assert counters(batch) == counters(single)
