"""Tests for the pairwise group comparator (stopping rule, bbox, Fig. 9)."""

import dataclasses
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import comparator as comparator_module
from repro.core.anytime import AnytimeAggregateSkyline
from repro.core.comparator import (
    GroupComparator,
    RecordColumns,
    ordered_pairs,
    pair_counts,
)
from repro.core.dominance import dominated_mask
from repro.core.gamma import (
    DEFAULT_BLOCK_SIZE,
    GammaThresholds,
    count_dominating_pairs,
    dominance_holds,
    dominance_probability,
)
from repro.core.groups import Group, GroupedDataset
from tests.conftest import kernel_datasets

GAMMAS = [0.5, 0.55, 0.7, 0.75, 0.9, 1.0]
BLOCK_SIZES = [1, 2, 7, 64, 1024]


def make_group(key, values):
    return Group(key, np.asarray(values, dtype=float))


# ----------------------------------------------------------------------
# Reference kernel: the row-major comparator the dimension-major one
# replaced, kept verbatim in behaviour.  It reduces ``(rows, n_b, d)``
# broadcasts over the trailing axis, decides on ``Fraction`` thresholds
# and alternates the two directions block by block.  The counters it
# produces are what the benchmark's golden digests hash, so the kernel
# under test must reproduce every one of them.
# ----------------------------------------------------------------------


def _reference_corner_dominates(p, q):
    return bool(np.all(p >= q) and np.any(p > q))


def _reference_rows_dominating_point(rows, point):
    return np.all(rows >= point, axis=1) & np.any(rows > point, axis=1)


class ReferenceCount:
    """Row-major incremental pair counting for one direction (A over B)."""

    def __init__(self, a, b, use_bbox):
        self.total = a.size * b.size
        self.known = 0
        self.pending = 0
        self.examined = 0
        self._a_mid = None
        self._b_mid = None
        self._cursor = 0
        self._setup(a, b, use_bbox)

    def _setup(self, a, b, use_bbox):
        if not use_bbox:
            self._a_mid = a.values
            self._b_mid = b.values
            self.pending = self.total
            return
        a_box, b_box = a.bbox, b.bbox
        if not _reference_corner_dominates(a_box.max_corner, b_box.min_corner):
            self.pending = 0
            return
        if _reference_corner_dominates(a_box.min_corner, b_box.max_corner):
            self.known = self.total
            self.pending = 0
            return
        a_all = _reference_rows_dominating_point(a.values, b_box.max_corner)
        a_some = _reference_rows_dominating_point(a.values, b_box.min_corner)
        a_mid_mask = a_some & ~a_all
        b_all = dominated_mask(b.values, a_box.min_corner)
        b_some = dominated_mask(b.values, a_box.max_corner)
        b_mid_mask = b_some & ~b_all
        n_a_all = int(np.count_nonzero(a_all))
        n_a_mid = int(np.count_nonzero(a_mid_mask))
        n_b_all = int(np.count_nonzero(b_all))
        n_b_mid = int(np.count_nonzero(b_mid_mask))
        self.known = n_a_all * b.size + n_a_mid * n_b_all
        self.pending = n_a_mid * n_b_mid
        if self.pending:
            self._a_mid = a.values[a_mid_mask]
            self._b_mid = b.values[b_mid_mask]

    @property
    def exhausted(self):
        return self.pending == 0

    def advance(self, block_size):
        if self.pending == 0 or self._a_mid is None or self._b_mid is None:
            return 0
        n_b = self._b_mid.shape[0]
        rows = max(1, block_size // max(1, n_b))
        chunk = self._a_mid[self._cursor : self._cursor + rows]
        if chunk.shape[0] == 0:
            self.pending = 0
            return 0
        ge = np.all(chunk[:, None, :] >= self._b_mid[None, :, :], axis=2)
        gt = np.any(chunk[:, None, :] > self._b_mid[None, :, :], axis=2)
        dominated = int(np.count_nonzero(ge & gt))
        checked = chunk.shape[0] * n_b
        self.known += dominated
        self.pending -= checked
        self.examined += checked
        self._cursor += chunk.shape[0]
        return checked

    def finish(self):
        checked = 0
        while self.pending > 0:
            step = self.advance(DEFAULT_BLOCK_SIZE)
            if step == 0:
                break
            checked += step
        return checked

    def decide(self, threshold):
        lower = self.known
        upper = self.known + self.pending
        if lower * threshold.denominator > threshold.numerator * self.total:
            return True
        if lower == self.total:
            return True
        at_most = upper * threshold.denominator <= threshold.numerator * self.total
        if at_most and upper < self.total:
            return False
        if self.pending == 0:
            return lower == self.total
        return None


class ReferenceComparator:
    """The alternating ``compare()`` loop over :class:`ReferenceCount`."""

    def __init__(self, thresholds, use_stopping_rule, use_bbox, block_size):
        self.thresholds = thresholds
        self.use_stopping_rule = use_stopping_rule
        self.use_bbox = use_bbox
        self.block_size = block_size
        self.comparisons = 0
        self.pairs_examined = 0
        self.bbox_shortcuts = 0
        self.stopping_rule_exits = 0

    def compare(self, g1, g2, need_forward=True, need_backward=True):
        self.comparisons += 1
        forward = ReferenceCount(g1, g2, self.use_bbox) if need_forward else None
        backward = ReferenceCount(g2, g1, self.use_bbox) if need_backward else None
        shortcut = all(
            direction is None or direction.exhausted
            for direction in (forward, backward)
        )
        gamma = self.thresholds.gamma
        strong = self.thresholds.strong
        pairs = 0

        def undecided(direction):
            if direction is None:
                return False
            return (
                direction.decide(gamma) is None
                or direction.decide(strong) is None
            )

        if self.use_stopping_rule:
            while undecided(forward) or undecided(backward):
                progressed = 0
                if undecided(forward):
                    progressed += forward.advance(self.block_size)
                if undecided(backward):
                    progressed += backward.advance(self.block_size)
                pairs += progressed
                if progressed == 0:
                    break
        else:
            if forward is not None:
                pairs += forward.finish()
            if backward is not None:
                pairs += backward.finish()

        def verdicts(direction):
            if direction is None:
                return False, False
            return bool(direction.decide(gamma)), bool(direction.decide(strong))

        flags = verdicts(forward) + verdicts(backward)
        self.pairs_examined += pairs
        if shortcut:
            self.bbox_shortcuts += 1
        if self.use_stopping_rule and any(
            direction is not None and direction.pending > 0
            for direction in (forward, backward)
        ):
            self.stopping_rule_exits += 1
        return flags, pairs, shortcut


class PerPairRefiner:
    """The anytime refiner with one :class:`ReferenceCount` per ordered
    pair, kept as the reference its kernel rounds must reproduce.

    Pairs the Figure-9 bounds decide get no advance (one that holds
    excludes its target); ``step`` walks the open pairs in order and
    advances each by one block while the spend before it is below the
    budget, skips (and drops) pairs onto decided groups, keeps those past
    the budget in order, and refreshes every status after each pass.
    """

    def __init__(self, dataset, gamma, block_size, use_bbox):
        self.gamma = GammaThresholds(gamma).gamma
        self.block_size = block_size
        groups = dataset.groups
        self.keys = [group.key for group in groups]
        n = len(groups)
        self.status = ["undecided"] * n
        self.pairs_examined = 0
        self.pair_budget = 0
        self.probes = {}
        self.by_target = [[] for _ in range(n)]
        self.open = []
        for j in range(n):
            for i in range(n):
                if i == j:
                    continue
                probe = ReferenceCount(groups[i], groups[j], use_bbox)
                verdict = probe.decide(self.gamma)
                if verdict:
                    self.status[j] = "excluded"
                elif verdict is None:
                    self.pair_budget += probe.pending
                    self.probes[(i, j)] = probe
                    self.by_target[j].append(probe)
                    self.open.append((i, j))
        self.refresh()

    @property
    def done(self):
        return "undecided" not in self.status

    def step(self, pair_budget):
        spent = 0
        while spent < pair_budget and not self.done:
            progressed = False
            still_open = []
            for i, j in self.open:
                if spent >= pair_budget:
                    still_open.append((i, j))
                    continue
                if self.status[j] != "undecided":
                    continue
                probe = self.probes[(i, j)]
                advanced = probe.advance(self.block_size)
                spent += advanced
                progressed = progressed or advanced > 0
                if probe.decide(self.gamma) is None:
                    still_open.append((i, j))
            self.open = still_open
            self.refresh()
            if not progressed:
                break
        self.pairs_examined += spent

    def refresh(self):
        for j, probes in enumerate(self.by_target):
            if self.status[j] != "undecided":
                continue
            found = {probe.decide(self.gamma) for probe in probes}
            if True in found:
                self.status[j] = "excluded"
            elif None not in found:
                self.status[j] = "confirmed"

    def confirmed(self):
        return [k for k, s in zip(self.keys, self.status) if s == "confirmed"]

    def excluded(self):
        return [k for k, s in zip(self.keys, self.status) if s == "excluded"]


def counters(comparator):
    return (
        comparator.comparisons,
        comparator.pairs_examined,
        comparator.bbox_shortcuts,
        comparator.stopping_rule_exits,
    )


@st.composite
def grid_groups(draw, max_size=40, non_finite=False):
    """A group of 1..max_size records on a small integer grid, so ties on
    single dimensions, whole duplicate records and single-record groups
    are all common; with ``non_finite``, some cells are NaN or ±inf."""
    d = draw(st.integers(min_value=1, max_value=6))
    top = draw(st.integers(min_value=1, max_value=4))
    record = st.lists(
        st.integers(min_value=0, max_value=top), min_size=d, max_size=d
    )
    special = st.tuples(
        st.integers(min_value=0, max_value=max_size - 1),
        st.integers(min_value=0, max_value=d - 1),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )

    def group(key):
        size = draw(st.sampled_from(range(1, max_size + 1)))
        rows = np.array(
            draw(st.lists(record, min_size=size, max_size=size)), dtype=float
        )
        if non_finite:
            for row, column, value in draw(st.lists(special, max_size=3)):
                rows[row % size, column] = value
        return make_group(key, rows)

    return group("a"), group("b")


def oracle_flags(g1, g2, thresholds):
    """Exact verdicts straight from Definition 3."""
    p12 = dominance_probability(g1, g2)
    p21 = dominance_probability(g2, g1)
    return (
        dominance_holds(p12.numerator, p12.denominator, thresholds.gamma),
        dominance_holds(p12.numerator, p12.denominator, thresholds.strong),
        dominance_holds(p21.numerator, p21.denominator, thresholds.gamma),
        dominance_holds(p21.numerator, p21.denominator, thresholds.strong),
    )


def comparator_variants(thresholds, block_size=3):
    return [
        GroupComparator(thresholds, use_stopping_rule=False, use_bbox=False),
        GroupComparator(thresholds, use_stopping_rule=True, use_bbox=False,
                        block_size=block_size),
        GroupComparator(thresholds, use_stopping_rule=False, use_bbox=True),
        GroupComparator(thresholds, use_stopping_rule=True, use_bbox=True,
                        block_size=block_size),
    ]


class TestCorrectness:
    def test_strict_dominance(self):
        g1 = make_group("a", [[5, 5], [4, 4]])
        g2 = make_group("b", [[1, 1], [2, 2]])
        thresholds = GammaThresholds(0.5)
        for comparator in comparator_variants(thresholds):
            outcome = comparator.compare(g1, g2)
            assert outcome.d12 and outcome.d12_strong
            assert not outcome.d21 and not outcome.d21_strong
            assert not outcome.incomparable

    def test_incomparable_groups(self):
        g1 = make_group("a", [[5, 0]])
        g2 = make_group("b", [[0, 5]])
        thresholds = GammaThresholds(0.5)
        for comparator in comparator_variants(thresholds):
            outcome = comparator.compare(g1, g2)
            assert outcome.incomparable

    def test_exact_gamma_boundary_not_dominating(self):
        # p = 1/2 exactly: Definition 3 requires strictly greater.
        g1 = make_group("a", [[3, 3]])
        g2 = make_group("b", [[1, 1], [5, 5]])
        thresholds = GammaThresholds(0.5)
        for comparator in comparator_variants(thresholds):
            outcome = comparator.compare(g1, g2)
            assert not outcome.d12
            assert not outcome.d21

    def test_dimension_mismatch(self):
        comparator = GroupComparator(GammaThresholds(0.5))
        with pytest.raises(ValueError):
            comparator.compare(
                make_group("a", [[1, 2]]), make_group("b", [[1, 2, 3]])
            )

    def test_needs_at_least_one_direction(self):
        comparator = GroupComparator(GammaThresholds(0.5))
        with pytest.raises(ValueError):
            comparator.compare(
                make_group("a", [[1]]),
                make_group("b", [[2]]),
                need_forward=False,
                need_backward=False,
            )

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            GroupComparator(GammaThresholds(0.5), block_size=0)

    @settings(max_examples=80, deadline=None)
    @given(grid_groups(max_size=6, non_finite=True), st.sampled_from(GAMMAS))
    @example(
        (
            make_group("a", [[np.nan, 5.0], [10.0, 10.0], [11.0, 11.0]]),
            make_group("b", [[1.0, 1.0]]),
        ),
        0.5,
    )
    def test_all_variants_match_oracle(self, groups, gamma):
        # A NaN record dominates nothing and is dominated by nothing, so
        # no corner test may conclude anything about every record.
        g1, g2 = groups
        thresholds = GammaThresholds(gamma)
        expected = oracle_flags(g1, g2, thresholds)
        for comparator in comparator_variants(thresholds, block_size=2):
            outcome = comparator.compare(g1, g2)
            flags = (
                outcome.d12,
                outcome.d12_strong,
                outcome.d21,
                outcome.d21_strong,
            )
            assert flags == expected, (
                f"{comparator.use_stopping_rule=} {comparator.use_bbox=}"
            )


class TestOneDirectional:
    def test_forward_only(self):
        g1 = make_group("a", [[5, 5]])
        g2 = make_group("b", [[1, 1]])
        comparator = GroupComparator(GammaThresholds(0.5))
        outcome = comparator.compare(g1, g2, need_backward=False)
        assert outcome.d12
        assert not outcome.d21  # not computed, reported False

    def test_backward_only(self):
        g1 = make_group("a", [[1, 1]])
        g2 = make_group("b", [[5, 5]])
        comparator = GroupComparator(GammaThresholds(0.5))
        outcome = comparator.compare(g1, g2, need_forward=False)
        assert outcome.d21
        assert not outcome.d12

    def test_one_direction_costs_less(self):
        rng = np.random.default_rng(3)
        g1 = make_group("a", rng.uniform(size=(30, 3)))
        g2 = make_group("b", rng.uniform(size=(30, 3)))
        thresholds = GammaThresholds(0.5)
        both = GroupComparator(thresholds, use_stopping_rule=False)
        both.compare(g1, g2)
        single = GroupComparator(thresholds, use_stopping_rule=False)
        single.compare(g1, g2, need_backward=False)
        assert single.pairs_examined <= both.pairs_examined
        assert single.pairs_examined == 900  # 30 x 30, forward only


class TestWorkCounters:
    def test_stopping_rule_reduces_pairs_on_clear_dominance(self):
        rng = np.random.default_rng(0)
        # g1 far above g2: the verdict settles after a few blocks.
        g1 = make_group("a", rng.uniform(10, 11, size=(50, 2)))
        g2 = make_group("b", rng.uniform(0, 1, size=(50, 2)))
        thresholds = GammaThresholds(0.5)
        eager = GroupComparator(
            thresholds, use_stopping_rule=True, use_bbox=False, block_size=64
        )
        eager.compare(g1, g2)
        full = GroupComparator(
            thresholds, use_stopping_rule=False, use_bbox=False
        )
        full.compare(g1, g2)
        assert eager.pairs_examined < full.pairs_examined
        assert full.pairs_examined == 2 * 50 * 50

    def test_bbox_shortcut_on_strict_dominance(self):
        g1 = make_group("a", [[10, 10], [11, 11]])
        g2 = make_group("b", [[1, 1], [2, 2]])
        comparator = GroupComparator(GammaThresholds(0.5), use_bbox=True)
        outcome = comparator.compare(g1, g2)
        assert outcome.used_bbox_shortcut
        assert outcome.pairs_examined == 0
        assert comparator.bbox_shortcuts == 1

    def test_bbox_partial_preclassification_reduces_pairs(self):
        rng = np.random.default_rng(1)
        # Overlapping but offset groups: regions A and C are non-empty.
        g1 = make_group("a", rng.uniform(0.4, 1.0, size=(40, 2)))
        g2 = make_group("b", rng.uniform(0.0, 0.6, size=(40, 2)))
        thresholds = GammaThresholds(0.5)
        boxed = GroupComparator(
            thresholds, use_stopping_rule=False, use_bbox=True
        )
        boxed.compare(g1, g2)
        plain = GroupComparator(
            thresholds, use_stopping_rule=False, use_bbox=False
        )
        plain.compare(g1, g2)
        assert boxed.pairs_examined < plain.pairs_examined

    def test_reset_stats(self):
        comparator = GroupComparator(GammaThresholds(0.5))
        comparator.compare(make_group("a", [[1]]), make_group("b", [[2]]))
        assert comparator.comparisons == 1
        comparator.reset_stats()
        assert comparator.comparisons == 0
        assert comparator.pairs_examined == 0
        assert comparator.bbox_shortcuts == 0


class TestReferenceKernel:
    """The dimension-major kernel against the kept row-major reference:
    same verdicts and the same ``AlgorithmStats`` counters after every
    compare, for every block size, switch setting and direction request."""

    @settings(max_examples=120, deadline=None)
    @given(
        grid_groups(),
        st.sampled_from(GAMMAS),
        st.sampled_from(BLOCK_SIZES),
    )
    def test_counters_match_reference(self, groups, gamma, block_size):
        g1, g2 = groups
        thresholds = GammaThresholds(gamma)
        requests = [
            (g1, g2, True, True),
            (g1, g2, True, False),
            (g1, g2, False, True),
            (g2, g1, True, True),
        ]
        for use_stopping_rule in (True, False):
            for use_bbox in (True, False):
                switches = (use_stopping_rule, use_bbox, block_size)
                comparator = GroupComparator(
                    thresholds, use_stopping_rule, use_bbox, block_size
                )
                reference = ReferenceComparator(thresholds, *switches)
                for s, r, forward, backward in requests:
                    outcome = comparator.compare(s, r, forward, backward)
                    flags, pairs, shortcut = reference.compare(
                        s, r, forward, backward
                    )
                    assert (
                        outcome.d12,
                        outcome.d12_strong,
                        outcome.d21,
                        outcome.d21_strong,
                    ) == flags, switches
                    assert outcome.pairs_examined == pairs, switches
                    assert outcome.used_bbox_shortcut == shortcut, switches
                    assert counters(comparator) == counters(reference), switches

    @settings(max_examples=60, deadline=None)
    @given(grid_groups())
    def test_probe_exact_is_the_dominance_probability(self, groups):
        # The bulk count probes both directions of a pair: its exact count
        # is Definition 3's, and its bounds bracket it.
        g1, g2 = groups
        columns = RecordColumns.of_groups([g1, g2])
        for use_bbox in (True, False):
            exact, pending = pair_counts(columns, [0, 1], [1, 0], use_bbox)
            known, open_ = pair_counts(
                columns, [0, 1], [1, 0], use_bbox, bounds_only=True
            )
            assert pending.tolist() == open_.tolist()
            for p, (s, r) in enumerate(((g1, g2), (g2, g1))):
                expected = dominance_probability(s, r)
                total = s.size * r.size
                assert Fraction(int(known[p]), total) <= expected
                assert expected <= Fraction(int(known[p] + open_[p]), total)
                assert Fraction(int(exact[p]), total) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_anytime_refinement_matches_reference(self, data):
        # Every trail and pair budget equals the per-pair refiner's, with
        # and without bounding boxes, for budgets below one block and
        # above it, and for a γ exactly equal to a pair fraction.
        n_groups = data.draw(st.integers(min_value=2, max_value=8))
        d = data.draw(st.integers(min_value=1, max_value=3))
        seed = data.draw(st.integers(min_value=0, max_value=100_000))
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(1, 16)) for _ in range(n_groups)]
        dataset = GroupedDataset(
            {
                f"g{k}": rng.integers(0, 4, size=(size, d)).astype(float)
                for k, size in enumerate(sizes)
            }
        )
        total = sizes[0] * sizes[1]
        at_a_pair = Fraction(
            data.draw(st.integers(min_value=(total + 1) // 2, max_value=total)), total
        )
        gamma = data.draw(st.sampled_from([*GAMMAS, max(at_a_pair, Fraction(1, 2))]))
        block_size = data.draw(st.sampled_from(BLOCK_SIZES))
        budget = data.draw(st.integers(min_value=1, max_value=3 * block_size))
        use_bbox = data.draw(st.booleans())

        def refine(refiner):
            trail = [(refiner.confirmed(), refiner.excluded(), 0)]
            while not refiner.done:
                refiner.step(pair_budget=budget)
                trail.append(
                    (refiner.confirmed(), refiner.excluded(), refiner.pairs_examined)
                )
            return refiner.pair_budget, trail

        refined = refine(
            AnytimeAggregateSkyline(
                dataset, gamma, block_size=block_size, use_bbox=use_bbox
            )
        )
        expected = refine(PerPairRefiner(dataset, gamma, block_size, use_bbox))
        assert refined == expected


class TestExactThresholds:
    """Pair probabilities exactly at, and one pair either side of, γ on
    100 × 100 groups.  At 10,000 pairs ``count * denominator`` of a float
    γ's fraction passes 2**63, so these only hold with the integer
    decision kept on Python ints."""

    @staticmethod
    def groups_with_dominating_pairs(count):
        """A over B with exactly ``count`` of the 10,000 pairs dominating.

        B is ``(j, 0)`` for ``j < 100``; an A record ``(c - 0.5, 0)``
        dominates the ``c`` records ``j < c`` (tie on the second
        dimension).  Spreading ``count`` evenly over A keeps the running
        fraction near γ, so the stopping rule decides late.
        """
        base, extra = divmod(count, 100)
        cuts = [base + (1 if i < extra else 0) for i in range(100)]
        a = make_group("a", [[c - 0.5, 0.0] for c in cuts])
        b = make_group("b", [[float(j), 0.0] for j in range(100)])
        return a, b

    @pytest.mark.parametrize(
        "gamma, count, dominated",
        [
            (0.75, 7_500, False),  # p == γ exactly as a rational
            (0.75, 7_501, True),
            (0.55, 5_500, False),  # one pair below the float γ
            (0.55, 5_501, True),  # one pair above it
        ],
    )
    @pytest.mark.parametrize("use_stopping_rule", [True, False])
    @pytest.mark.parametrize("use_bbox", [True, False])
    def test_verdict_one_pair_either_side(
        self, gamma, count, dominated, use_stopping_rule, use_bbox
    ):
        a, b = self.groups_with_dominating_pairs(count)
        assert dominance_probability(a, b) == Fraction(count, 10_000)
        thresholds = GammaThresholds(gamma)
        comparator = GroupComparator(
            thresholds, use_stopping_rule=use_stopping_rule, use_bbox=use_bbox
        )
        outcome = comparator.compare(a, b)
        assert outcome.d12 is dominated
        assert outcome.d12_strong is dominance_holds(count, 10_000, thresholds.strong)
        reverse = 10_000 - count
        assert outcome.d21 is dominance_holds(reverse, 10_000, thresholds.gamma)
        assert outcome.d21_strong is dominance_holds(
            reverse, 10_000, thresholds.strong
        )

    @pytest.mark.parametrize(
        "gamma, count, dominated",
        [
            (0.75, 7_500, False),
            (0.75, 7_501, True),
            (0.55, 5_500, False),
            (0.55, 5_501, True),
        ],
    )
    @pytest.mark.parametrize("use_stopping_rule", [True, False])
    @pytest.mark.parametrize("use_bbox", [True, False])
    def test_batch_kernel_verdict_one_pair_either_side(
        self, gamma, count, dominated, use_stopping_rule, use_bbox
    ):
        # The batch kernel decides on T(t) = (num · t) // den.
        a, b = self.groups_with_dominating_pairs(count)
        thresholds = GammaThresholds(gamma)
        comparator = GroupComparator(
            thresholds, use_stopping_rule=use_stopping_rule, use_bbox=use_bbox
        )
        columns = RecordColumns.of_dataset(
            GroupedDataset({"a": a.values, "b": b.values})
        )
        flags = [bool(flag[0]) for flag in comparator.compare_batch(columns, [0], [1])]
        reverse = 10_000 - count
        assert flags == [
            dominated,
            dominance_holds(count, 10_000, thresholds.strong),
            dominance_holds(reverse, 10_000, thresholds.gamma),
            dominance_holds(reverse, 10_000, thresholds.strong),
        ]


# ----------------------------------------------------------------------
# The block-synchronous batch kernel against per-pair compare()
# ----------------------------------------------------------------------

REQUESTS = ((True, True), (True, False), (False, True))
WIDER = {np.dtype(np.int8): np.int16, np.dtype(np.int16): np.int32}


def widened(columns):
    """``columns`` with its rank arrays one integer dtype wider."""
    wide = WIDER[columns.ranks.dtype]
    ranks = columns.ranks.astype(wide)
    dominated = (
        ranks
        if columns.dominated_ranks is columns.ranks
        else columns.dominated_ranks.astype(wide)
    )
    return dataclasses.replace(columns, ranks=ranks, dominated_ranks=dominated)


class TestBatchKernel:
    """:meth:`GroupComparator.decide` + :meth:`~GroupComparator.settle`, and
    :meth:`~GroupComparator.compare_batch`, reproduce per-pair
    ``compare()`` — verdicts, ``pairs_examined``, flags and counters — for
    every direction request, block size, switch setting and rank dtype,
    also when rounds are cut into many slices and chunks."""

    @settings(max_examples=100, deadline=None)
    @given(
        kernel_datasets(),
        st.sampled_from(GAMMAS),
        st.sampled_from([1, 3, 64, 1024]),
        st.booleans(),
        st.sampled_from([3, 50, 1 << 15]),
        st.sampled_from([1, 3, 1 << 12]),
    )
    def test_kernel_matches_compare(
        self, dataset, gamma, block_size, widen, slice_pairs, chunk
    ):
        columns = RecordColumns.of_dataset(dataset)
        if widen:
            columns = widened(columns)
        groups = dataset.groups
        pairs = [
            (a, b)
            for a in range(len(groups))
            for b in range(len(groups))
            if a != b
        ]
        a = [a for a, _ in pairs]
        b = [b for _, b in pairs]
        thresholds = GammaThresholds(gamma)
        with mock.patch.object(
            comparator_module, "_SLICE_PAIRS", slice_pairs
        ), mock.patch.object(
            comparator_module, "_CHUNK_DIRECTIONS", chunk
        ), mock.patch.object(comparator_module, "_CHUNK_RECORDS", chunk * 20):
            for use_stopping_rule in (True, False):
                for use_bbox in (True, False):
                    switches = (use_stopping_rule, use_bbox, block_size)
                    batch = GroupComparator(thresholds, *switches)
                    single = GroupComparator(thresholds, *switches)
                    outcomes = batch.decide(columns, a + b, b + a)
                    for slot, (i, j) in enumerate(pairs):
                        for request in REQUESTS:
                            assert batch.settle(
                                outcomes, slot, len(pairs) + slot, *request
                            ) == single.compare(groups[i], groups[j], *request), (
                                switches,
                                request,
                            )
                    assert counters(batch) == counters(single), switches

                    whole = GroupComparator(thresholds, *switches)
                    one_by_one = GroupComparator(thresholds, *switches)
                    flags = np.array(whole.compare_batch(columns, a, b)).T.tolist()
                    for (i, j), row in zip(pairs, flags):
                        outcome = one_by_one.compare(groups[i], groups[j])
                        assert row == [
                            outcome.d12,
                            outcome.d12_strong,
                            outcome.d21,
                            outcome.d21_strong,
                        ], switches
                    assert counters(whole) == counters(one_by_one), switches

    def test_settle_refuses_an_undecided_direction(self):
        dataset = GroupedDataset({"a": [[1.0]], "b": [[2.0]]})
        comparator = GroupComparator(GammaThresholds(0.5))
        outcomes = comparator.decide(RecordColumns.of_dataset(dataset), [1], [0])
        assert comparator.settle(outcomes, -1, 0, need_forward=False).d21
        with pytest.raises(ValueError):
            comparator.settle(outcomes, -1, 0)
        with pytest.raises(ValueError):
            comparator.settle(outcomes, -1, 0, False, False)

    def test_a_group_is_never_decided_against_itself(self):
        dataset = GroupedDataset({"a": [[1.0]], "b": [[2.0]]})
        comparator = GroupComparator(GammaThresholds(0.5))
        with pytest.raises(ValueError):
            comparator.decide(RecordColumns.of_dataset(dataset), [0], [0])

    def test_empty_request(self):
        dataset = GroupedDataset({"a": [[1.0]], "b": [[2.0]]})
        comparator = GroupComparator(GammaThresholds(0.5))
        outcomes = comparator.decide(RecordColumns.of_dataset(dataset), [], [])
        assert outcomes.examined == []
        assert comparator.comparisons == 0


class TestBulkCount:
    """:func:`pair_counts` over :func:`ordered_pairs` — every ordered group
    pair, in blocks of whole targets — is the row-major count exactly, and
    its Figure-9 bounds alone bracket it, on the adversarial shapes and
    however the directions are blocked and chunked."""

    @settings(max_examples=100, deadline=None)
    @given(
        kernel_datasets(),
        st.booleans(),
        st.sampled_from([1, 7, comparator_module.BULK_DIRECTIONS]),
        st.sampled_from([1, 3, 1 << 12]),
    )
    def test_counts_match_the_row_major_count(self, dataset, use_bbox, block, chunk):
        columns = RecordColumns.of_dataset(dataset)
        groups = dataset.groups
        n = len(groups)
        seen = []
        with mock.patch.object(
            comparator_module, "BULK_DIRECTIONS", block
        ), mock.patch.object(
            comparator_module, "_CHUNK_DIRECTIONS", chunk
        ), mock.patch.object(comparator_module, "_CHUNK_RECORDS", chunk * 20):
            for targets, x, y in ordered_pairs(n, range(n)):
                assert x.shape[0] == targets.shape[0] * (n - 1) <= max(block, n - 1)
                assert (y.reshape(-1, n - 1) == targets[:, None]).all()
                exact, pending = pair_counts(columns, x, y, use_bbox)
                known, open_ = pair_counts(columns, x, y, use_bbox, bounds_only=True)
                assert pending.tolist() == open_.tolist()
                for p, (i, j) in enumerate(zip(x.tolist(), y.tolist())):
                    s, r = groups[i], groups[j]
                    expected = count_dominating_pairs(s.values, r.values)
                    assert exact[p] == expected
                    assert known[p] <= expected <= known[p] + open_[p]
                    if not use_bbox:
                        assert known[p] == 0 and open_[p] == s.size * r.size
                    seen.append((i, j))
        assert seen == [(i, j) for j in range(n) for i in range(n) if i != j]


class TestRankColumns:
    def test_rank_dtype_is_the_narrowest_that_holds_every_rank(self):
        rng = np.random.default_rng(0)
        for distinct, dtype in ((127, np.int8), (128, np.int16), (40_000, np.int32)):
            values = rng.permutation(distinct).astype(float)[:, None]
            dataset = GroupedDataset({"a": values[:1], "b": values[1:]})
            columns = RecordColumns.of_dataset(dataset)
            assert columns.ranks.dtype == dtype, distinct
            assert int(columns.ranks[0, : values.shape[0]].max()) == distinct - 1

    def test_ranks_order_like_values_and_spare_columns_follow(self):
        dataset = GroupedDataset(
            {"a": [[0.5, -np.inf], [2.0, 3.0]], "b": [[0.5, 7.0], [1.0, np.inf]]},
            allow_non_finite=True,
        )
        columns = RecordColumns.of_dataset(dataset)
        assert columns.ranks[:, :4].tolist() == [[0, 2, 0, 1], [0, 1, 2, 3]]
        assert columns.spare == 2
        assert columns.ranks.shape == (2, 6)
        assert columns.dominated_ranks is columns.ranks
        assert columns.row_ids is None  # every record is distinct

    def test_nan_fails_both_sides(self):
        dataset = GroupedDataset(
            {"a": [[np.nan, 1.0]], "b": [[0.0, 0.0], [2.0, np.nan]]},
            allow_non_finite=True,
        )
        columns = RecordColumns.of_dataset(dataset)
        # Two distinct non-NaN values in each dimension, so top is 2.
        assert columns.ranks[:, :3].tolist() == [[-1, 0, 1], [1, 0, -1]]
        assert columns.dominated_ranks[:, :3].tolist() == [[2, 0, 1], [1, 0, 2]]
        comparator = GroupComparator(GammaThresholds(0.5), use_stopping_rule=False)
        outcomes = comparator.decide(columns, [0, 1], [1, 0])
        # a's NaN record dominates nothing; b's (2, NaN) is dominated by
        # nothing and dominates nothing; b's (0, 0) is beaten by nobody.
        assert outcomes.examined == [2, 2]
        assert outcomes.gamma == [False, False]

    def test_row_ids_number_duplicate_records(self):
        dataset = GroupedDataset({"a": [[1.0, 2.0]], "b": [[1.0, 2.0], [0.0, 0.0]]})
        columns = RecordColumns.of_dataset(dataset)
        assert columns.row_ids is not None
        ids = columns.row_ids[:3].tolist()
        assert ids[0] == ids[1] != ids[2]
        # An equal record does not dominate; (0, 0) is dominated by (1, 2).
        outcomes = GroupComparator(GammaThresholds(0.5)).decide(columns, [0], [1])
        assert outcomes.examined == [2]
        assert outcomes.gamma == [False]  # p = 1/2, not above γ = .5
