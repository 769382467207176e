"""Tests for the record-wise skyline substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skyline import (
    skyline,
    skyline_bbs,
    skyline_bnl,
    skyline_dnc,
    skyline_mask,
    skyline_naive,
    skyline_sfs,
)
from repro.data.movies import MOVIE_ROWS

ALGORITHMS = ("naive", "bnl", "sfs", "dnc", "bbs")


class TestKnownResults:
    def test_paper_figure2(self):
        """Example 1: the Movie-table skyline is Pulp Fiction + Godfather."""
        values = [(pop, qual) for _, _, _, pop, qual in MOVIE_ROWS]
        titles = [title for title, *_ in MOVIE_ROWS]
        for algorithm in ALGORITHMS:
            mask = skyline_mask(values, algorithm=algorithm)
            surviving = {t for t, keep in zip(titles, mask) if keep}
            assert surviving == {"Pulp Fiction", "The Godfather"}

    def test_single_record(self):
        for algorithm in ALGORITHMS:
            mask = skyline_mask([[1.0, 2.0]], algorithm=algorithm)
            assert mask.tolist() == [True]

    def test_duplicates_all_kept(self):
        # Equal records do not dominate each other.
        values = [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]
        for algorithm in ALGORITHMS:
            mask = skyline_mask(values, algorithm=algorithm)
            assert mask.tolist() == [True, True, False]

    def test_min_direction(self):
        values = [[1.0, 10.0], [2.0, 20.0]]
        # Minimising both: [1, 10] dominates [2, 20].
        mask = skyline_mask(values, directions="min")
        assert mask.tolist() == [True, False]

    def test_mixed_directions(self):
        # maximise first, minimise second
        values = [[5.0, 1.0], [5.0, 2.0], [4.0, 0.5]]
        mask = skyline_mask(values, directions=["max", "min"])
        assert mask.tolist() == [True, False, True]

    def test_skyline_returns_original_rows(self):
        values = np.array([[1.0, 1.0], [2.0, 2.0]])
        result = skyline(values)
        assert result.tolist() == [[2.0, 2.0]]

    @pytest.mark.parametrize(
        "values,expected",
        [
            # equal sums at +inf
            ([[np.inf, 0.0], [np.inf, 1.0]], [False, True]),
            # both sums overflow to +inf
            ([[1.5e308, 1e308], [1.5e308, 1.5e308]], [False, True]),
            # inf + -inf is NaN
            ([[np.inf, -np.inf], [np.inf, 0.0]], [False, True]),
        ],
    )
    def test_infinite_and_overflowing_sums(self, values, expected):
        for algorithm in ALGORITHMS:
            mask = skyline_mask(values, algorithm=algorithm)
            assert mask.tolist() == expected, algorithm

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            skyline_mask([[1.0]], algorithm="quantum")

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            skyline_mask(np.zeros((2, 2, 2)))


class TestAlgorithmAgreement:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=100_000),
    )
    def test_all_algorithms_agree(self, n, d, seed):
        rng = np.random.default_rng(seed)
        # Coarse alphabet: plenty of ties and duplicates, and coordinate
        # sums that tie at ±inf, overflow or turn NaN.
        alphabet = np.array(
            [-np.inf, -1.5e308, 0.0, 1.0, 2.0, 3.0, 4.0, 1.5e308, np.inf]
        )
        values = alphabet[rng.integers(0, len(alphabet), size=(n, d))]
        with np.errstate(over="ignore", invalid="ignore"):
            masks = [
                skyline_mask(values, algorithm=a).tolist() for a in ALGORITHMS
            ]
        assert all(mask == masks[0] for mask in masks[1:])

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=0, max_value=100_000),
    )
    def test_skyline_is_undominated_and_dominates_rest(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 5, size=(n, 3)).astype(float)
        mask = skyline_mask(values)
        data = np.asarray(values, dtype=float)

        def dominated_by_any(record):
            ge = np.all(data >= record, axis=1)
            gt = np.any(data > record, axis=1)
            return bool(np.any(ge & gt))

        for record, keep in zip(data, mask):
            assert keep == (not dominated_by_any(record))
        assert mask.any()  # a skyline is never empty

    def test_internal_algorithms_on_normalised_data(self, rng):
        data = rng.integers(0, 4, size=(20, 2)).astype(float)
        assert (
            skyline_naive(data)
            == skyline_bnl(data)
            == skyline_sfs(data)
            == skyline_dnc(data)
            == skyline_bbs(data)
        )

    def test_bbs_empty(self):
        import numpy as np

        assert skyline_bbs(np.empty((0, 2))) == []
