"""Tests for row/column selections."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import QueryError
from repro.query import Selection


class TestResolve:
    def test_explicit_indices(self):
        selection = Selection(rows=[3, 1, 1], cols=[0, 2])
        rows, cols = selection.resolve((5, 4))
        assert list(rows) == [1, 3]  # sorted, deduplicated
        assert list(cols) == [0, 2]

    def test_all_rows_and_cols(self):
        rows, cols = Selection().resolve((3, 2))
        assert list(rows) == [0, 1, 2]
        assert list(cols) == [0, 1]

    def test_slice_selection(self):
        rows, cols = Selection(rows=slice(1, 4), cols=slice(None)).resolve((6, 3))
        assert list(rows) == [1, 2, 3]
        assert list(cols) == [0, 1, 2]
        # A negative step selects the same set, resolved ascending.
        rows, cols = Selection(rows=slice(None, None, -2), cols=slice(3, 0, -1)).resolve((6, 5))
        assert list(rows) == [1, 3, 5]
        assert list(cols) == [1, 2, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(QueryError):
            Selection(rows=[10]).resolve((5, 5))
        with pytest.raises(QueryError):
            Selection(cols=[-1]).resolve((5, 5))

    def test_empty_selection_rejected(self):
        with pytest.raises(QueryError):
            Selection(rows=[]).resolve((5, 5))

    def test_cell_count(self):
        selection = Selection(rows=[0, 1], cols=[0, 1, 2])
        assert selection.cell_count((10, 10)) == 6


class TestRandom:
    def test_covers_about_target_fraction(self):
        rng = np.random.default_rng(0)
        shape = (1000, 366)
        fractions = [
            Selection.random(shape, 0.10, rng).cell_count(shape) / (1000 * 366)
            for _ in range(20)
        ]
        assert 0.05 < float(np.mean(fractions)) < 0.15

    def test_small_fraction_still_non_empty(self):
        rng = np.random.default_rng(1)
        selection = Selection.random((50, 20), 0.001, rng)
        assert selection.cell_count((50, 20)) >= 1

    def test_invalid_fraction(self):
        rng = np.random.default_rng(2)
        with pytest.raises(QueryError):
            Selection.random((5, 5), 0.0, rng)
        with pytest.raises(QueryError):
            Selection.random((5, 5), 1.5, rng)

    def test_deterministic_given_rng_state(self):
        a = Selection.random((100, 50), 0.1, np.random.default_rng(7))
        b = Selection.random((100, 50), 0.1, np.random.default_rng(7))
        assert a.resolve((100, 50))[0].tolist() == b.resolve((100, 50))[0].tolist()


class TestEmptySelections:
    """Empty selections must surface as QueryError, never IndexError."""

    def test_empty_row_slice(self):
        with pytest.raises(QueryError, match="row selection is empty"):
            Selection(rows=slice(2, 2)).resolve((10, 4))

    def test_empty_col_slice(self):
        with pytest.raises(QueryError, match="column selection is empty"):
            Selection(cols=slice(3, 3)).resolve((10, 4))

    def test_zero_extent_matrix(self):
        with pytest.raises(QueryError):
            Selection().resolve((0, 4))


class TestSteppedRanges:
    """range selections with step != 1 — bounds-checked before any
    materialization, so hostile sizes die fast as QueryError."""

    def test_positive_step_resolves_sorted(self):
        rows, _ = Selection(rows=range(1, 12, 3)).resolve((20, 4))
        assert list(rows) == [1, 4, 7, 10]

    def test_negative_step_resolves_ascending(self):
        rows, _ = Selection(rows=range(10, 0, -2)).resolve((20, 4))
        assert list(rows) == [2, 4, 6, 8, 10]

    def test_huge_stepped_range_fails_fast_without_allocation(self):
        import time

        for hostile in (
            range(0, 10**18, 2),
            range(0, 10**21, 5),
            range(10**21, -1, -3),
        ):
            start = time.perf_counter()
            with pytest.raises(QueryError):
                Selection(rows=hostile).resolve((100, 100))
            assert time.perf_counter() - start < 1.0

    def test_empty_stepped_range_rejected(self):
        with pytest.raises(QueryError):
            Selection(rows=range(0, 10, -1)).resolve((20, 20))
        with pytest.raises(QueryError):
            Selection(rows=range(10, 0, 2)).resolve((20, 20))

    def test_out_of_bounds_step_endpoints_rejected(self):
        with pytest.raises(QueryError):
            Selection(rows=range(0, 25, 6)).resolve((24, 4))
        with pytest.raises(QueryError):
            Selection(rows=range(-3, 9, 3)).resolve((24, 4))


class TestNonIntegerIndices:
    """An index NumPy would have to truncate or parse is a typed error,
    not an answer about a different row or column."""

    @pytest.mark.parametrize(
        "bad",
        [
            [1.7, 2.2],
            [1, 2.0],
            np.array([1.0, 2.0]),
            ["2"],
            [True],
            np.array([True, False]),
            # A bool among integers: NumPy would read it as row 0 or 1.
            [True, 2],
            [np.int64(3), True],
            (np.bool_(False), 4),
            [None],
            [2**63],  # fits uint64, not an index
            [2**64],
            [-(2**63) - 1],
            [[1, 2], [3]],
        ],
        ids=repr,
    )
    def test_rejected_on_either_axis(self, bad):
        with pytest.raises(QueryError, match="integers"):
            Selection(rows=bad).resolve((10, 10))
        with pytest.raises(QueryError, match="integers"):
            Selection(cols=bad).resolve((10, 10))

    @pytest.mark.parametrize(
        "good",
        [
            [3, 1, 1],
            (3, 1),
            {1, 3},
            (index for index in (3, 1)),
            np.array([3, 1], dtype=np.int32),
            np.array([3, 1], dtype=np.uint64),
            [np.int64(3), 1],
        ],
        ids=lambda good: type(good).__name__,
    )
    def test_integer_spellings_still_resolve(self, good):
        rows, _cols = Selection(rows=good).resolve((10, 10))
        assert rows.dtype == np.int64
        assert list(rows) == [1, 3]

    def test_increasing_list_resolves_as_given(self):
        rows, _cols = Selection(rows=[0, 5, 7, 9]).resolve((10, 10))
        assert rows.dtype == np.int64 and list(rows) == [0, 5, 7, 9]

    def test_engine_raises_instead_of_answering_about_row_one(self):
        from repro.query import AggregateQuery, QueryEngine

        engine = QueryEngine(np.arange(20.0).reshape(4, 5))
        with pytest.raises(QueryError):
            engine.aggregate(AggregateQuery("sum", Selection(rows=[1.7], cols=[0])))


class TestNonFlatIndices:
    """A nested index list is a typed error, not the flattened rows
    (a 2 x 2 list used to answer rows 0, 5, 7 and 9)."""

    @pytest.mark.parametrize(
        "nested",
        [[[0, 5], [7, 9]], np.array([[0, 5], [7, 9]]), [[3]], np.zeros((1, 0), dtype=int)],
        ids=["list", "ndarray", "1x1", "1x0"],
    )
    def test_rejected_on_either_axis(self, nested):
        with pytest.raises(QueryError, match="flat list"):
            Selection(rows=nested, cols=[1]).resolve((10, 10))
        with pytest.raises(QueryError, match="flat list"):
            Selection(rows=[1], cols=nested).resolve((10, 10))
