"""Tests for the sorted-array outlier index."""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import delta_index
from repro.core.delta_index import DeltaIndex
from repro.exceptions import ConfigurationError
from repro.storage.delta_file import DeltaFile

NUM_COLS = 10


@pytest.fixture()
def index() -> DeltaIndex:
    # Cells (1,2)=5.0, (3,0)=-2.0, (3,7)=1.5, (8,9)=0.25 on a 10-wide matrix.
    keys = [12, 30, 37, 89]
    values = [5.0, -2.0, 1.5, 0.25]
    return DeltaIndex(keys, values, NUM_COLS)


class TestConstruction:
    def test_sorts_unsorted_input(self):
        index = DeltaIndex([30, 12, 89, 37], [-2.0, 5.0, 0.25, 1.5], NUM_COLS)
        assert list(index.keys) == [12, 30, 37, 89]
        assert list(index.values) == [5.0, -2.0, 1.5, 0.25]

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ConfigurationError):
            DeltaIndex([1, 2], [1.0], NUM_COLS)

    def test_row_col_decomposition(self, index):
        assert list(index.rows) == [1, 3, 3, 8]
        assert list(index.cols) == [2, 0, 7, 9]


class TestScalarAccess:
    def test_get_present_and_absent(self, index):
        assert index.get(12) == 5.0
        assert index.get(13) == 0.0
        assert index.get(13, default=-1.0) == -1.0

    def test_contains(self, index):
        assert 37 in index
        assert 36 not in index
        assert 1000 not in index

    def test_items_in_key_order(self, index):
        assert list(index.items()) == [
            (12, 5.0),
            (30, -2.0),
            (37, 1.5),
            (89, 0.25),
        ]


class TestVectorizedAccess:
    def test_for_row(self, index):
        cols, values = index.for_row(3)
        assert list(cols) == [0, 7]
        assert list(values) == [-2.0, 1.5]
        cols, values = index.for_row(2)
        assert cols.size == 0 and values.size == 0


class TestSelect:
    def test_positions_follow_selection_order(self, index):
        # Unsorted selections: positions must index the given arrays.
        row_sel = np.array([8, 3])
        col_sel = np.array([9, 0])
        row_pos, col_pos, rows, cols, values = index.select(row_sel, col_sel)
        folded = np.zeros((2, 2))
        folded[row_pos, col_pos] += values
        assert folded[0, 0] == 0.25  # (8, 9)
        assert folded[1, 1] == -2.0  # (3, 0)
        assert folded[0, 1] == 0.0 and folded[1, 0] == 0.0

    def test_empty_selection(self, index):
        row_pos, *_rest, values = index.select(np.empty(0), np.array([0]))
        assert row_pos.size == 0 and values.size == 0

    def test_no_deltas_inside(self, index):
        _p, _q, _r, _c, values = index.select(np.array([0, 2]), np.array([1, 4]))
        assert values.size == 0


@contextlib.contextmanager
def _mapped_index(keys, values, num_cols):
    """The index the way a ``mapped=True`` store builds it: adopted from
    the read-only arrays of a memory-mapped delta file."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "deltas.bin"
        DeltaFile.write(path, keys, values)
        mapped_keys, mapped_values, mm = DeltaFile.map_arrays(path)
        try:
            yield DeltaIndex(mapped_keys, mapped_values, num_cols, assume_sorted=True)
        finally:
            del mapped_keys, mapped_values
            try:
                mm.close()
            except BufferError:
                # The caller's index still views the map (a 0/1-record
                # view is adopted without a copy); freed with the index.
                pass


@st.composite
def _select_cases(draw):
    num_rows = draw(st.integers(1, 8))
    num_cols = draw(st.integers(1, 8))
    cells = num_rows * num_cols
    keys = draw(st.sets(st.integers(0, cells - 1), max_size=cells))
    # Lists, not sets: unsorted, duplicated, non-contiguous, possibly empty.
    row_sel = draw(st.lists(st.integers(0, num_rows - 1), max_size=6))
    col_sel = draw(st.lists(st.integers(0, num_cols - 1), max_size=6))
    return num_rows, num_cols, sorted(keys), row_sel, col_sel, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=_select_cases())
# Slice bounds at both ends of the key array: first/last row, column 0 / M-1.
@example(case=(3, 4, [0, 3, 8, 11], [0, 2, 0], [3, 0], False))
@example(case=(3, 4, [0, 3, 8, 11], [2, 0], [0, 3, 3], True))
# Empty index, rows without deltas, a selection that returns nothing.
@example(case=(3, 4, [], [1, 1], [2], False))
@example(case=(3, 4, [5], [0, 2], [1], True))
@example(case=(3, 4, [4, 6], [1], [1], False))
def test_property_select_matches_dict_scan(case):
    """``select`` equals a dense-mask oracle, one entry per occurrence of
    a repeated selection entry, and probes only the selected rows."""
    num_rows, num_cols, keys, row_sel, col_sel, mapped = case
    keys = np.asarray(keys, dtype=np.int64)
    values = 1.0 + np.arange(keys.size, dtype=np.float64)  # distinct, non-zero
    dense = np.zeros((num_rows, num_cols))
    dense[keys // num_cols, keys % num_cols] = values
    row_sel = np.asarray(row_sel, dtype=np.int64)
    col_sel = np.asarray(col_sel, dtype=np.int64)

    if mapped:
        source = _mapped_index(keys, values, num_cols)
    else:
        source = contextlib.nullcontext(DeltaIndex(keys, values, num_cols))
    with source as index:
        row_pos, col_pos, rows, cols, vals = index.select(row_sel, col_sel)
        stats = dict(index.stats)

    expected = dense[np.ix_(row_sel, col_sel)]
    assert vals.size == np.count_nonzero(expected)
    # Pairs are unique, so plain fancy += folds every delta.
    assert len(set(zip(row_pos.tolist(), col_pos.tolist()))) == vals.size
    folded = np.zeros_like(expected)
    folded[row_pos, col_pos] += vals
    np.testing.assert_array_equal(folded, expected)
    np.testing.assert_array_equal(rows, row_sel[row_pos])
    np.testing.assert_array_equal(cols, col_sel[col_pos])
    np.testing.assert_array_equal(vals, dense[rows, cols])
    # Honest accounting: only the selected rows' deltas are candidates.
    stored_in_selected_rows = int(np.count_nonzero(dense[row_sel]))
    assert stats["hits"] == vals.size
    assert stats["keys_probed"] <= stored_in_selected_rows


# -- the contiguous-range rule -------------------------------------------------


def _triples(selected) -> list[tuple[int, int, float]]:
    _row_pos, _col_pos, rows, cols, values = selected
    return sorted(zip(rows.tolist(), cols.tolist(), values.tolist()))


@st.composite
def _range_cases(draw):
    num_rows = draw(st.integers(1, 8))
    num_cols = draw(st.integers(1, 8))
    cells = num_rows * num_cols
    keys = draw(
        st.one_of(
            st.just(set()),  # empty index
            st.just(set(range(cells))),  # every cell stored: all hits
            st.sets(st.integers(0, cells - 1), max_size=cells),
        )
    )
    row_sel = draw(st.lists(st.integers(0, num_rows - 1), min_size=1, max_size=6))
    col_lo = draw(st.integers(0, num_cols - 1))
    col_hi = draw(st.integers(col_lo, num_cols - 1))
    shuffled = draw(st.permutations(range(col_lo, col_hi + 1)))
    repeat = draw(st.integers(col_lo, col_hi))
    return num_rows, num_cols, sorted(keys), row_sel, col_lo, col_hi, shuffled, repeat


@settings(max_examples=300, deadline=None)
@given(case=_range_cases())
# Single row x single column, hit and miss; the whole matrix stored.
@example(case=(1, 1, [0], [0], 0, 0, [0], 0))
@example(case=(2, 3, [1], [1], 1, 1, [1], 1))
@example(case=(2, 3, [0, 1, 2, 3, 4, 5], [1, 0, 1], 0, 2, [2, 0, 1], 1))
# The last column of one row next to column 0 of the next: where a stray
# column would alias.
@example(case=(3, 4, [3, 4, 7, 8], [1], 0, 3, [3, 2, 1, 0], 0))
def test_property_range_branch_equals_general_matching(case):
    """A time range through the contiguous-range branch == the same
    columns shuffled or with one repeated (general matching) == a dense
    brute-force mask; a stray column never takes the shortcut and never
    aliases into the neighbouring row."""
    num_rows, num_cols, keys, row_sel, col_lo, col_hi, shuffled, repeat = case
    keys = np.asarray(keys, dtype=np.int64)
    values = 1.0 + np.arange(keys.size, dtype=np.float64)
    dense = np.zeros((num_rows, num_cols))
    dense[keys // num_cols, keys % num_cols] = values
    row_sel = np.asarray(row_sel, dtype=np.int64)
    span = np.arange(col_lo, col_hi + 1)

    def run(col_sel):
        """``select`` on a fresh index, and how often it flattened
        slices: once (the candidates) on the range branch, twice
        (candidates, then their occurrences in ``col_sel``) through the
        general matching, never when the rows hold no candidate."""
        index = DeltaIndex(keys, values, num_cols)
        flatten = delta_index._expand_slices
        with mock.patch.object(delta_index, "_expand_slices", wraps=flatten) as spy:
            selected = index.select(row_sel, np.asarray(col_sel, dtype=np.int64))
        return selected, spy.call_count, index.stats

    in_range, expansions, range_stats = run(span)
    # All of a range's candidates are hits; none at all expands nothing.
    assert range_stats["keys_probed"] == range_stats["hits"]
    assert expansions == (1 if range_stats["hits"] else 0)
    row_pos, col_pos, rows, cols, vals = in_range
    expected = dense[np.ix_(row_sel, span)]
    folded = np.zeros_like(expected)
    folded[row_pos, col_pos] += vals
    np.testing.assert_array_equal(folded, expected)
    assert vals.size == np.count_nonzero(expected)  # one entry per occurrence
    np.testing.assert_array_equal(rows, row_sel[row_pos])
    np.testing.assert_array_equal(cols, span[col_pos])

    general, expansions, general_stats = run(shuffled)
    if vals.size:
        assert expansions == (1 if list(shuffled) == span.tolist() else 2)
    # Same entries in the same (row_sel order, key order within a row)
    # sequence; only the positions into col_sel differ.
    for got, want in zip(general[2:], in_range[2:]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.asarray(shuffled)[general[1]], cols)
    assert general_stats == range_stats  # lookups, keys_probed, hits

    repeated, expansions, repeated_stats = run(span.tolist() + [repeat])
    assert expansions == (2 if vals.size else 0)
    assert set(_triples(repeated)) == set(_triples(in_range))
    assert repeated_stats["keys_probed"] == range_stats["keys_probed"]
    assert repeated_stats["hits"] == range_stats["hits"] + np.count_nonzero(
        dense[row_sel, repeat]
    )

    # A unit-step run that leaves the matrix at either end is not its
    # own clamped span: general matching, and the stray column matches
    # nothing (row r's column -1 is not row r-1's column M-1).
    for stray in (np.arange(-1, col_hi + 1), np.arange(col_lo, num_cols + 1)):
        selected, expansions, stray_stats = run(stray)
        inside = dense[np.ix_(row_sel, np.clip(stray, 0, num_cols - 1))]
        inside[:, (stray < 0) | (stray >= num_cols)] = 0.0
        folded = np.zeros_like(inside)
        folded[selected[0], selected[1]] += selected[4]
        np.testing.assert_array_equal(folded, inside)
        assert expansions == (2 if stray_stats["keys_probed"] else 0)
        assert stray_stats["hits"] == np.count_nonzero(inside)


# -- the sum-only fold -----------------------------------------------------------


@st.composite
def _sum_cases(draw):
    num_rows = draw(st.integers(1, 8))
    num_cols = draw(st.integers(1, 8))
    cells = num_rows * num_cols
    keys = draw(
        st.one_of(st.just(set()), st.sets(st.integers(0, cells - 1), max_size=cells))
    )
    row_sel = draw(st.lists(st.integers(0, num_rows - 1), max_size=8))  # repeats allowed
    col_lo = draw(st.integers(0, num_cols - 1))
    span = list(range(col_lo, draw(st.integers(col_lo, num_cols - 1)) + 1))
    col_sel = draw(
        st.one_of(
            st.just(span),  # a time range
            st.lists(st.integers(0, num_cols - 1), max_size=6).map(sorted),  # scattered
            st.permutations(span),  # unsorted
            st.just(span + span[:1]),  # repeated
            st.lists(st.integers(-3, num_cols + 2), max_size=6),  # stray
        )
    )
    return num_rows, num_cols, sorted(keys), row_sel, col_sel, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=_sum_cases())
@example(case=(3, 4, [], [0, 1], [0, 1, 2], 0))  # empty index
@example(case=(3, 4, [1, 2, 5], [0, 0, 1], [1, 2], 0))  # repeated row, range
@example(case=(3, 4, [3, 4, 7, 8], [1], [-3], 0))  # every column left of the matrix
@example(case=(3, 4, [3, 4, 7, 8], [0, 1], [5, 6], 0))  # ...and right of it
@example(case=(3, 4, [3, 4, 7, 8], [1], [-1, 0, 1, 2, 3], 0))  # a span leaving it
def test_property_select_sum_is_selects_sum(case):
    """``select_sum`` == ``float(select(...)[4].sum())`` to the bit, and
    moves ``stats`` exactly as ``select`` does, for any column shape."""
    num_rows, num_cols, keys, row_sel, col_sel, seed = case
    keys = np.asarray(keys, dtype=np.int64)
    # Values of mixed sign and magnitude: a different summation order
    # would show in the last bits.
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(keys.size) * rng.lognormal(0.0, 4.0, keys.size)
    summed, selected = (DeltaIndex(keys, values, num_cols) for _ in range(2))
    got = summed.select_sum(row_sel, col_sel)
    want = float(selected.select(row_sel, col_sel)[4].sum())
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert summed.stats == selected.stats


def test_select_sum_of_a_time_range_skips_the_positions(enabled_registry):
    """Over a time range with many rows (so the pairwise sum's blocking
    matters) the sum is bit-equal, counted alike in ``stats`` and the
    registry, and builds no row/column positions."""

    def counters():
        names = ("delta.lookups", "delta.keys_probed")
        return [enabled_registry.counter(name).value for name in names]

    rng = np.random.default_rng(31)
    num_rows, num_cols = 600, 50
    keys = np.flatnonzero(rng.random(num_rows * num_cols) < 0.3)
    values = rng.standard_normal(keys.size) * rng.lognormal(0.0, 4.0, keys.size)
    rows = np.sort(rng.choice(num_rows, 400, replace=False))
    rows = np.concatenate([rows, rows[:50]])  # repeated rows count again
    cols = np.arange(7, 40)
    summed, selected = (DeltaIndex(keys, values, num_cols) for _ in range(2))
    start = counters()
    with mock.patch.object(delta_index, "_expand_slices") as positions:
        got = summed.select_sum(rows, cols)
    assert positions.call_count == 0
    middle = counters()
    want = float(selected.select(rows, cols)[4].sum())
    end = counters()
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert summed.stats == selected.stats and summed.stats["hits"] > 1000
    assert [b - a for a, b in zip(start, middle)] == [b - a for a, b in zip(middle, end)]
    assert middle[0] - start[0] == 1


@settings(max_examples=200, deadline=None)
@given(
    num_cols=st.integers(1, 8),
    keys=st.sets(st.integers(0, 63), max_size=40),
    rows=st.lists(st.integers(0, 40), max_size=12),
)
@example(num_cols=4, keys=set(), rows=[0, 3, 3])  # empty index
@example(num_cols=4, keys={0, 5, 6}, rows=[])  # no rows
@example(num_cols=4, keys={0, 5, 6}, rows=[1, 1, 2, 9, 1000])  # past the last key
def test_property_count_in_rows_matches_bincount(num_cols, keys, rows):
    keys = np.asarray(sorted(keys), dtype=np.int64)
    index = DeltaIndex(keys, np.ones(keys.size), num_cols)
    rows = np.asarray(rows, dtype=np.int64)
    per_row = np.bincount(keys // num_cols, minlength=int(rows.max(initial=0)) + 1)
    assert index.count_in_rows(rows) == int(per_row[rows].sum())
    assert index.stats == {"lookups": 0, "keys_probed": 0, "hits": 0}  # no key read
