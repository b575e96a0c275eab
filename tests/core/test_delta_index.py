"""Tests for the row-indexed outlier index."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.delta_index import DeltaIndex
from repro.exceptions import ConfigurationError
from repro.storage.delta_file import DeltaFile, DeltaTable

NUM_COLS = 10


def _index(keys, values, num_cols, num_rows=None) -> DeltaIndex:
    """The index of the cells ``keys`` name (``row * num_cols + col``, in
    any order), in a matrix of ``num_rows`` rows (default: up to the last
    row holding one)."""
    keys = np.asarray(keys, dtype=np.int64)
    if num_rows is None:
        num_rows = int(keys.max()) // num_cols + 1 if keys.size else 1
    table = DeltaTable.from_cells(keys // num_cols, keys % num_cols, values, num_rows)
    return DeltaIndex(table, num_cols)


@pytest.fixture()
def index() -> DeltaIndex:
    # Cells (1,2)=5.0, (3,0)=-2.0, (3,7)=1.5, (8,9)=0.25 on a 10 x 10 matrix.
    keys = [12, 30, 37, 89]
    values = [5.0, -2.0, 1.5, 0.25]
    return _index(keys, values, NUM_COLS, 10)


class TestConstruction:
    def test_sorts_unsorted_input(self):
        index = _index([30, 12, 89, 37], [-2.0, 5.0, 0.25, 1.5], NUM_COLS)
        assert list(index.rows) == [1, 3, 3, 8]
        assert list(index.cols) == [2, 0, 7, 9]
        assert list(index.values) == [5.0, -2.0, 1.5, 0.25]

    def test_adopts_sorted_input_and_sorts_shuffled_input(self):
        rows = np.array([1, 3, 3, 8])
        cols = np.array([2, 0, 7, 9], dtype=np.uint16)
        values = np.array([5.0, -2.0, 1.5, 0.25])
        table = DeltaTable.from_cells(rows, cols, values, 10)
        np.testing.assert_array_equal(table.row_start, [0, 0, 1, 1, 3, 3, 3, 3, 3, 4, 4])
        adopted = DeltaIndex(table, NUM_COLS)
        assert np.shares_memory(adopted.cols, cols)
        assert np.shares_memory(adopted.values, values)
        assert np.shares_memory(adopted.row_start, table.row_start)
        order = np.array([2, 0, 3, 1])
        shuffled = DeltaTable.from_cells(rows[order], cols[order], values[order], 10)
        for got, want in zip(shuffled, table):
            np.testing.assert_array_equal(got, want)

    def test_misaligned_arrays_rejected(self):
        table = DeltaTable(np.array([0, 2]), np.array([1, 2], dtype=np.uint16), np.ones(1))
        with pytest.raises(ConfigurationError):
            DeltaIndex(table, NUM_COLS)

    def test_row_col_decomposition(self, index):
        assert list(index.rows) == [1, 3, 3, 8]
        assert list(index.cols) == [2, 0, 7, 9]


class TestScalarAccess:
    def test_get_present_and_absent(self, index):
        assert index.get(1, 2) == 5.0
        assert index.get(3, 7) == 1.5
        assert index.get(1, 3) == 0.0
        assert index.get(1, 3, default=-1.0) == -1.0
        # An empty row, and rows outside the matrix, hold nothing.
        for row in (0, 9, 10, -1):
            assert index.get(row, 2, default=-1.0) == -1.0
        assert index.stats == {"lookups": 8, "keys_probed": 8, "hits": 2}


class TestVectorizedAccess:
    def test_for_row(self, index):
        cols, values = index.for_row(3)
        assert list(cols) == [0, 7]
        assert list(values) == [-2.0, 1.5]
        cols, values = index.for_row(2)
        assert cols.size == 0 and values.size == 0
        for row in (-1, 10, 11):
            assert index.for_row(row)[0].size == 0


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


def _file_index(keys, values, num_rows, num_cols):
    """The index the way a persistent store builds it: adopted from the
    arrays :meth:`DeltaFile.read_arrays` validated and copied out."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "deltas.bin"
        keys = np.asarray(keys, dtype=np.int64)
        table = DeltaTable.from_cells(keys // num_cols, keys % num_cols, values, num_rows)
        DeltaFile.write(path, table, (num_rows, num_cols))
        return DeltaIndex(DeltaFile.read_arrays(path, shape=(num_rows, num_cols)), num_cols)


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
    num_rows, num_cols, keys, row_sel, col_sel, from_file = case
    keys = np.asarray(keys, dtype=np.int64)
    values = 1.0 + np.arange(keys.size, dtype=np.float64)  # distinct, non-zero
    dense = np.zeros((num_rows, num_cols))
    dense[keys // num_cols, keys % num_cols] = values
    row_sel = np.asarray(row_sel, dtype=np.int64)
    col_sel = np.asarray(col_sel, dtype=np.int64)

    if from_file:
        index = _file_index(keys, values, num_rows, num_cols)
    else:
        index = _index(keys, values, num_cols, num_rows)
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
        """``select`` on a fresh index, and its ``stats``."""
        index = _index(keys, values, num_cols, num_rows)
        selected = index.select(row_sel, np.asarray(col_sel, dtype=np.int64))
        return selected, index.stats

    def in_span(lo, hi):
        """The selected rows' deltas in columns lo..hi (a repeated row
        counts again): what a probe with that span counts."""
        return int(np.count_nonzero(dense[row_sel][:, max(lo, 0) : hi + 1]))

    in_range, range_stats = run(span)
    # All of a range's candidates are hits, and nothing else is probed.
    assert range_stats == {
        "lookups": 1,
        "keys_probed": in_span(col_lo, col_hi),
        "hits": in_span(col_lo, col_hi),
    }
    row_pos, col_pos, rows, cols, vals = in_range
    expected = dense[np.ix_(row_sel, span)]
    folded = np.zeros_like(expected)
    folded[row_pos, col_pos] += vals
    np.testing.assert_array_equal(folded, expected)
    assert vals.size == np.count_nonzero(expected)  # one entry per occurrence
    np.testing.assert_array_equal(rows, row_sel[row_pos])
    np.testing.assert_array_equal(cols, span[col_pos])

    general, general_stats = run(shuffled)
    # Same entries in the same (row_sel order, column order within a row)
    # sequence; only the positions into col_sel differ.
    for got, want in zip(general[2:], in_range[2:]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.asarray(shuffled)[general[1]], cols)
    assert general_stats == range_stats  # lookups, keys_probed, hits

    repeated, repeated_stats = run(span.tolist() + [repeat])
    assert set(_triples(repeated)) == set(_triples(in_range))
    assert repeated_stats["keys_probed"] == range_stats["keys_probed"]
    assert repeated_stats["hits"] == range_stats["hits"] + np.count_nonzero(
        dense[row_sel, repeat]
    )

    # A unit-step run that leaves the matrix at either end is not its
    # own clamped span: general matching, and the stray column matches
    # nothing (row r's column -1 is not row r-1's column M-1).
    for stray in (np.arange(-1, col_hi + 1), np.arange(col_lo, num_cols + 1)):
        selected, stray_stats = run(stray)
        inside = dense[np.ix_(row_sel, np.clip(stray, 0, num_cols - 1))]
        inside[:, (stray < 0) | (stray >= num_cols)] = 0.0
        folded = np.zeros_like(inside)
        folded[selected[0], selected[1]] += selected[4]
        np.testing.assert_array_equal(folded, inside)
        assert stray_stats["keys_probed"] == in_span(stray[0], stray[-1])
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
    summed, selected = (_index(keys, values, num_cols, num_rows) for _ in range(2))
    got = summed.select_sum(row_sel, col_sel)
    want = float(selected.select(row_sel, col_sel)[4].sum())
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert summed.stats == selected.stats


def test_select_sum_of_a_time_range_is_bit_equal_and_counted(enabled_registry):
    """Over a time range with many rows (so the pairwise sum's blocking
    matters) the sum is bit-equal to ``select``'s and counted alike in
    ``stats`` and the registry: every in-range delta of every selected
    row, once per occurrence of the row, probed and hit."""

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
    summed, selected = (_index(keys, values, num_cols, num_rows) for _ in range(2))
    start = counters()
    got = summed.select_sum(rows, cols)
    middle = counters()
    want = float(selected.select(rows, cols)[4].sum())
    end = counters()
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert summed.stats == selected.stats
    dense = np.zeros(num_rows * num_cols)
    dense[keys] = 1
    stored = int(dense.reshape(num_rows, num_cols)[rows][:, cols].sum())
    assert stored > 1000
    assert summed.stats == {"lookups": 1, "keys_probed": stored, "hits": stored}
    assert [b - a for a, b in zip(start, middle)] == [b - a for a, b in zip(middle, end)]
    assert middle[0] - start[0] == 1


@settings(max_examples=200, deadline=None)
@given(
    num_cols=st.integers(1, 8),
    keys=st.sets(st.integers(0, 63), max_size=40),
    rows=st.lists(st.integers(-5, 70), max_size=12),
)
@example(num_cols=4, keys=set(), rows=[0, 3, 3])  # empty index
@example(num_cols=4, keys={0, 5, 6}, rows=[])  # no rows
@example(num_cols=4, keys={0, 5, 6}, rows=[1, 1, 2, 9, 1000])  # past the last key
@example(num_cols=10, keys={0, 1, 2, 53}, rows=[-1])  # a negative row holds none
@example(num_cols=10, keys={0, 1, 2, 53}, rows=[-1, 0, 1])  # a run starting left of 0
def test_property_count_in_rows_matches_bincount(num_cols, keys, rows):
    keys = np.asarray(sorted(keys), dtype=np.int64)
    index = _index(keys, np.ones(keys.size), num_cols)
    rows = np.asarray(rows, dtype=np.int64)
    per_row = np.bincount(keys // num_cols, minlength=int(rows.max(initial=0)) + 1)
    inside = rows[rows >= 0]
    assert index.count_in_rows(rows) == int(per_row[inside].sum())
    assert index.stats == {"lookups": 0, "keys_probed": 0, "hits": 0}  # no key read


# -- one oracle for all three reads ------------------------------------------------


def _row_shapes(num_rows: int):
    """Row selections of every shape the row table serves: a run of rows
    (possibly leaving the matrix at either end), scattered ascending,
    repeated, unsorted, and rows outside the matrix."""
    row = st.integers(-3, num_rows + 2)
    run = st.tuples(row, st.integers(0, 5)).map(lambda r: list(range(r[0], r[0] + r[1])))
    return st.one_of(
        run,
        st.sets(st.integers(0, num_rows - 1), max_size=6).map(sorted),
        st.lists(st.integers(0, num_rows - 1), max_size=6).map(sorted),  # repeats
        st.lists(row, max_size=8),  # unsorted, negative, past the end
    )


@st.composite
def _scan_cases(draw):
    num_rows = draw(st.integers(1, 8))
    num_cols = draw(st.integers(1, 8))
    cells = num_rows * num_cols
    keys = draw(
        st.one_of(st.just(set()), st.sets(st.integers(0, cells - 1), max_size=cells))
    )
    row_sel = draw(_row_shapes(num_rows))
    col_lo = draw(st.integers(0, num_cols - 1))
    span = list(range(col_lo, draw(st.integers(col_lo, num_cols - 1)) + 1))
    col_sel = draw(
        st.one_of(
            st.just(span),  # a time range
            st.permutations(span),  # unsorted
            st.just(span + span[:1]),  # repeated
            st.lists(st.integers(-3, num_cols + 2), max_size=6),  # stray
        )
    )
    return num_rows, num_cols, sorted(keys), row_sel, col_sel, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=_scan_cases())
@example(case=(3, 4, [], [0, 1, 2], [0, 1], False))  # empty index, a run of rows
@example(case=(3, 4, [], [5, -1], [0], True))  # empty index read from a file
@example(case=(3, 4, [0, 1, 2, 11], [-2, -1, 0, 1], [0, 1, 2, 3], False))
@example(case=(3, 4, [0, 1, 2, 11], [1, 2, 3, 4], [1, 2, 3], True))
@example(case=(3, 4, [0, 1, 2, 11], [2, 0, 2, -1], [3, -1, 0, 6], False))
def test_property_reads_match_a_dense_scan(case):
    """``select``, ``select_sum`` and ``count_in_rows`` equal a dense
    NumPy scan for any row and column shape, on an index built in memory
    and on one read from a delta file, and count exactly the selected
    rows' deltas inside the (clamped) column span."""
    num_rows, num_cols, keys, row_sel, col_sel, from_file = case
    keys = np.asarray(keys, dtype=np.int64)
    values = 1.0 + np.arange(keys.size, dtype=np.float64)  # exact sums
    # A margin of zeros around the matrix stands for "outside".
    pad = 8
    dense = np.zeros((num_rows + 2 * pad, num_cols + 2 * pad))
    dense[keys // num_cols + pad, keys % num_cols + pad] = values
    row_sel = np.asarray(row_sel, dtype=np.int64)
    col_sel = np.asarray(col_sel, dtype=np.int64)
    block = dense[np.ix_(row_sel + pad, col_sel + pad)]
    # The scan's entries in select's order: row_sel order, then column
    # order, then col_sel order for a repeated column.
    by_column = np.argsort(col_sel, kind="stable")
    want = [
        (i, int(j), v)
        for i in range(row_sel.size)
        for j in by_column
        if (v := block[i, j]) != 0.0
    ]
    want.sort(key=lambda e: (e[0], col_sel[e[1]]))
    probed = 0
    if row_sel.size and col_sel.size:
        lo, hi = max(int(col_sel.min()), 0), min(int(col_sel.max()), num_cols - 1)
        probed = int(np.count_nonzero(dense[row_sel + pad][:, lo + pad : hi + pad + 1]))

    if from_file:
        index = _file_index(keys, values, num_rows, num_cols)
    else:
        index = _index(keys, values, num_cols, num_rows)
    row_pos, col_pos, rows, cols, vals = index.select(row_sel, col_sel)
    assert index.stats == {"lookups": 1, "keys_probed": probed, "hits": len(want)}
    total = index.select_sum(row_sel, col_sel)
    assert index.count_in_rows(row_sel) == np.count_nonzero(dense[row_sel + pad])
    stats = dict(index.stats)

    assert list(zip(row_pos.tolist(), col_pos.tolist(), vals.tolist())) == want
    np.testing.assert_array_equal(rows, row_sel[row_pos])
    np.testing.assert_array_equal(cols, col_sel[col_pos])
    assert total == float(sum(v for _i, _j, v in want))
    assert stats == {"lookups": 2, "keys_probed": 2 * probed, "hits": 2 * len(want)}
