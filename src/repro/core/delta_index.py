"""Vectorized index over the SVDD outlier-delta set.

The paper stores outlier cells in a hash table keyed by ``row*M + col``
(Section 4.2), which is ideal for the single-cell probe but forces every
range or aggregate query to walk the whole table in Python.  A
:class:`DeltaIndex` holds the table in the compressed-sparse-row form
``deltas.bin`` stores (:class:`~repro.storage.delta_file.DeltaTable`),
adopted as read, so

- a cell probe (``get``) is one bisection of its row's columns,
  ``cols[row_start[r]:row_start[r + 1]]``, and a row's deltas are that
  slice (``for_row``),
- any selected rows' deltas come without a search: a run of rows
  ``a..b`` is the one slice ``[row_start[a], row_start[b + 1])``,
  scattered rows expand their own runs, and both are masked by column.
  So the deltas inside a row x column selection — with their positions
  *within* it — cost O(|R| + r) for |R| rows holding r deltas
  (``select``), plus O((|S| + M) log |S|) to match |S| columns that are
  not a time range; never the stored outlier count.  That is what lets
  :meth:`~repro.core.store.CompressedMatrix.reconstruct_range` and the
  factor-space fast path fold corrections; over a time range the sum
  ``sum``/``avg`` fold (``select_sum``) gathers the values alone, and
- a set of rows' delta count (``count_in_rows``, the planner's price of
  a fold) is two reads of the row starts for a run of rows, one gather
  per row otherwise; a resolved selection's runs, once found, are noted
  on it, and the fold walks them without a second lookup.

Cells are unique (one delta per cell), so the ``(row_pos, col_pos)``
pairs ``select`` returns are unique too and fancy-indexed ``+=`` folding
is safe without ``np.add.at``.  The index is immutable.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.registry import registry as _obs
from repro.storage.delta_file import DeltaTable
from repro.storage.matrix_store import Ascending

#: ``delta.lookups`` / ``delta.keys_probed``, bound once.
_LOOKUPS = _obs.bind_counter("delta.lookups")
_KEYS_PROBED = _obs.bind_counter("delta.keys_probed")


def _slice_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Every position of the slices ``[starts[i], starts[i] + counts[i])``, in order."""
    positions = (starts + counts - counts.cumsum()).repeat(counts)
    positions += np.arange(positions.size)
    return positions


def _run_of(sel: np.ndarray) -> tuple[int, int] | None:
    """``(first, last)`` when ``sel`` is exactly ``first, first + 1, ...,
    last`` (a time range, a block of rows), else None."""
    if sel.size:
        first, last = int(sel[0]), int(sel[-1])
        if last - first + 1 == sel.size and (sel[1:] > sel[:-1]).all():
            return first, last
    return None


def _with_run(sel) -> tuple[np.ndarray, tuple[int, int] | None]:
    """``sel`` as an int64 array and its :func:`_run_of`: read off an
    :class:`~repro.storage.matrix_store.Ascending`, checked otherwise."""
    if isinstance(sel, Ascending):
        return sel.idx, sel.run
    sel = np.asarray(sel, dtype=np.int64).ravel()
    return sel, _run_of(sel)


class DeltaIndex:
    """Immutable compressed-sparse-row view of an outlier-delta set.

    Args:
        table: the deltas as :meth:`DeltaFile.read_arrays` returns them
            (or a build makes them): int64 row starts, ``N + 1`` of
            them, and each row's uint16 columns, strictly increasing,
            with their values.  The arrays are adopted, not copied.
        num_cols: ``M`` of the matrix the table covers.

    A persistent store's index is the one private in-memory copy of its
    delta table (§4.1 pages only ``U``): nothing maps ``deltas.bin``.
    """

    def __init__(self, table: DeltaTable, num_cols: int) -> None:
        row_start, cols, values = table
        if cols.shape != values.shape or row_start.ndim != 1 or row_start.size < 1:
            raise ConfigurationError(
                f"row starts, columns and values must align, got "
                f"{row_start.shape}, {cols.shape}, {values.shape}"
            )
        if num_cols < 1:
            raise ConfigurationError(f"num_cols must be >= 1, got {num_cols}")
        self._row_start = np.ascontiguousarray(row_start, dtype=np.int64)
        self._cols = np.ascontiguousarray(cols, dtype=np.uint16)
        self._values = np.ascontiguousarray(values, dtype=np.float64)
        self._num_cols = int(num_cols)
        # The scalar probe reads through memoryviews of the same arrays:
        # plain ints and floats, no NumPy scalar per step.
        self._start_view = memoryview(self._row_start)
        self._col_view = memoryview(self._cols)
        self._value_view = memoryview(self._values)
        #: Probe accounting: scalar/batched lookups, keys tested, hits.
        self.stats = {"lookups": 0, "keys_probed": 0, "hits": 0}
        # The arrays are immutable after construction, so concurrent
        # lookups are safe; only the stats dict mutates and its
        # read-modify-write increments go through this lock.
        self._stats_lock = threading.Lock()

    # -- geometry -----------------------------------------------------------

    def __len__(self) -> int:
        return int(self._cols.size)

    @property
    def num_cols(self) -> int:
        return self._num_cols

    @property
    def row_start(self) -> np.ndarray:
        """Row ``r``'s deltas are ``[row_start[r], row_start[r + 1])``."""
        return self._row_start

    @property
    def rows(self) -> np.ndarray:
        """Row of each stored delta, aligned with :attr:`cols` (built per call)."""
        return np.arange(self._row_start.size - 1).repeat(np.diff(self._row_start))

    @property
    def cols(self) -> np.ndarray:
        """Column of each stored delta, row by row."""
        return self._cols

    @property
    def values(self) -> np.ndarray:
        """Delta of each cell, aligned with :attr:`cols`."""
        return self._values

    def size_bytes(self) -> int:
        """In-memory footprint: row starts, columns and values."""
        return int(self._row_start.nbytes + self._cols.nbytes + self._values.nbytes)

    # -- access ---------------------------------------------------------------

    def get(self, row: int, col: int | None = None, default: float = 0.0) -> float:
        """Value stored for the cell ``(row, col)``, or ``default``: one
        bisection inside the row's run, counted in one locked block.
        Called with ``row`` alone, it reads it as the paper's cell key
        ``row * M + col`` (the benchmark harness's traced probe)."""
        if col is None:
            row, col = divmod(row, self._num_cols)
        starts, cols = self._start_view, self._col_view
        hit = False
        if 0 <= row < len(starts) - 1:
            hi = starts[row + 1]
            pos = bisect_left(cols, col, starts[row], hi)
            hit = pos < hi and cols[pos] == col
        stats = self.stats
        with self._stats_lock:
            stats["lookups"] += 1
            stats["keys_probed"] += 1
            if hit:
                stats["hits"] += 1
        return self._value_view[pos] if hit else default

    def for_row(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, deltas)`` stored for one row: its slice of the table."""
        lo, hi = self._row_start.take([row, row + 1], mode="clip").tolist()
        return self._cols[lo:hi], self._values[lo:hi]

    def count_in_rows(self, row_idx) -> int:
        """Stored deltas in the rows ``row_idx`` (a repeated row counts
        each time, a row outside the matrix none): what folding them can
        touch at most, read off the row table without examining a key —
        the planner's price of a fold."""
        runs = self._rows_and_runs(row_idx)[1]
        return runs.stop - runs.start if isinstance(runs, slice) else int(np.add.reduce(runs[1]))

    def select(
        self, row_sel, col_sel
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Deltas inside the rectangle ``row_sel x col_sel``.

        Returns ``(row_pos, col_pos, rows, cols, values)`` where
        ``row_pos``/``col_pos`` index into the *selection arrays* (which
        may be unsorted) — ready for ``out[row_pos, col_pos] += values``
        folding into a reconstructed block.  A selection entry that
        repeats gets one output entry per occurrence, so every copy of a
        repeated row or column is corrected; the position pairs stay
        unique.  Entries follow ``row_sel`` order, column order within a
        row.

        Only the selected rows' runs are examined:
        ``stats["keys_probed"]`` grows by the candidate cells (the
        selected rows' deltas within the column span), ``stats["hits"]``
        by the deltas returned.  When ``col_sel`` is exactly its span —
        ascending, unit step, inside the matrix, as every time range
        resolves — the candidates *are* the answer and no column is
        matched; scattered, unsorted, repeated or stray columns take
        the general matching below, with the same output.
        """
        row_sel, runs = self._rows_and_runs(row_sel)
        col_sel, run = _with_run(col_sel)
        row_pos = col_pos = np.empty(0, dtype=np.int64)
        values = np.empty(0)
        probed = 0
        if row_sel.size and col_sel.size:
            # The span clamped to the matrix: a stray column matches nothing.
            lo, hi = run or (int(col_sel.min()), int(col_sel.max()))
            col_lo, col_hi = max(lo, 0), min(hi, self._num_cols - 1)
            row_pos, col_pos, values = self._in_span(row_sel, runs, col_lo, col_hi, True)
            probed = int(values.size)
            if probed and run != (col_lo, col_hi):
                # Occurrences of each candidate's column within col_sel:
                # the span's column at offset ``col_pos`` sits at sorted
                # positions [bounds[col_pos], bounds[col_pos + 1]).
                order = np.argsort(col_sel, kind="stable")
                bounds = col_sel[order].searchsorted(np.arange(col_lo, col_hi + 2))
                first = bounds[col_pos]
                counts = bounds[col_pos + 1] - first
                owner = np.arange(counts.size).repeat(counts)
                where = _slice_positions(first, counts)
                row_pos, col_pos, values = row_pos[owner], order[where], values[owner]
        self._count(probed, int(values.size))
        return row_pos, col_pos, row_sel[row_pos], col_sel[col_pos], values

    def select_sum(self, row_sel, col_sel) -> float:
        """``float(self.select(row_sel, col_sel)[4].sum())`` to the bit,
        counted alike.  Over a time range the candidates are the answer:
        their values are gathered in ``select``'s order (hence the same
        sum) and no row or column position is built."""
        span = _with_run(col_sel)[1]
        if span is None or span[0] < 0 or span[1] >= self._num_cols:
            return float(self.select(row_sel, col_sel)[4].sum())
        values = self._in_span(*self._rows_and_runs(row_sel), *span, False)[2]
        self._count(int(values.size), int(values.size))
        return float(np.add.reduce(values))

    def _rows_and_runs(self, row_sel) -> tuple[np.ndarray, object]:
        """``row_sel`` as an int64 array and its :meth:`_key_runs`: an
        :class:`~repro.storage.matrix_store.Ascending`'s are looked up
        once, by whichever of the planner's price and the fold asks
        first, and noted on it for the other."""
        if not isinstance(row_sel, Ascending):
            row_sel, run = _with_run(row_sel)
            return row_sel, self._key_runs(row_sel, run)
        noted = row_sel.key_runs
        if noted is None or noted[0] is not self:
            noted = row_sel.key_runs = (self, self._key_runs(row_sel.idx, row_sel.run))
        return row_sel.idx, noted[1]

    def _key_runs(self, row_sel: np.ndarray, run: tuple[int, int] | None):
        """Where the deltas of the rows ``row_sel`` (the run ``run`` when
        not None) sit, in ``row_sel`` order: one slice for a run ``a..b``
        (or no rows), else ``(starts, counts)``, one run per row."""
        table = self._row_start
        if run is None and row_sel.size:
            starts = table.take(row_sel, mode="clip")
            return starts, table.take(row_sel + 1, mode="clip") - starts
        first, last = run or (0, -1)
        lo, hi = table.take([first, last + 1], mode="clip").tolist()
        return slice(lo, hi)

    def _in_span(self, row_sel, runs, col_lo: int, col_hi: int, owners: bool):
        """``(row_pos, col_pos, values)`` of the deltas in columns
        ``col_lo..col_hi`` of the rows ``row_sel``, which sit at ``runs``
        (:meth:`_key_runs`), in ``row_sel`` order: the entry of
        ``row_sel`` and offset into the span of each (None unless
        ``owners``)."""
        table = self._row_start
        if isinstance(runs, slice):
            cols = self._cols[runs]
            inside = (cols >= col_lo) & (cols <= col_hi)
            values = self._values[runs][inside]
            if owners:
                first = int(row_sel[0])
                ends = table.take(np.arange(first, first + row_sel.size + 1), mode="clip")
                row_pos = np.arange(row_sel.size).repeat(np.diff(ends))[inside]
        else:
            where = _slice_positions(*runs)
            cols = self._cols.take(where)
            inside = (cols >= col_lo) & (cols <= col_hi)
            values = self._values.take(where[inside])
            if owners:
                row_pos = np.arange(row_sel.size).repeat(runs[1])[inside]
        if not owners:
            return None, None, values
        return row_pos, cols[inside] - col_lo, values

    def _count(self, probed: int, hits: int) -> None:
        """One range probe: ``probed`` candidate keys, ``hits`` returned."""
        with self._stats_lock:
            self.stats["lookups"] += 1
            self.stats["keys_probed"] += probed
            self.stats["hits"] += hits
        if _obs.enabled:
            _LOOKUPS.inc()
            _KEYS_PROBED.inc(probed)
