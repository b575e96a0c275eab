"""Vectorized index over the SVDD outlier-delta set.

The paper stores outlier cells in a hash table keyed by ``row*M + col``
(Section 4.2), which is ideal for the single-cell probe but forces every
range or aggregate query to walk the whole table in Python.  A
:class:`DeltaIndex` is the query-side companion structure: the same
``(key, delta)`` records held as *sorted parallel NumPy arrays*, so

- the deltas of one row occupy a contiguous slice found by bisecting the
  key range ``[row*M, (row+1)*M)`` (``for_row``),
- one derived table, the CSR row offsets (``row_start[r]``: where row
  ``r``'s key run begins), hands over any selected rows' deltas without
  a search: a run of rows ``a..b`` is the one key slice
  ``[row_start[a], row_start[b + 1])``, scattered rows expand their own
  runs, and both are masked by column.  So the deltas inside a row x
  column selection — with their positions *within* it — cost O(|R| + r)
  for |R| rows holding r deltas (``select``), plus O((|S| + M) log |S|)
  to match |S| columns that are not a time range; never the stored
  outlier count.  That is what lets
  :meth:`~repro.core.store.CompressedMatrix.reconstruct_range` and the
  factor-space fast path fold corrections; over a time range the sum
  ``sum``/``avg`` fold (``select_sum``) gathers the values alone, and
- a set of rows' delta count (``count_in_rows``, the planner's price of
  a fold) is two reads of the table for a run of rows, one gather per
  row otherwise; a resolved selection's key runs, once found, are noted
  on it, and the fold walks them without a second lookup.

Keys are unique (one delta per cell), so the ``(row_pos, col_pos)``
pairs ``select`` returns are unique too and fancy-indexed ``+=`` folding
is safe without ``np.add.at``.  The index is immutable; building it
from a delta file's sorted arrays costs one O(n) order check.
"""

from __future__ import annotations

from typing import Iterator

import threading

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.registry import registry as _obs
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
    """Immutable sorted-array view of an outlier-delta set.

    Args:
        keys: cell keys ``row * num_cols + col``.  Strictly increasing
            keys (the canonical delta-file order, which
            :meth:`DeltaFile.read_arrays` validates) are adopted as
            they are after one O(n) comparison; any other order is
            sorted into private copies.
        values: the delta for each key, aligned with ``keys``.
        num_cols: ``M`` of the matrix the keys address.

    A persistent store's index is the one private in-memory copy of its
    delta table (§4.1 pages only ``U``): nothing maps ``deltas.bin``.
    """

    def __init__(self, keys, values, num_cols: int) -> None:
        keys = np.asarray(keys, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if keys.shape != values.shape:
            raise ConfigurationError(
                f"keys and values must align, got {keys.shape} vs {values.shape}"
            )
        if num_cols < 1:
            raise ConfigurationError(f"num_cols must be >= 1, got {num_cols}")
        if not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys, values = keys[order], values[order]
        self._keys = keys
        self._values = values
        self._num_cols = int(num_cols)
        # Derived row/col arrays materialize on first use: cell lookups
        # and row slices never need them, so an open should not allocate
        # 2x its key bytes up front.
        self._rows_cache: np.ndarray | None = None
        self._cols_cache: np.ndarray | None = None
        self._row_start_cache: np.ndarray | None = None
        #: Probe accounting: scalar/batched lookups, keys tested, hits.
        self.stats = {"lookups": 0, "keys_probed": 0, "hits": 0}
        # The key/value arrays are immutable after construction, so
        # concurrent lookups are safe; only the stats dict mutates and
        # its read-modify-write increments go through this lock.
        self._stats_lock = threading.Lock()

    # -- geometry -----------------------------------------------------------

    def __len__(self) -> int:
        return int(self._keys.size)

    @property
    def num_cols(self) -> int:
        return self._num_cols

    @property
    def keys(self) -> np.ndarray:
        """Sorted cell keys (read-only view)."""
        return self._keys

    @property
    def _rows(self) -> np.ndarray:
        if self._rows_cache is None:
            # Benign race: concurrent first calls compute identical
            # arrays and the last assignment wins.
            self._rows_cache = self._keys // self._num_cols
        return self._rows_cache

    @property
    def _cols(self) -> np.ndarray:
        if self._cols_cache is None:
            self._cols_cache = self._keys % self._num_cols
        return self._cols_cache

    @property
    def _row_start(self) -> np.ndarray:
        """Row ``r``'s keys are ``keys[row_start[r]:row_start[r + 1]]``
        up to the last row holding a delta (8 bytes a row, built on
        first use); read with ``mode="clip"``, other rows hold none."""
        if self._row_start_cache is None:
            # Benign race, as for ``_rows``.
            last_row = int(self._keys[-1]) // self._num_cols if self._keys.size else -1
            self._row_start_cache = np.searchsorted(
                self._keys, np.arange(last_row + 2) * self._num_cols
            )
        return self._row_start_cache

    @property
    def rows(self) -> np.ndarray:
        """Row of each stored delta, aligned with :attr:`keys`."""
        return self._rows

    @property
    def cols(self) -> np.ndarray:
        """Column of each stored delta, aligned with :attr:`keys`."""
        return self._cols

    @property
    def values(self) -> np.ndarray:
        """Delta of each key, aligned with :attr:`keys`."""
        return self._values

    def size_bytes(self) -> int:
        """In-memory footprint: keys/values plus any materialized
        derived arrays (lazy row/col caches count only once built)."""
        caches = (self._rows_cache, self._cols_cache, self._row_start_cache)
        return int(self._keys.nbytes + self._values.nbytes) + sum(
            int(cache.nbytes) for cache in caches if cache is not None
        )

    # -- hash-table-compatible scalar access --------------------------------

    def get(self, key: int, default: float = 0.0) -> float:
        """Value for one cell key, or ``default`` when not stored: one
        bisection, counted in one locked block."""
        keys = self._keys
        pos = int(keys.searchsorted(key))
        hit = pos < keys.size and keys[pos] == key
        stats = self.stats
        with self._stats_lock:
            stats["lookups"] += 1
            stats["keys_probed"] += 1
            if hit:
                stats["hits"] += 1
        return float(self._values[pos]) if hit else default

    def __contains__(self, key: int) -> bool:
        pos = int(self._keys.searchsorted(key))
        return pos < self._keys.size and self._keys[pos] == key

    def items(self) -> Iterator[tuple[int, float]]:
        """Iterate ``(key, delta)`` in key order."""
        for key, value in zip(self._keys, self._values):
            yield int(key), float(value)

    # -- vectorized access ----------------------------------------------------

    def for_row(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, deltas)`` stored for one row — a contiguous key slice."""
        lo = np.searchsorted(self._keys, row * self._num_cols)
        hi = np.searchsorted(self._keys, (row + 1) * self._num_cols)
        # Derive columns from the key slice directly (tiny) rather than
        # touching the full lazy column cache.
        return self._keys[lo:hi] % self._num_cols, self._values[lo:hi]

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
        unique.  Entries follow ``row_sel`` order, key order within a
        row.

        Only the selected rows' key runs are examined:
        ``stats["keys_probed"]`` grows by the candidate keys (the
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
        """Where the keys of the rows ``row_sel`` (the run ``run`` when
        not None) sit, in ``row_sel`` order: one slice for a run ``a..b``
        (or no rows), else ``(starts, counts)``, one key run per row."""
        table = self._row_start
        if run is None and row_sel.size:
            starts = table.take(row_sel, mode="clip")
            return starts, table.take(row_sel + 1, mode="clip") - starts
        first, last = run or (0, -1)
        lo, hi = table.take([first, last + 1], mode="clip").tolist()
        return slice(lo, hi)

    def _in_span(self, row_sel, runs, col_lo: int, col_hi: int, owners: bool):
        """``(row_pos, col_pos, values)`` of the deltas in columns
        ``col_lo..col_hi`` of the rows ``row_sel``, whose keys sit at
        ``runs`` (:meth:`_key_runs`), in ``row_sel`` order: the entry of
        ``row_sel`` and offset into the span of each (None unless
        ``owners``)."""
        if isinstance(runs, slice):
            cols = self._cols[runs]
            inside = (cols >= col_lo) & (cols <= col_hi)
            values = self._values[runs][inside]
            row_pos = self._rows[runs][inside] - row_sel[0] if owners else None
        else:
            where = _slice_positions(*runs)
            cols = self._cols.take(where)
            inside = (cols >= col_lo) & (cols <= col_hi)
            values = self._values.take(where[inside])
            row_pos = np.arange(row_sel.size).repeat(runs[1])[inside] if owners else None
        return row_pos, cols[inside] - col_lo if owners else None, values

    def _count(self, probed: int, hits: int) -> None:
        """One range probe: ``probed`` candidate keys, ``hits`` returned."""
        with self._stats_lock:
            self.stats["lookups"] += 1
            self.stats["keys_probed"] += probed
            self.stats["hits"] += hits
        if _obs.enabled:
            _LOOKUPS.inc()
            _KEYS_PROBED.inc(probed)
