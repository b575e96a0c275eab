"""Vectorized index over the SVDD outlier-delta set.

The paper stores outlier cells in a hash table keyed by ``row*M + col``
(Section 4.2), which is ideal for the single-cell probe but forces every
range or aggregate query to walk the whole table in Python.  A
:class:`DeltaIndex` is the query-side companion structure: the same
``(key, delta)`` records held as *sorted parallel NumPy arrays*, so

- the deltas of one row occupy a contiguous slice found by bisecting the
  key range ``[row*M, (row+1)*M)`` (``for_row``),
- the deltas falling inside an arbitrary row x column selection are
  located — with their positions *within* the selection — entirely in
  vector code (``select``): each selected row's key slice is bisected
  down to the selection's column span and only those candidate keys are
  tested against the column set.  For |R| selected rows, |S| selected
  columns of M, D stored deltas and c candidates (the selected rows'
  deltas between the smallest and largest selected column) that is
  O(|R| log D + (|S| + M) log |S| + c) — the cost follows the
  selection, never the stored outlier count — which is what lets
  :meth:`~repro.core.store.CompressedMatrix.reconstruct_range` and the
  factor-space aggregate fast path fold corrections without walking
  every stored delta.  A column selection that *is* its span (a time
  range) skips the column matching: every candidate is a hit, so the
  cost is O(|R| log D + |S| + c), and their sum (``select_sum``, what
  ``sum``/``avg`` fold) is a gather of their values alone, and
- how many deltas a set of rows holds is a gather out of a lazily built
  table of per-row run lengths (``count_in_rows``), which is what the
  planner prices a fold with.

Keys are unique (one delta per cell), so the ``(row_pos, col_pos)``
pairs ``select`` returns are unique too and fancy-indexed ``+=`` folding
is safe without ``np.add.at``.  The index is immutable; rebuilding it
costs one argsort and is only done at model-open time.
"""

from __future__ import annotations

from typing import Iterator

import threading

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.registry import registry as _obs


def _slice_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Every position of the slices ``[starts[i], starts[i] + counts[i])``, in order."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)


def _expand_slices(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, positions)``: :func:`_slice_positions` and, for each
    position, the index ``i`` of the slice it came from."""
    return np.repeat(np.arange(counts.size), counts), _slice_positions(starts, counts)


class DeltaIndex:
    """Immutable sorted-array view of an outlier-delta set.

    Args:
        keys: cell keys ``row * num_cols + col`` (need not be sorted).
        values: the delta for each key, aligned with ``keys``.
        num_cols: ``M`` of the matrix the keys address.
        assume_sorted: skip the argsort and its copies.  Only pass
            True for arrays already validated strictly increasing (the
            canonical delta-file order, which
            :meth:`DeltaFile.read_arrays` and
            :meth:`DeltaFile.map_arrays` both enforce).  Contiguous
            arrays are adopted as-is; the strided views ``map_arrays``
            hands out over the record body are not — ``.ravel()`` below
            gathers each into one private contiguous array, so a mapped
            open pays one copy of the keys and one of the values per
            process (the mapping itself stays shared and is only read
            at open).
    """

    def __init__(self, keys, values, num_cols: int, assume_sorted: bool = False) -> None:
        keys = np.asarray(keys, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if keys.shape != values.shape:
            raise ConfigurationError(
                f"keys and values must align, got {keys.shape} vs {values.shape}"
            )
        if num_cols < 1:
            raise ConfigurationError(f"num_cols must be >= 1, got {num_cols}")
        if assume_sorted:
            self._keys = keys
            self._values = values
        else:
            order = np.argsort(keys, kind="stable")
            self._keys = np.ascontiguousarray(keys[order])
            self._values = np.ascontiguousarray(values[order])
        self._num_cols = int(num_cols)
        # Derived row/col arrays materialize on first use: cell lookups
        # and row slices never need them, and a mapped index should not
        # allocate 2x its key bytes up front.
        self._rows_cache: np.ndarray | None = None
        self._cols_cache: np.ndarray | None = None
        self._row_counts_cache: np.ndarray | None = None
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
    def _row_counts(self) -> np.ndarray:
        """Length of each row's key run, for every row up to the last
        one holding a delta, then one 0 for all later rows to clip onto
        (8 bytes a row, built on first use)."""
        if self._row_counts_cache is None:
            # Benign race, as for ``_rows``.
            last_row = int(self._keys[-1]) // self._num_cols if self._keys.size else -1
            offsets = np.searchsorted(
                self._keys, np.arange(last_row + 2) * self._num_cols
            )
            self._row_counts_cache = np.append(np.diff(offsets), 0)
        return self._row_counts_cache

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
        total = int(self._keys.nbytes + self._values.nbytes)
        if self._rows_cache is not None:
            total += int(self._rows_cache.nbytes)
        if self._cols_cache is not None:
            total += int(self._cols_cache.nbytes)
        if self._row_counts_cache is not None:
            total += int(self._row_counts_cache.nbytes)
        return total

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
        """Stored deltas in the rows ``row_idx`` (non-negative indices;
        a repeated row counts each time): what folding a selection of
        those rows can touch at most.  No key is examined — one gather
        out of the per-row run lengths — so the planner can price a
        fold by the selection instead of the stored outlier count.
        """
        rows = np.asarray(row_idx, dtype=np.int64)
        # Rows past the last delta-holding row clip onto the trailing 0.
        return int(self._row_counts.take(rows, mode="clip").sum())

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

        Only the selected rows' key slices are examined:
        ``stats["keys_probed"]`` grows by the candidate keys tested (the
        selected rows' deltas within the column span), ``stats["hits"]``
        by the deltas returned.  When ``col_sel`` is exactly its span —
        ascending, unit step, inside the matrix, as every time range
        resolves — the candidates *are* the answer and no column is
        matched; scattered, unsorted, repeated or stray columns take
        the general matching below, with the same output.
        """
        row_sel = np.asarray(row_sel, dtype=np.int64)
        col_sel = np.asarray(col_sel, dtype=np.int64)
        probed = 0
        row_pos = col_pos = picked = np.empty(0, dtype=np.int64)
        if self._keys.size and row_sel.size and col_sel.size:
            # Clamping the span to the matrix keeps a stray column from
            # aliasing into the neighbouring row's keys (and an emptied
            # span from bisecting backwards).
            row_base = row_sel * self._num_cols
            col_lo = max(int(col_sel.min()), 0)
            col_hi = min(int(col_sel.max()), self._num_cols - 1)
            if col_lo <= col_hi:
                starts, counts = self._runs(row_base, col_lo, col_hi)
                probed = int(counts.sum())
        if probed:
            cand_row_pos, cand = _expand_slices(starts, counts)
            # Each candidate's column as an offset into the span.
            offset = self._keys[cand] - (row_base[cand_row_pos] + col_lo)
            if np.array_equal(col_sel, np.arange(col_lo, col_hi + 1)):
                # The selection is its own span (a time range): every
                # candidate is a hit and sits at its offset.
                row_pos, col_pos, picked = cand_row_pos, offset, cand
            else:
                # Occurrences of each candidate's column within col_sel:
                # the span's column at ``offset`` sits at sorted
                # positions [bounds[offset], bounds[offset + 1]).
                order = np.argsort(col_sel, kind="stable")
                bounds = np.searchsorted(
                    col_sel[order], np.arange(col_lo, col_hi + 2)
                )
                first = bounds[offset]
                owner, where = _expand_slices(first, bounds[offset + 1] - first)
                row_pos = cand_row_pos[owner]
                col_pos = order[where]
                picked = cand[owner]
        self._count(probed, int(picked.size))
        return (
            row_pos, col_pos, row_sel[row_pos], col_sel[col_pos], self._values[picked]
        )

    def select_sum(self, row_sel, col_sel) -> float:
        """``float(self.select(row_sel, col_sel)[4].sum())`` to the bit,
        counted alike.  Over a time range the candidates are the answer:
        their values are gathered in ``select``'s order (hence the same
        sum) and no position, row or column array is built."""
        row_sel = np.asarray(row_sel, dtype=np.int64)
        col_sel = np.asarray(col_sel, dtype=np.int64)
        lo, hi = (int(col_sel[0]), int(col_sel[-1])) if col_sel.size else (0, -1)
        span = 0 <= lo <= hi < self._num_cols
        if not (span and np.array_equal(col_sel, np.arange(lo, hi + 1))):
            return float(self.select(row_sel, col_sel)[4].sum())
        starts, counts = self._runs(row_sel * self._num_cols, lo, hi)
        probed = int(counts.sum())
        self._count(probed, probed)
        if not probed:
            return 0.0
        return float(self._values[_slice_positions(starts, counts)].sum())

    def _runs(self, row_base: np.ndarray, col_lo: int, col_hi: int):
        """``(starts, counts)`` of each row's keys (``row_base`` = row *
        num_cols) in the in-matrix columns ``[col_lo, col_hi]``."""
        starts = np.searchsorted(self._keys, row_base + col_lo)
        return starts, np.searchsorted(self._keys, row_base + col_hi + 1) - starts

    def _count(self, probed: int, hits: int) -> None:
        """One range probe: ``probed`` candidate keys, ``hits`` returned."""
        with self._stats_lock:
            self.stats["lookups"] += 1
            self.stats["keys_probed"] += probed
            self.stats["hits"] += hits
        if _obs.enabled:
            _obs.counter("delta.lookups").inc()
            _obs.counter("delta.keys_probed").inc(probed)
