"""Row/column selections for aggregate queries.

A :class:`Selection` names a set of rows and a set of columns; the
query's cell set is their cross product (the paper's 'some rows and
columns of the data matrix', Section 5.2).  A selection holds what it
was given; :meth:`Selection.resolve` normalizes it to sorted unique
index arrays and validates it against a matrix shape, at execution
time.  Indices must be a flat list of integers: anything NumPy would
have to truncate or parse (floats, strings, bools) or flatten (a nested
list, a 2-D array) is a :class:`QueryError`, never an answer about a
neighbouring row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import QueryError


def _normalize(indices: Iterable[int] | slice | None, extent: int | None) -> np.ndarray | None:
    """Sorted unique int64 array, or None for 'all' when extent unknown."""
    if indices is None:
        if extent is None:
            return None
        return np.arange(extent, dtype=np.int64)
    if isinstance(indices, slice):
        if extent is None:
            raise QueryError("slice selections need a known extent")
        arr = np.arange(extent, dtype=np.int64)[indices]
        return arr if (indices.step or 1) > 0 else arr[::-1].copy()
    if isinstance(indices, range):
        # Bounds-check before materializing: a hostile 'rows 0:10**21'
        # (with ANY step — range(0, 10**18, 2) is just as unbounded as
        # the unit-step form) from the serving boundary must fail fast
        # as a QueryError, not allocate an astronomic list (or overflow
        # int64).  Pure int arithmetic throughout — len()/indexing a
        # humongous range would themselves overflow.
        start, stop, step = indices.start, indices.stop, indices.step
        if step > 0:
            size = max(0, (stop - start + step - 1) // step)
            lo, hi = start, start + (size - 1) * step
        else:
            size = max(0, (start - stop - step - 1) // -step)
            lo, hi = start + (size - 1) * step, start
        if size == 0:
            raise QueryError("selection must include at least one index")
        if extent is not None and (lo < 0 or hi >= extent):
            raise QueryError(f"selection [{lo}, {hi}] outside [0, {extent})")
        arr = np.arange(start, stop, step, dtype=np.int64)
        return arr if step > 0 else arr[::-1].copy()
    try:
        # The dtype NumPy infers, not one forced on it: int64 would
        # truncate 1.7 to row 1, parse "2" and read True as row 1.
        arr = np.asarray(list(indices))
    except (OverflowError, ValueError, TypeError) as exc:
        raise QueryError(
            f"selection indices must be machine-size integers: {exc}"
        ) from exc
    if arr.ndim != 1:
        raise QueryError(
            f"selection indices must be a flat list, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise QueryError("selection must include at least one index")
    kind = arr.dtype.kind
    if kind not in "iu" or (kind == "u" and arr.max() > np.iinfo(np.int64).max):
        raise QueryError(
            f"selection indices must be machine-size integers, got {arr.dtype} values"
        )
    arr = arr.astype(np.int64, copy=False)
    # A strictly increasing list (a sorted row set) skips np.unique's sort.
    return arr if (arr[1:] > arr[:-1]).all() else np.unique(arr)


@dataclass(frozen=True)
class Selection:
    """A rectangle of cells: selected rows x selected columns.

    ``rows`` / ``cols`` may be iterables of indices, slices, or None for
    'all rows' / 'all columns'.
    """

    rows: object = None
    cols: object = None

    def resolve(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Concrete sorted index arrays for a matrix of ``shape``.

        Raises :class:`QueryError` for out-of-range indices.  The one
        check a query's selection gets (the engine carries it as ``Ascending``).
        """
        num_rows, num_cols = shape
        rows = _normalize(self.rows, num_rows)
        cols = _normalize(self.cols, num_cols)
        # Slices (and zero-extent matrices) can normalize to nothing;
        # surface that as a QueryError, not an IndexError downstream.
        if rows.size == 0:
            raise QueryError("row selection is empty — it covers no cells")
        if cols.size == 0:
            raise QueryError("column selection is empty — it covers no cells")
        if rows[0] < 0 or rows[-1] >= num_rows:
            raise QueryError(
                f"row selection [{rows[0]}, {rows[-1]}] outside [0, {num_rows})"
            )
        if cols[0] < 0 or cols[-1] >= num_cols:
            raise QueryError(
                f"column selection [{cols[0]}, {cols[-1]}] outside [0, {num_cols})"
            )
        return rows, cols

    def cell_count(self, shape: tuple[int, int]) -> int:
        """Number of cells the selection covers on a matrix of ``shape``."""
        rows, cols = self.resolve(shape)
        return int(rows.size * cols.size)

    @staticmethod
    def random(
        shape: tuple[int, int],
        target_fraction: float,
        rng: np.random.Generator,
    ) -> "Selection":
        """A random selection covering about ``target_fraction`` of cells.

        Mirrors the paper's Fig. 9 workload: 'the number of rows and
        columns selected was tuned so that approximately 10% of the data
        cells would be included'.  Rows and columns each get about
        ``sqrt(target_fraction)`` of their extent so the product lands
        near the target.
        """
        if not 0.0 < target_fraction <= 1.0:
            raise QueryError(
                f"target_fraction must be in (0, 1], got {target_fraction}"
            )
        num_rows, num_cols = shape
        side = float(np.sqrt(target_fraction))
        pick_rows = max(1, int(round(side * num_rows)))
        pick_cols = max(1, int(round(side * num_cols)))
        rows = rng.choice(num_rows, size=min(pick_rows, num_rows), replace=False)
        cols = rng.choice(num_cols, size=min(pick_cols, num_cols), replace=False)
        return Selection(rows=rows.tolist(), cols=cols.tolist())
