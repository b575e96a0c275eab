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


def _normalize(indices: Iterable[int] | slice | None, extent: int, axis: str) -> np.ndarray:
    """``indices`` as sorted unique int64 indices inside ``[0, extent)``,
    or a :class:`QueryError`: the one check of one axis (named ``axis``)
    of a selection, made where each form of selection can fail."""
    if indices is None or isinstance(indices, slice):
        arr = np.arange(extent, dtype=np.int64)
        if indices is not None:
            arr = arr[indices] if (indices.step or 1) > 0 else arr[indices][::-1].copy()
        # A slice (or a zero-extent matrix) can select nothing.
        if arr.size == 0:
            raise QueryError(f"{axis} selection is empty — it covers no cells")
        return arr
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
        if lo < 0 or hi >= extent:
            raise QueryError(f"selection [{lo}, {hi}] outside [0, {extent})")
        arr = np.arange(start, stop, step, dtype=np.int64)
        return arr if step > 0 else arr[::-1].copy()
    # A list or an array is read as it is; any other iterable is listed.
    items = indices if isinstance(indices, (list, np.ndarray)) else list(indices)
    try:
        # The dtype NumPy infers, not one forced on it: int64 would
        # truncate 1.7 to row 1 and parse "2".  A copy: the selection
        # must not move with the caller's array.
        arr = np.array(items)
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
    # A strictly increasing list (a sorted row set) skips np.unique's sort;
    # counting the increases costs less than ndarray.all's Python wrapper.
    rising = arr[1:] > arr[:-1]
    ordered = arr if np.count_nonzero(rising) == rising.size else np.unique(arr)
    first, last = ordered[0], ordered[-1]
    if first < 0 or last >= extent:
        raise QueryError(f"{axis} selection [{first}, {last}] outside [0, {extent})")
    # NumPy reads a bool among integers as 0 or 1, so only a selection
    # that reaches down to 1 can hold one, and only the items read so.
    if first <= 1 and isinstance(items, list):
        if any(isinstance(items[i], (bool, np.bool_)) for i in np.flatnonzero(arr <= 1)):
            raise QueryError("selection indices must be integers, not bools")
    return ordered


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

        Raises :class:`QueryError` for an empty selection or out-of-range
        indices.  The one check a query's selection gets (the engine
        carries it as ``Ascending``).
        """
        num_rows, num_cols = shape
        return _normalize(self.rows, num_rows, "row"), _normalize(self.cols, num_cols, "column")

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
