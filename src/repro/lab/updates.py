"""Batched off-line updates (paper Section 1, third assumption).

'There are no updates on the data matrix, or they are so rare that they
can be batched and performed off-line.'  This module is that off-line
path: a :class:`BatchUpdater` accumulates cell overwrites and appended
rows against an existing on-disk matrix, then rebuilds — streaming the
old store once, applying the patches, writing the new store, and
refitting the compressor.  The rebuild never materializes the matrix.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from repro.exceptions import ConfigurationError, QueryError
from repro.storage.matrix_store import MatrixStore


class BatchUpdater:
    """Accumulates updates against a base store for one off-line rebuild.

    Args:
        base: the current on-disk matrix.
    """

    def __init__(self, base: MatrixStore) -> None:
        self._base = base
        self._cell_patches: dict[int, dict[int, float]] = {}
        self._appended: list[np.ndarray] = []

    @property
    def pending_cell_updates(self) -> int:
        """Number of individual cell overwrites queued."""
        return sum(len(cols) for cols in self._cell_patches.values())

    @property
    def pending_appends(self) -> int:
        """Number of new rows queued."""
        return len(self._appended)

    def update_cell(self, row: int, col: int, value: float) -> None:
        """Queue an overwrite of one existing cell."""
        rows, cols = self._base.shape
        total_rows = rows + len(self._appended)
        if not 0 <= row < total_rows:
            raise QueryError(f"row {row} out of range [0, {total_rows})")
        if not 0 <= col < cols:
            raise QueryError(f"col {col} out of range [0, {cols})")
        if row >= rows:
            # Patch a not-yet-written appended row directly.
            self._appended[row - rows][col] = float(value)
            return
        self._cell_patches.setdefault(row, {})[col] = float(value)

    def append_row(self, row: np.ndarray) -> int:
        """Queue a new customer row; returns its future row index."""
        arr = np.asarray(row, dtype=np.float64).copy()
        if arr.shape != (self._base.num_cols,):
            raise ConfigurationError(
                f"appended row must have shape ({self._base.num_cols},), "
                f"got {arr.shape}"
            )
        self._appended.append(arr)
        return self._base.num_rows + len(self._appended) - 1

    def _patched_rows(self) -> Iterator[np.ndarray]:
        for index, row in self._base.iter_rows():
            patches = self._cell_patches.get(index)
            if patches:
                row = row.copy()
                for col, value in patches.items():
                    row[col] = value
            yield row
        yield from self._appended

    def rebuild(
        self,
        destination: str | os.PathLike,
        compressor=None,
    ):
        """Write the patched matrix to ``destination`` and optionally refit.

        Returns ``(new_store, model)``; ``model`` is None when no
        compressor is given.  The old store is scanned exactly once.
        """
        new_store = MatrixStore.create_from_rows(
            destination, self._patched_rows(), num_cols=self._base.num_cols
        )
        model = compressor.fit(new_store) if compressor is not None else None
        self._cell_patches.clear()
        self._appended.clear()
        return new_store, model
