"""Piecewise Aggregate Approximation (PAA).

A time-series representation from the same era's literature: each row
is divided into ``k`` equal-width segments and each segment is replaced
by its mean.  Reconstruction is a step function.  Space is ``N * k * b``
— identical accounting to the per-row spectral methods, making PAA a
natural extra competitor for the Fig. 6 sweep: it handles level shifts
better than low-frequency DCT but, like all row-local methods, cannot
share structure *across* customers the way SVD does.
"""

from __future__ import annotations

import numpy as np

from repro.core.space import BYTES_PER_VALUE
from repro.lab.methods.base import CompressionMethod, FittedModel


class PAAModel(FittedModel):
    """Segment means per row plus the segment layout."""

    def __init__(self, means: np.ndarray, boundaries: np.ndarray, num_cols: int) -> None:
        super().__init__(means.shape[0], num_cols)
        self._means = means
        self._boundaries = boundaries  # segment start offsets, len k+1

    @property
    def segments_per_row(self) -> int:
        return int(self._means.shape[1])

    def reconstruct_row(self, row: int) -> np.ndarray:
        self._check_cell(row, 0)
        out = np.empty(self._num_cols)
        for seg in range(self.segments_per_row):
            start, stop = self._boundaries[seg], self._boundaries[seg + 1]
            out[start:stop] = self._means[row, seg]
        return out

    def reconstruct_cell(self, row: int, col: int) -> float:
        self._check_cell(row, col)
        seg = int(np.searchsorted(self._boundaries, col, side="right") - 1)
        return float(self._means[row, seg])

    def reconstruct(self) -> np.ndarray:
        widths = np.diff(self._boundaries)
        return np.repeat(self._means, widths, axis=1)

    def space_bytes(self) -> int:
        return self._means.size * BYTES_PER_VALUE


class PAAMethod(CompressionMethod):
    """Equal-width segment-mean compression; ``k = floor(s * M)`` segments."""

    name = "paa"

    def fit(self, matrix: np.ndarray, budget_fraction: float) -> PAAModel:
        arr = self._validate(matrix, budget_fraction)
        num_rows, num_cols = arr.shape
        k = min(max(1, int(budget_fraction * num_cols)), num_cols)
        # Spread any remainder across the leading segments so widths
        # differ by at most one column.
        boundaries = np.linspace(0, num_cols, k + 1).round().astype(np.int64)
        means = np.empty((num_rows, k))
        for seg in range(k):
            start, stop = boundaries[seg], boundaries[seg + 1]
            means[:, seg] = arr[:, start:stop].mean(axis=1)
        return PAAModel(means, boundaries, num_cols)
