"""Common interface for the competing compression methods.

The Fig. 6 experiment compares clustering, DCT, SVD and SVDD at equal
space budgets.  Every method implements :class:`CompressionMethod`:
``fit(matrix, budget_fraction)`` returns a :class:`FittedModel` that can
reconstruct cells/rows/the full matrix and report its actual size under
the paper's accounting (``b`` bytes per stored number).

Methods may slightly undershoot the requested budget (cutoffs are
integers); they must never exceed it except where the paper's own
accounting does (documented per method).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core import space
from repro.exceptions import QueryError, ShapeError


class FittedModel(abc.ABC):
    """A compression model fitted to one matrix."""

    def __init__(self, num_rows: int, num_cols: int) -> None:
        self._num_rows = num_rows
        self._num_cols = num_cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self._num_rows, self._num_cols)

    def _check_cell(self, row: int, col: int) -> None:
        if not 0 <= row < self._num_rows:
            raise QueryError(f"row {row} out of range [0, {self._num_rows})")
        if not 0 <= col < self._num_cols:
            raise QueryError(f"col {col} out of range [0, {self._num_cols})")

    @abc.abstractmethod
    def reconstruct(self) -> np.ndarray:
        """Materialize the full approximate matrix."""

    @abc.abstractmethod
    def reconstruct_row(self, row: int) -> np.ndarray:
        """Approximate one row."""

    def reconstruct_cell(self, row: int, col: int) -> float:
        """Approximate one cell (default: via the row)."""
        self._check_cell(row, col)
        return float(self.reconstruct_row(row)[col])

    @abc.abstractmethod
    def space_bytes(self) -> int:
        """Model size under the paper's accounting."""

    def space_fraction(self) -> float:
        """Model size relative to the uncompressed matrix."""
        return self.space_bytes() / space.uncompressed_bytes(
            self._num_rows, self._num_cols
        )


class CompressionMethod(abc.ABC):
    """A compression algorithm parameterized by a space budget."""

    #: Short label used in benchmark tables ('svd', 'delta', 'dct', 'hc', ...).
    name: str = "base"

    @abc.abstractmethod
    def fit(self, matrix: np.ndarray, budget_fraction: float) -> FittedModel:
        """Fit a model to ``matrix`` within ``budget_fraction`` of its size."""

    @staticmethod
    def _validate(matrix: np.ndarray, budget_fraction: float) -> np.ndarray:
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ShapeError(f"matrix must be 2-d non-empty, got shape {arr.shape}")
        if not 0.0 < budget_fraction <= 1.0:
            raise ShapeError(
                f"budget_fraction must be in (0, 1], got {budget_fraction}"
            )
        return arr
