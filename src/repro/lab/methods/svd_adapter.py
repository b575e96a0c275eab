"""Adapters exposing the core SVD/SVDD compressors through the common
:class:`~repro.lab.methods.base.CompressionMethod` interface, so the Fig. 6
sweep can treat all four competitors uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import SVDDModel, SVDModel
from repro.core.svd import SVDCompressor
from repro.core.svdd import SVDDCompressor
from repro.linalg import SymmetricEigensolver
from repro.lab.methods.base import CompressionMethod, FittedModel


class _SVDFitted(FittedModel):
    """Wraps an :class:`SVDModel` (or :class:`SVDDModel`) as a FittedModel."""

    def __init__(self, model: SVDModel | SVDDModel) -> None:
        super().__init__(model.num_rows, model.num_cols)
        self.model = model

    def reconstruct(self) -> np.ndarray:
        return self.model.reconstruct()

    def reconstruct_row(self, row: int) -> np.ndarray:
        return self.model.reconstruct_row(row)

    def reconstruct_cell(self, row: int, col: int) -> float:
        return self.model.reconstruct_cell(row, col)

    def space_bytes(self) -> int:
        return self.model.space_bytes()


class SVDMethod(CompressionMethod):
    """Plain truncated SVD under the common interface ('svd' in Fig. 6)."""

    name = "svd"

    def __init__(self, eigensolver: SymmetricEigensolver | None = None) -> None:
        self.eigensolver = eigensolver

    def fit(self, matrix: np.ndarray, budget_fraction: float) -> _SVDFitted:
        arr = self._validate(matrix, budget_fraction)
        compressor = SVDCompressor(
            budget_fraction=budget_fraction, eigensolver=self.eigensolver
        )
        return _SVDFitted(compressor.fit(arr))


class SVDDMethod(CompressionMethod):
    """SVD with Deltas under the common interface ('delta' in Fig. 6)."""

    name = "delta"

    def __init__(self, eigensolver: SymmetricEigensolver | None = None) -> None:
        self.eigensolver = eigensolver

    def fit(self, matrix: np.ndarray, budget_fraction: float) -> _SVDFitted:
        arr = self._validate(matrix, budget_fraction)
        compressor = SVDDCompressor(
            budget_fraction=budget_fraction, eigensolver=self.eigensolver
        )
        return _SVDFitted(compressor.fit(arr))
