"""Column standardization as a composable preprocessing step.

On heterogeneous vectors (the paper's patient-record setting, §2.3),
raw SVD spends its components on whatever columns happen to have the
biggest *units* — cholesterol in mg/dL out-votes HbA1c in percent a
hundred to one.  The classical fix is PCA's: standardize each column to
zero mean and unit variance before decomposing, and undo the transform
on reconstruction.

:class:`StandardizedMethod` wraps any
:class:`~repro.lab.methods.base.CompressionMethod` with that transform.
The per-column means and scales are part of the model and are charged
to the space budget (``2 * M`` numbers), so comparisons stay honest.
"""

from __future__ import annotations

import numpy as np

from repro.core.space import BYTES_PER_VALUE, uncompressed_bytes
from repro.exceptions import BudgetError
from repro.lab.methods.base import CompressionMethod, FittedModel


class StandardizedModel(FittedModel):
    """A fitted inner model operating in standardized column space."""

    def __init__(
        self,
        inner: FittedModel,
        means: np.ndarray,
        scales: np.ndarray,
        num_cols: int,
    ) -> None:
        super().__init__(inner.shape[0], num_cols)
        self._inner = inner
        self._means = means
        self._scales = scales

    @property
    def inner(self) -> FittedModel:
        """The wrapped model (in standardized space)."""
        return self._inner

    def reconstruct_row(self, row: int) -> np.ndarray:
        return self._inner.reconstruct_row(row) * self._scales + self._means

    def reconstruct_cell(self, row: int, col: int) -> float:
        self._check_cell(row, col)
        return float(
            self._inner.reconstruct_cell(row, col) * self._scales[col]
            + self._means[col]
        )

    def reconstruct(self) -> np.ndarray:
        return self._inner.reconstruct() * self._scales + self._means

    def space_bytes(self) -> int:
        # Inner model + the stored means and scales.
        return self._inner.space_bytes() + 2 * self._num_cols * BYTES_PER_VALUE


class StandardizedMethod(CompressionMethod):
    """Wrap any compression method with per-column standardization.

    The column statistics consume ``2*M*b`` bytes of the budget; the
    remainder goes to the inner method.  Column scales of zero
    (constant columns) standardize to zero and reconstruct exactly from
    the stored mean.

    Args:
        inner: the method to run in standardized space.
    """

    def __init__(self, inner: CompressionMethod) -> None:
        self.inner = inner
        self.name = f"std+{inner.name}"

    def fit(self, matrix: np.ndarray, budget_fraction: float) -> StandardizedModel:
        arr = self._validate(matrix, budget_fraction)
        num_rows, num_cols = arr.shape
        stats_bytes = 2 * num_cols * BYTES_PER_VALUE
        total = uncompressed_bytes(num_rows, num_cols)
        inner_fraction = budget_fraction - stats_bytes / total
        if inner_fraction <= 0:
            raise BudgetError(
                f"budget {budget_fraction:.3%} cannot even hold the per-column "
                f"statistics ({stats_bytes / total:.3%})"
            )
        means = arr.mean(axis=0)
        scales = arr.std(axis=0)
        safe_scales = np.where(scales > 0, scales, 1.0)
        standardized = (arr - means) / safe_scales
        inner_model = self.inner.fit(standardized, inner_fraction)
        return StandardizedModel(
            inner_model, means, np.where(scales > 0, scales, 0.0), num_cols
        )
