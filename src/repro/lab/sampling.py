"""Uniform-sampling baseline for aggregate queries (paper Section 5.2).

The paper notes that estimates of aggregate answers can be obtained by
sampling, that sampling cannot answer individual-cell queries at all,
and that in their initial experiments 'simple uniform sampling
performed poorly compared with SVDD for aggregate queries'.  This
estimator reproduces that baseline at a matched space budget: it
retains a uniform random subset of *rows* (whole customer records, the
natural sampling unit in the paper's warehouse setting) and answers an
aggregate by scaling up the sample's contribution.
"""

from __future__ import annotations

import numpy as np

from repro.core.space import BYTES_PER_VALUE, uncompressed_bytes
from repro.exceptions import BudgetError, QueryError
from repro.query.engine import AggregateQuery, QueryResult
from repro.query.selection import Selection


class UniformSamplingEstimator:
    """Row-sample estimator for aggregate queries at a space budget.

    Args:
        matrix: the data to sample.
        budget_fraction: space budget; a fraction ``s`` admits about
            ``s * N`` sample rows (each row costs ``M * b`` plus its
            stored index).
        seed: PRNG seed for the sample choice.
    """

    def __init__(self, matrix: np.ndarray, budget_fraction: float, seed: int = 7) -> None:
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2:
            raise QueryError("sampling estimator needs a 2-d matrix")
        num_rows, num_cols = arr.shape
        budget = budget_fraction * uncompressed_bytes(num_rows, num_cols)
        per_row = (num_cols + 1) * BYTES_PER_VALUE  # row values + its index
        sample_size = int(budget // per_row)
        if sample_size < 1:
            raise BudgetError(
                f"budget {budget_fraction:.3%} cannot hold even one sample row"
            )
        sample_size = min(sample_size, num_rows)
        rng = np.random.default_rng(seed)
        self._sample_rows = np.sort(rng.choice(num_rows, size=sample_size, replace=False))
        self._sample = arr[self._sample_rows]
        self._num_rows = num_rows
        self._num_cols = num_cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self._num_rows, self._num_cols)

    @property
    def sample_size(self) -> int:
        """Number of retained sample rows."""
        return int(self._sample_rows.shape[0])

    def space_bytes(self) -> int:
        """Sample rows plus their stored row indices."""
        return self.sample_size * (self._num_cols + 1) * BYTES_PER_VALUE

    def space_fraction(self) -> float:
        """Sample size relative to the uncompressed matrix."""
        return self.space_bytes() / uncompressed_bytes(self._num_rows, self._num_cols)

    def aggregate(self, query: AggregateQuery) -> QueryResult:
        """Estimate an aggregate from the row sample.

        The estimator restricts the sample to the query's selected rows
        and columns; sums/counts are scaled by the inverse inclusion
        ratio, means and extrema are taken from the in-sample cells.
        Raises :class:`QueryError` when no sampled row intersects the
        selection (the honest failure mode of sampling).
        """
        row_idx, col_idx = query.selection.resolve(self.shape)
        mask = np.isin(self._sample_rows, row_idx)
        hit_rows = int(mask.sum())
        if hit_rows == 0:
            raise QueryError(
                "no sampled row intersects the query selection; sampling "
                "cannot estimate this query"
            )
        values = self._sample[mask][:, col_idx]
        selected_rows = int(row_idx.size)
        scale = selected_rows / hit_rows
        count = selected_rows * int(col_idx.size)
        function = query.function
        if function == "sum":
            value = float(values.sum()) * scale
        elif function == "avg":
            value = float(values.mean())
        elif function == "count":
            value = float(count)
        elif function == "min":
            value = float(values.min())
        elif function == "max":
            value = float(values.max())
        elif function == "stddev":
            value = float(values.std())
        else:
            raise QueryError(f"unknown aggregate {function!r}")
        return QueryResult(
            value=value, cells_touched=int(values.size), rows_fetched=hit_rows
        )

    def cell(self, row: int, col: int) -> float:
        """Cell queries are unanswerable from a sample (paper Section 5.2)."""
        raise QueryError(
            "sampling cannot provide estimates of individual cell values"
        )
