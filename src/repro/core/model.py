"""In-memory model objects for the SVD and SVDD compressed representations.

A :class:`SVDModel` holds the truncated factors ``U`` (N x k), the
eigenvalues ``Lambda`` (k,) and ``V`` (M x k) of the paper's Eq. 8, and
reconstructs cells with Eq. 12 in O(k).  A :class:`SVDDModel` wraps an
SVD model with the outlier delta table (Section 4.2), held as the same
row-indexed :class:`~repro.core.delta_index.DeltaIndex` the persistent store
answers from: reconstruction first computes the SVD estimate, then
corrects it exactly if the cell is a recorded outlier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import space
from repro.core.delta_index import DeltaIndex
from repro.exceptions import ConfigurationError, QueryError, ShapeError
from repro.storage.matrix_store import Ascending


def as_index_array(indices) -> np.ndarray:
    """A row or column selection as an int64 array.

    Arrays, ranges and sequences convert directly; only a generic
    iterable (generator, set) is drained into a list first.
    """
    if not isinstance(indices, (np.ndarray, Ascending, range, list, tuple)):
        indices = list(indices)
    return np.asarray(indices, dtype=np.int64)


@dataclass
class SVDModel:
    """Truncated SVD of an ``N x M`` matrix: ``X ~ U diag(L) V^t``.

    Attributes:
        u: the N x k row-to-pattern similarity matrix.
        eigenvalues: the k singular values, decreasing.
        v: the M x k column-to-pattern similarity matrix.
    """

    u: np.ndarray
    eigenvalues: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.u.ndim != 2 or self.v.ndim != 2 or self.eigenvalues.ndim != 1:
            raise ShapeError("U and V must be 2-d, eigenvalues 1-d")
        k = self.eigenvalues.shape[0]
        if self.u.shape[1] != k or self.v.shape[1] != k:
            raise ShapeError(
                f"inconsistent cutoff: U has {self.u.shape[1]} cols, "
                f"V has {self.v.shape[1]}, eigenvalues has {k}"
            )
        if np.any(np.diff(self.eigenvalues) > 1e-9 * max(1.0, abs(float(self.eigenvalues[0])) if k else 1.0)):
            raise ShapeError("eigenvalues must be sorted in decreasing order")

    @property
    def num_rows(self) -> int:
        """N — rows of the original matrix."""
        return int(self.u.shape[0])

    @property
    def num_cols(self) -> int:
        """M — columns of the original matrix."""
        return int(self.v.shape[0])

    @property
    def cutoff(self) -> int:
        """k — number of retained principal components."""
        return int(self.eigenvalues.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    def _check_cell(self, row: int, col: int) -> None:
        if not 0 <= row < self.num_rows:
            raise QueryError(f"row {row} out of range [0, {self.num_rows})")
        if not 0 <= col < self.num_cols:
            raise QueryError(f"col {col} out of range [0, {self.num_cols})")

    def reconstruct_cell(self, row: int, col: int) -> float:
        """Eq. 12: ``sum_m lambda_m * u[i,m] * v[j,m]`` — O(k) time."""
        self._check_cell(row, col)
        return float(np.dot(self.u[row] * self.eigenvalues, self.v[col]))

    def reconstruct_row(self, row: int) -> np.ndarray:
        """Reconstruct one full row (one customer's sequence)."""
        if not 0 <= row < self.num_rows:
            raise QueryError(f"row {row} out of range [0, {self.num_rows})")
        return (self.u[row] * self.eigenvalues) @ self.v.T

    def _check_selection(self, row_idx: np.ndarray, col_idx: np.ndarray) -> None:
        if row_idx.size == 0 or col_idx.size == 0:
            raise QueryError("selection must be non-empty")
        if row_idx.min() < 0 or row_idx.max() >= self.num_rows:
            raise QueryError(f"row selection outside [0, {self.num_rows})")
        if col_idx.min() < 0 or col_idx.max() >= self.num_cols:
            raise QueryError(f"col selection outside [0, {self.num_cols})")

    def reconstruct_range(self, rows, cols) -> np.ndarray:
        """Reconstruct the submatrix ``rows x cols`` in one GEMM."""
        row_idx = as_index_array(rows)
        col_idx = as_index_array(cols)
        self._check_selection(row_idx, col_idx)
        return (self.u[row_idx] * self.eigenvalues) @ self.v[col_idx].T

    def reconstruct(self) -> np.ndarray:
        """Materialize the full rank-k approximation (Eq. 8)."""
        return (self.u * self.eigenvalues) @ self.v.T

    def space_bytes(self, bytes_per_value: int = space.BYTES_PER_VALUE) -> int:
        """Model size per the paper's Eq. 9 accounting."""
        return space.svd_space_bytes(
            self.num_rows, self.num_cols, self.cutoff, bytes_per_value
        )

    def space_fraction(self, bytes_per_value: int = space.BYTES_PER_VALUE) -> float:
        """Compressed/uncompressed ratio ``s``."""
        return space.svd_space_fraction(
            self.num_rows, self.num_cols, self.cutoff, bytes_per_value
        )

    def truncate(self, k: int) -> "SVDModel":
        """A new model keeping only the first ``k`` principal components."""
        if not 0 <= k <= self.cutoff:
            raise ConfigurationError(
                f"k must be in [0, {self.cutoff}], got {k}"
            )
        return SVDModel(
            self.u[:, :k].copy(), self.eigenvalues[:k].copy(), self.v[:, :k].copy()
        )

    def project_rows(self, dimensions: int = 2) -> np.ndarray:
        """Coordinates of each row in SVD space (Observation 3.4, Appendix A).

        Row ``i`` maps to the first ``dimensions`` entries of
        ``u[i] * eigenvalues`` — the scatter-plot coordinates of Fig. 11.
        """
        if not 1 <= dimensions <= self.cutoff:
            raise ConfigurationError(
                f"dimensions must be in [1, {self.cutoff}], got {dimensions}"
            )
        return self.u[:, :dimensions] * self.eigenvalues[:dimensions]


@dataclass
class SVDDModel:
    """SVD with Deltas: the paper's proposed method (Section 4.2).

    Attributes:
        svd: the truncated SVD kept after the k_opt decision.
        deltas: the outlier table, cell -> (actual - reconstructed).
        k_max: the pass-1 upper cutoff considered.
        candidate_errors: pass 2's ``[low, high]`` brackets on epsilon_k,
            the post-delta SSE of each candidate k (row 0 holding k=1),
            ``low == high`` where exact (k_opt after pass 3); diagnostics.
    """

    svd: SVDModel
    deltas: DeltaIndex
    k_max: int = 0
    candidate_errors: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_rows(self) -> int:
        return self.svd.num_rows

    @property
    def num_cols(self) -> int:
        return self.svd.num_cols

    @property
    def shape(self) -> tuple[int, int]:
        return self.svd.shape

    @property
    def cutoff(self) -> int:
        """k_opt — the chosen number of principal components."""
        return self.svd.cutoff

    @property
    def num_deltas(self) -> int:
        """Number of outlier cells stored exactly."""
        return len(self.deltas)

    def reconstruct_cell(self, row: int, col: int) -> float:
        """SVD estimate plus exact delta correction for outliers."""
        base = self.svd.reconstruct_cell(row, col)
        return base + self.deltas.get(row, col, 0.0)

    def reconstruct_row(self, row: int) -> np.ndarray:
        """Reconstruct one row, applying any stored delta corrections.

        The row's corrections are its slice of the delta table instead
        of M per-cell probes.
        """
        out = self.svd.reconstruct_row(row)
        delta_cols, delta_values = self.deltas.for_row(row)
        out[delta_cols] += delta_values
        return out

    def reconstruct_range(self, rows, cols) -> np.ndarray:
        """Reconstruct the submatrix ``rows x cols``, deltas folded in."""
        row_idx = as_index_array(rows)
        col_idx = as_index_array(cols)
        out = self.svd.reconstruct_range(row_idx, col_idx)
        index = self.deltas
        if len(index) > 0:
            row_pos, col_pos, _r, _c, values = index.select(row_idx, col_idx)
            out[row_pos, col_pos] += values
        return out

    def reconstruct(self) -> np.ndarray:
        """Materialize the delta-corrected approximation."""
        out = self.svd.reconstruct()
        index = self.deltas
        if len(index) > 0:
            out[index.rows, index.cols] += index.values
        return out

    def space_bytes(self, bytes_per_value: int = space.BYTES_PER_VALUE) -> int:
        """SVD part (Eq. 9) plus the delta records."""
        return space.svdd_space_bytes(
            self.num_rows, self.num_cols, self.cutoff, self.num_deltas, bytes_per_value
        )

    def space_fraction(self, bytes_per_value: int = space.BYTES_PER_VALUE) -> float:
        """Compressed/uncompressed ratio ``s`` including the deltas."""
        return self.space_bytes(bytes_per_value) / space.uncompressed_bytes(
            self.num_rows, self.num_cols, bytes_per_value
        )

    def worst_case_bound(self) -> float:
        """A bound on any cell's reconstruction error — for a fresh
        build only.

        Stored outlier cells reconstruct exactly; every other cell's
        error was, at construction time, no larger than the smallest
        error among the stored outliers (they were chosen as the gamma
        *largest*).  The bound is therefore ``min |delta|`` over the
        table — infinity when no deltas are stored (plain-SVD regime),
        zero when every cell is stored.

        Not after an append: old unstored cells never compete again and
        can exceed the new ``min |delta|`` (4,079 did on phone 1200 x 150
        after three 7-day appends and a 300-row append).

        This is the mechanism behind the paper's Table 3/4 observation
        that SVDD 'bounds the worst error pretty well'.
        """
        if len(self.deltas) == 0:
            return float("inf")
        if len(self.deltas) >= self.num_rows * self.num_cols:
            return 0.0
        return float(np.abs(self.deltas.values).min())

    def outlier_cells(self) -> list[tuple[int, int, float]]:
        """The stored ``(row, col, delta)`` triplets, in row-major order."""
        index = self.deltas
        return list(
            zip(index.rows.tolist(), index.cols.tolist(), index.values.tolist())
        )
