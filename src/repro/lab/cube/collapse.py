"""Collapsing a 3-d DataCube into a matrix for SVD/SVDD compression.

'We can group these as productid x (storeid x weekid) or as
(productid x storeid) x weekid.  Which we prefer is a function of the
number of values in each dimension.  In general, the more square the
matrix, the better the compression ... since the cells in the array are
reconstructed individually, how dimensions are collapsed makes no
difference to the availability of access.' (Section 6.1)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.svdd import SVDDCompressor
from repro.exceptions import ConfigurationError, QueryError, ShapeError


@dataclass(frozen=True)
class CubeCollapse:
    """A choice of which cube modes become matrix rows vs columns.

    Attributes:
        row_modes: cube axes flattened into the matrix's row index.
        col_modes: cube axes flattened into the matrix's column index.
    """

    row_modes: tuple[int, ...]
    col_modes: tuple[int, ...]

    def __post_init__(self) -> None:
        modes = tuple(sorted(self.row_modes + self.col_modes))
        if modes != tuple(range(len(modes))):
            raise ConfigurationError(
                f"row_modes {self.row_modes} + col_modes {self.col_modes} must "
                "partition the cube's axes"
            )
        if not self.row_modes or not self.col_modes:
            raise ConfigurationError("both sides of the collapse need >= 1 mode")

    def matrix_shape(self, cube_shape: tuple[int, ...]) -> tuple[int, int]:
        """Shape of the collapsed matrix."""
        rows = int(np.prod([cube_shape[m] for m in self.row_modes]))
        cols = int(np.prod([cube_shape[m] for m in self.col_modes]))
        return rows, cols

    def flatten(self, cube: np.ndarray) -> np.ndarray:
        """The collapsed matrix view of ``cube``."""
        arr = np.asarray(cube, dtype=np.float64)
        order = self.row_modes + self.col_modes
        return arr.transpose(order).reshape(self.matrix_shape(arr.shape))

    def cell_of(self, cube_shape: tuple[int, ...], indices: tuple[int, ...]) -> tuple[int, int]:
        """Matrix ``(row, col)`` of cube cell ``indices``."""
        if len(indices) != len(cube_shape):
            raise QueryError(
                f"expected {len(cube_shape)} indices, got {len(indices)}"
            )
        for axis, (idx, extent) in enumerate(zip(indices, cube_shape)):
            if not 0 <= idx < extent:
                raise QueryError(f"index {idx} out of range on axis {axis}")
        row = 0
        for mode in self.row_modes:
            row = row * cube_shape[mode] + indices[mode]
        col = 0
        for mode in self.col_modes:
            col = col * cube_shape[mode] + indices[mode]
        return row, col

    @staticmethod
    def most_square(cube_shape: tuple[int, ...]) -> "CubeCollapse":
        """The single-axis/rest split whose matrix is most nearly square.

        Implements the paper's heuristic for 3-d cubes: pick 'the
        largest size for the smaller dimension'.  Considers every
        partition with one side being a single axis.
        """
        ndim = len(cube_shape)
        if ndim < 2:
            raise ShapeError("cube must have >= 2 dimensions")
        best: CubeCollapse | None = None
        best_ratio = np.inf
        for axis in range(ndim):
            others = tuple(m for m in range(ndim) if m != axis)
            for collapse in (
                CubeCollapse((axis,), others),
                CubeCollapse(others, (axis,)),
            ):
                rows, cols = collapse.matrix_shape(cube_shape)
                ratio = max(rows, cols) / min(rows, cols)
                if ratio < best_ratio:
                    best_ratio = ratio
                    best = collapse
        assert best is not None
        return best


class CompressedCube:
    """A DataCube compressed by collapsing to a matrix and running SVDD."""

    def __init__(
        self,
        cube: np.ndarray,
        budget_fraction: float,
        collapse: CubeCollapse | None = None,
    ) -> None:
        arr = np.asarray(cube, dtype=np.float64)
        if arr.ndim < 2:
            raise ShapeError(f"cube must have >= 2 dimensions, got {arr.ndim}")
        self.cube_shape = tuple(arr.shape)
        self.collapse = collapse or CubeCollapse.most_square(self.cube_shape)
        matrix = self.collapse.flatten(arr)
        self.model = SVDDCompressor(budget_fraction=budget_fraction).fit(matrix)

    def cell(self, *indices: int) -> float:
        """Reconstruct one cube cell through the collapsed model."""
        row, col = self.collapse.cell_of(self.cube_shape, indices)
        return self.model.reconstruct_cell(row, col)

    def reconstruct(self) -> np.ndarray:
        """Materialize the approximate cube."""
        matrix = self.model.reconstruct()
        order = self.collapse.row_modes + self.collapse.col_modes
        permuted_shape = [self.cube_shape[m] for m in order]
        inverse = np.argsort(order)
        return matrix.reshape(permuted_shape).transpose(inverse)

    def space_bytes(self) -> int:
        """Model size under the paper's accounting."""
        return self.model.space_bytes()
