"""N-mode PCA — the paper's future-work item (c).

'The 3-mode PCA has been extended, in theory, to N-mode analysis.'
(Section 6.1.)  This module provides that extension: a Tucker
decomposition over a tensor of arbitrary order, fitted by HOSVD with
optional HOOI refinement, generalizing :class:`~repro.lab.cube.tucker.Tucker3`
(which remains the paper-faithful 3-mode special case).
"""

from __future__ import annotations

import numpy as np

from repro.core.space import BYTES_PER_VALUE
from repro.core.svd import eigenpairs
from repro.exceptions import ConfigurationError, QueryError, ShapeError


def _unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding: that axis becomes rows, the rest columns."""
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def _mode_multiply(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Mode product: contract the tensor's ``mode`` axis with ``matrix``."""
    moved = np.moveaxis(tensor, mode, 0)
    shape = moved.shape
    result = matrix @ moved.reshape(shape[0], -1)
    return np.moveaxis(result.reshape((matrix.shape[0],) + shape[1:]), 0, mode)


def tucker_space_bytes(shape: tuple[int, ...], ranks: tuple[int, ...]) -> int:
    """Model size: one factor matrix per mode plus the core tensor."""
    if len(shape) != len(ranks):
        raise ConfigurationError(
            f"shape has {len(shape)} modes but ranks has {len(ranks)}"
        )
    factors = sum(dim * rank for dim, rank in zip(shape, ranks))
    core = int(np.prod(ranks))
    return (factors + core) * BYTES_PER_VALUE


class TuckerN:
    """Tucker decomposition of a tensor of any order >= 2.

    Approximates ``x[i1..in] ~ sum over (r1..rn) of
    A1[i1,r1] * ... * An[in,rn] * G[r1..rn]``.

    Args:
        ranks: one rank per tensor mode.
        hooi_iterations: ALS refinement sweeps after HOSVD (0 = HOSVD).
    """

    def __init__(
        self,
        ranks: tuple[int, ...],
        hooi_iterations: int = 5,
    ) -> None:
        if len(ranks) < 2 or any(r < 1 for r in ranks):
            raise ConfigurationError(
                f"ranks must be >= 2 positive ints, got {ranks}"
            )
        if hooi_iterations < 0:
            raise ConfigurationError(
                f"hooi_iterations must be >= 0, got {hooi_iterations}"
            )
        self.ranks = tuple(int(r) for r in ranks)
        self.hooi_iterations = hooi_iterations
        self.factors: list[np.ndarray] | None = None
        self.core: np.ndarray | None = None
        self._shape: tuple[int, ...] | None = None

    @staticmethod
    def _leading_eigenvectors(unfolding: np.ndarray, rank: int) -> np.ndarray:
        return eigenpairs(unfolding @ unfolding.T, min(rank, unfolding.shape[0]))[1]

    def fit(self, tensor: np.ndarray) -> "TuckerN":
        """Fit the model; returns self."""
        arr = np.asarray(tensor, dtype=np.float64)
        if arr.ndim != len(self.ranks):
            raise ShapeError(
                f"tensor has {arr.ndim} modes but {len(self.ranks)} ranks given"
            )
        order = arr.ndim
        self._shape = tuple(arr.shape)
        ranks = tuple(min(r, dim) for r, dim in zip(self.ranks, arr.shape))

        factors = [
            self._leading_eigenvectors(_unfold(arr, mode), ranks[mode])
            for mode in range(order)
        ]
        for _ in range(self.hooi_iterations):
            for mode in range(order):
                partial = arr
                for other in range(order):
                    if other != mode:
                        partial = _mode_multiply(partial, factors[other].T, other)
                factors[mode] = self._leading_eigenvectors(
                    _unfold(partial, mode), ranks[mode]
                )
        core = arr
        for mode in range(order):
            core = _mode_multiply(core, factors[mode].T, mode)
        self.factors = factors
        self.core = core
        return self

    def _require_fitted(self) -> None:
        if self.factors is None or self.core is None:
            raise ConfigurationError("TuckerN model is not fitted; call fit() first")

    def reconstruct(self) -> np.ndarray:
        """Materialize the approximate tensor."""
        self._require_fitted()
        out = self.core
        for mode, factor in enumerate(self.factors):
            out = _mode_multiply(out, factor, mode)
        return out

    def reconstruct_cell(self, *indices: int) -> float:
        """One tensor cell in O(prod(ranks))."""
        self._require_fitted()
        if len(indices) != len(self._shape):
            raise QueryError(
                f"expected {len(self._shape)} indices, got {len(indices)}"
            )
        for axis, (idx, extent) in enumerate(zip(indices, self._shape)):
            if not 0 <= idx < extent:
                raise QueryError(f"index {idx} out of range on axis {axis}")
        value = self.core
        for mode, factor in enumerate(self.factors):
            # Contract one mode at a time with the selected factor row.
            value = np.tensordot(factor[indices[mode]], value, axes=([0], [0]))
        return float(value)

    def space_bytes(self) -> int:
        """Model size under the paper's accounting."""
        self._require_fitted()
        return tucker_space_bytes(
            self._shape, tuple(f.shape[1] for f in self.factors)
        )
