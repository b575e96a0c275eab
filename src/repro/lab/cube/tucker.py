"""3-mode PCA (Tucker decomposition) — the paper's cited alternative for
DataCube compression (Section 6.1).

Approximates a cube element as

    x_ijk ~ sum_{h,l,r} a_ih * b_jl * c_kr * g_hlr

with factor matrices ``A`` (I x r1), ``B`` (J x r2), ``C`` (K x r3) and
a small core tensor ``G``.  Fitting is HOSVD (truncated eigenvectors of
each mode's unfolding) followed by HOOI alternating-least-squares
refinement, both built on the same symmetric eigensolvers as the matrix
path.
"""

from __future__ import annotations

import numpy as np

from repro.core.space import BYTES_PER_VALUE
from repro.exceptions import ConfigurationError, QueryError, ShapeError
from repro.linalg import SymmetricEigensolver, default_eigensolver


def _unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding: that axis becomes rows, the rest columns."""
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def _mode_multiply(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` product: contract the tensor's axis with matrix columns."""
    moved = np.moveaxis(tensor, mode, 0)
    shape = moved.shape
    result = matrix @ moved.reshape(shape[0], -1)
    return np.moveaxis(result.reshape((matrix.shape[0],) + shape[1:]), 0, mode)


def tucker3_space_bytes(
    shape: tuple[int, int, int], ranks: tuple[int, int, int]
) -> int:
    """Model size: three factor matrices plus the core tensor."""
    factors = sum(dim * rank for dim, rank in zip(shape, ranks))
    core = int(np.prod(ranks))
    return (factors + core) * BYTES_PER_VALUE


class Tucker3:
    """Rank-``(r1, r2, r3)`` Tucker model of a 3-d cube.

    Args:
        ranks: per-mode ranks.
        hooi_iterations: ALS refinement sweeps after the HOSVD
            initialization (0 = plain HOSVD).
        eigensolver: solver for the per-mode Gram eigenproblems.
    """

    def __init__(
        self,
        ranks: tuple[int, int, int],
        hooi_iterations: int = 5,
        eigensolver: SymmetricEigensolver | None = None,
    ) -> None:
        if len(ranks) != 3 or any(r < 1 for r in ranks):
            raise ConfigurationError(f"ranks must be three positive ints, got {ranks}")
        if hooi_iterations < 0:
            raise ConfigurationError(
                f"hooi_iterations must be >= 0, got {hooi_iterations}"
            )
        self.ranks = tuple(int(r) for r in ranks)
        self.hooi_iterations = hooi_iterations
        self.eigensolver = eigensolver or default_eigensolver()
        self.factors: list[np.ndarray] | None = None
        self.core: np.ndarray | None = None
        self._shape: tuple[int, int, int] | None = None

    def _leading_eigenvectors(self, unfolding: np.ndarray, rank: int) -> np.ndarray:
        gram = unfolding @ unfolding.T
        gram = (gram + gram.T) / 2.0
        result = self.eigensolver.decompose_top(gram, min(rank, gram.shape[0]))
        return result.vectors

    def fit(self, cube: np.ndarray) -> "Tucker3":
        """Fit the model; returns self."""
        tensor = np.asarray(cube, dtype=np.float64)
        if tensor.ndim != 3:
            raise ShapeError(f"Tucker3 needs a 3-d cube, got ndim {tensor.ndim}")
        self._shape = tuple(tensor.shape)
        ranks = tuple(min(r, dim) for r, dim in zip(self.ranks, tensor.shape))

        # HOSVD initialization: leading eigenvectors of each unfolding.
        factors = [
            self._leading_eigenvectors(_unfold(tensor, mode), ranks[mode])
            for mode in range(3)
        ]
        # HOOI refinement: optimize each factor against the others.
        for _ in range(self.hooi_iterations):
            for mode in range(3):
                partial = tensor
                for other in range(3):
                    if other != mode:
                        partial = _mode_multiply(partial, factors[other].T, other)
                factors[mode] = self._leading_eigenvectors(
                    _unfold(partial, mode), ranks[mode]
                )
        core = tensor
        for mode in range(3):
            core = _mode_multiply(core, factors[mode].T, mode)
        self.factors = factors
        self.core = core
        return self

    def _require_fitted(self) -> None:
        if self.factors is None or self.core is None:
            raise ConfigurationError("Tucker3 model is not fitted; call fit() first")

    def reconstruct(self) -> np.ndarray:
        """Materialize the approximate cube."""
        self._require_fitted()
        out = self.core
        for mode in range(3):
            out = _mode_multiply(out, self.factors[mode], mode)
        return out

    def reconstruct_cell(self, i: int, j: int, k: int) -> float:
        """One cube cell in O(r1 * r2 * r3)."""
        self._require_fitted()
        for axis, (idx, extent) in enumerate(zip((i, j, k), self._shape)):
            if not 0 <= idx < extent:
                raise QueryError(f"index {idx} out of range on axis {axis}")
        a, b, c = self.factors
        return float(np.einsum("h,l,r,hlr->", a[i], b[j], c[k], self.core))

    def space_bytes(self) -> int:
        """Model size under the paper's accounting."""
        self._require_fitted()
        return tucker3_space_bytes(
            self._shape, tuple(f.shape[1] for f in self.factors)
        )
