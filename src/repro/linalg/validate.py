"""Validation helpers for matrices used throughout the library."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError


def require_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a 2-d float64 array, raising :class:`ShapeError` otherwise.

    Accepts anything ``numpy.asarray`` accepts; rejects arrays that are
    not two-dimensional or that contain non-finite values.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ShapeError(f"{name} must be non-empty, got shape={arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains NaN or infinite values")
    return arr


def is_symmetric(a: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ``a`` is square and symmetric to within ``tol``."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return False
    scale = max(1.0, float(np.abs(arr).max()))
    skew = arr - arr.T
    return bool(np.abs(skew, out=skew).max() <= tol * scale)


def require_symmetric(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate and return ``a`` as a symmetric float64 matrix."""
    arr = require_matrix(a, "symmetric matrix")
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"matrix must be square, got shape={arr.shape}")
    if not is_symmetric(arr, tol=tol):
        raise ShapeError("matrix is not symmetric within tolerance")
    # Symmetrize exactly so downstream rotations see a clean input.
    sym = arr + arr.T
    sym /= 2.0
    return sym


def is_column_orthonormal(a: np.ndarray, tol: float = 1e-8) -> bool:
    """True when the columns of ``a`` are mutually orthogonal unit vectors.

    This is the paper's definition of a column-orthonormal matrix:
    ``U^t x U = I`` (Section 3.3).
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        return False
    gram = arr.T @ arr
    return bool(np.abs(gram - np.eye(arr.shape[1])).max() <= tol)
