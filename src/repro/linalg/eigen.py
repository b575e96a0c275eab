"""Symmetric eigensolvers.

The two-pass SVD algorithm (paper Section 4.1) needs the eigenpairs of
the small ``M x M`` Gram matrix ``C = X^t X``.  Because ``C`` is
symmetric positive semi-definite, any symmetric eigensolver applies.
:class:`NumpyEigensolver` (LAPACK) is the one the product runs; the
from-scratch solvers it is benchmarked against live in
``repro.lab.eigen`` and ``repro.lab.tridiagonal``.  Every solver returns
eigenvalues sorted in decreasing order with matching eigenvector
columns, which is the order the spectral decomposition (paper Eq. 4)
assumes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.linalg.validate import require_symmetric


@dataclass(frozen=True)
class EigenResult:
    """Eigenpairs of a symmetric matrix, sorted by decreasing eigenvalue.

    Attributes:
        values: 1-d array of eigenvalues, ``values[0] >= values[1] >= ...``.
        vectors: matrix whose column ``j`` is the unit eigenvector for
            ``values[j]``.
    """

    values: np.ndarray
    vectors: np.ndarray

    def top(self, k: int) -> "EigenResult":
        """Return only the ``k`` largest eigenpairs."""
        if k < 0:
            raise ConfigurationError(f"k must be non-negative, got {k}")
        k = min(k, self.values.shape[0])
        return EigenResult(self.values[:k].copy(), self.vectors[:, :k].copy())


def _sorted_result(values: np.ndarray, vectors: np.ndarray) -> EigenResult:
    """Sort eigenpairs by decreasing eigenvalue and fix sign convention.

    The sign of each eigenvector is normalized so its largest-magnitude
    component is positive; this makes results comparable across solvers
    and across runs (eigenvectors are only defined up to sign).
    """
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = vectors[:, order]
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        pivot = np.argmax(np.abs(col))
        if col[pivot] < 0:
            vectors[:, j] = -col
    return EigenResult(values, vectors)


class SymmetricEigensolver(abc.ABC):
    """Interface for solvers of the symmetric eigenproblem ``S u = lambda u``."""

    @abc.abstractmethod
    def decompose(self, matrix: np.ndarray) -> EigenResult:
        """Return all eigenpairs of the symmetric ``matrix``."""

    def decompose_top(self, matrix: np.ndarray, k: int) -> EigenResult:
        """Return the ``k`` largest eigenpairs (default: full solve then cut)."""
        return self.decompose(matrix).top(k)


class NumpyEigensolver(SymmetricEigensolver):
    """LAPACK-backed solver via ``numpy.linalg.eigh``.

    Used as the fast production path and as the reference the
    from-scratch solvers are validated against.
    """

    def decompose(self, matrix: np.ndarray) -> EigenResult:
        sym = require_symmetric(matrix)
        values, vectors = np.linalg.eigh(sym)
        return _sorted_result(values, vectors)


def top_eigenvalues(matrix: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` largest eigenvalues of a symmetric PSD ``matrix``, decreasing.

    Values only — LAPACK stops after the tridiagonal reduction and never
    forms eigenvectors, which is all a spectrum-energy sum (the append's
    drift estimate) needs.  Round-off negatives are clipped to 0.
    """
    values = np.linalg.eigvalsh(require_symmetric(matrix))
    return np.maximum(values[::-1][: max(k, 0)], 0.0)


def default_eigensolver() -> SymmetricEigensolver:
    """The solver used when callers don't specify one (LAPACK-backed)."""
    return NumpyEigensolver()
