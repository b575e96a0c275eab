"""From-scratch symmetric eigensolvers: cyclic Jacobi and deflated
power iteration.

The kind of self-contained numerical kernel a 1997 system would ship,
kept for ``benchmarks/bench_eigensolvers.py`` and as cross-checks of
:class:`~repro.linalg.eigen.NumpyEigensolver`, which is what the
product runs.  Both implement
:class:`~repro.linalg.eigen.SymmetricEigensolver`; the era-faithful
``tred2``/``tqli`` pipeline is :mod:`repro.lab.tridiagonal`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.linalg.eigen import EigenResult, SymmetricEigensolver, _sorted_result
from repro.linalg.validate import require_symmetric


class JacobiEigensolver(SymmetricEigensolver):
    """Cyclic Jacobi rotation eigensolver, implemented from scratch.

    Repeatedly zeroes the largest remaining off-diagonal entries with
    Givens rotations until the off-diagonal Frobenius mass drops below
    ``tol`` relative to the matrix scale.  Quadratically convergent for
    symmetric matrices; entirely self-contained (no LAPACK), matching
    the paper-era practice of shipping 'C' code for the numerics.

    Args:
        tol: relative off-diagonal tolerance at which to stop.
        max_sweeps: safety bound on the number of full cyclic sweeps.
    """

    def __init__(self, tol: float = 1e-12, max_sweeps: int = 100) -> None:
        if tol <= 0:
            raise ConfigurationError(f"tol must be positive, got {tol}")
        if max_sweeps < 1:
            raise ConfigurationError(f"max_sweeps must be >= 1, got {max_sweeps}")
        self.tol = tol
        self.max_sweeps = max_sweeps

    def decompose(self, matrix: np.ndarray) -> EigenResult:
        a = require_symmetric(matrix)
        n = a.shape[0]
        vectors = np.eye(n)
        if n == 1:
            return EigenResult(a.diagonal().copy(), vectors)

        scale = max(1.0, float(np.abs(a).max()))
        threshold = self.tol * scale
        for _sweep in range(self.max_sweeps):
            off = self._offdiagonal_norm(a)
            if off <= threshold:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    self._rotate(a, vectors, p, q)
        else:
            off = self._offdiagonal_norm(a)
            if off > threshold * 1e3:
                raise ConvergenceError(
                    f"Jacobi failed to converge in {self.max_sweeps} sweeps "
                    f"(off-diagonal norm {off:.3e})"
                )
        return _sorted_result(a.diagonal().copy(), vectors)

    @staticmethod
    def _offdiagonal_norm(a: np.ndarray) -> float:
        off = a - np.diag(a.diagonal())
        return float(np.sqrt((off * off).sum()))

    @staticmethod
    def _rotate(a: np.ndarray, vectors: np.ndarray, p: int, q: int) -> None:
        """Apply one Givens rotation zeroing ``a[p, q]`` in place."""
        apq = a[p, q]
        if apq == 0.0:
            return
        app, aqq = a[p, p], a[q, q]
        tau = (aqq - app) / (2.0 * apq)
        # Choose the smaller-magnitude root for numerical stability.
        if tau >= 0:
            t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
        else:
            t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c

        row_p = a[p, :].copy()
        row_q = a[q, :].copy()
        a[p, :] = c * row_p - s * row_q
        a[q, :] = s * row_p + c * row_q
        col_p = a[:, p].copy()
        col_q = a[:, q].copy()
        a[:, p] = c * col_p - s * col_q
        a[:, q] = s * col_p + c * col_q
        a[p, q] = 0.0
        a[q, p] = 0.0

        vec_p = vectors[:, p].copy()
        vec_q = vectors[:, q].copy()
        vectors[:, p] = c * vec_p - s * vec_q
        vectors[:, q] = s * vec_p + c * vec_q


class PowerIterationEigensolver(SymmetricEigensolver):
    """Deflated power iteration for the top eigenpairs of a PSD matrix.

    Only valid for positive semi-definite inputs (which Gram matrices
    always are); each dominant eigenpair is found by power iteration and
    then deflated out.  Useful when ``k << M`` and a full decomposition
    is wasteful.

    Args:
        tol: convergence tolerance on the eigenvector direction.
        max_iterations: per-eigenpair iteration cap.
        seed: seed for the random starting vectors.
    """

    def __init__(
        self,
        tol: float = 1e-12,
        max_iterations: int = 10_000,
        seed: int = 1234,
    ) -> None:
        if tol <= 0:
            raise ConfigurationError(f"tol must be positive, got {tol}")
        if max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        self.tol = tol
        self.max_iterations = max_iterations
        self.seed = seed

    def decompose(self, matrix: np.ndarray) -> EigenResult:
        sym = require_symmetric(matrix)
        return self.decompose_top(sym, sym.shape[0])

    def decompose_top(self, matrix: np.ndarray, k: int) -> EigenResult:
        a = require_symmetric(matrix).copy()
        n = a.shape[0]
        if np.any(np.linalg.eigvalsh(a) < -1e-8 * max(1.0, np.abs(a).max())):
            raise ConfigurationError(
                "PowerIterationEigensolver requires a positive semi-definite input"
            )
        k = min(k, n)
        rng = np.random.default_rng(self.seed)
        values = np.zeros(k)
        vectors = np.zeros((n, k))
        for j in range(k):
            value, vector = self._dominant_pair(a, rng)
            values[j] = value
            vectors[:, j] = vector
            # Deflate: remove the found component from the matrix.
            a -= value * np.outer(vector, vector)
        return _sorted_result(values, vectors)

    def _dominant_pair(
        self, a: np.ndarray, rng: np.random.Generator
    ) -> tuple[float, np.ndarray]:
        n = a.shape[0]
        vector = rng.standard_normal(n)
        vector /= np.linalg.norm(vector)
        value = 0.0
        for _ in range(self.max_iterations):
            nxt = a @ vector
            norm = np.linalg.norm(nxt)
            if norm <= 1e-300:
                # Matrix is (numerically) zero in the remaining subspace.
                return 0.0, vector
            nxt /= norm
            value = float(nxt @ a @ nxt)
            if np.linalg.norm(nxt - vector) < self.tol or np.linalg.norm(
                nxt + vector
            ) < self.tol:
                vector = nxt
                break
            vector = nxt
        pivot = int(np.argmax(np.abs(vector)))
        if vector[pivot] < 0:
            vector = -vector
        return value, vector
