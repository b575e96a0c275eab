"""Householder tridiagonalization + implicit-shift QL eigensolver.

The paper points readers to Numerical Recipes for SVD code ('The latter
citation also gives C code', Section 3).  The classical dense
symmetric eigensolver from that source is the pair ``tred2`` /``tqli``:
reduce the matrix to tridiagonal form with Householder reflections,
then diagonalize the tridiagonal with implicitly shifted QL rotations.
This module is a from-scratch Python implementation of that pipeline —
O(n^3) like Jacobi per sweep but with a much smaller constant, sitting
between the pure-Python Jacobi solver and LAPACK in speed while
remaining fully self-contained.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.core.svd import sort_eigenpairs
from repro.lab.eigen import EigenResult, SymmetricEigensolver, require_symmetric


def householder_tridiagonalize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix to tridiagonal form.

    Returns ``(diagonal, off_diagonal, q)`` with
    ``q.T @ matrix @ q == tridiag(diagonal, off_diagonal)`` and ``q``
    orthogonal.  ``off_diagonal[0]`` is unused (convention: it pads the
    sub-diagonal to length n).
    """
    a = require_symmetric(matrix).copy()
    n = a.shape[0]
    q = np.eye(n)
    off = np.zeros(n)
    for i in range(n - 1, 1, -1):
        # Zero out row i left of the sub-diagonal with a reflector.
        segment = a[i, :i]
        scale = np.abs(segment).sum()
        if scale == 0.0:
            off[i] = a[i, i - 1]
            continue
        v = segment / scale
        sigma = float(v @ v)
        alpha = np.sqrt(sigma)
        if v[i - 1] > 0:
            alpha = -alpha
        off[i] = scale * alpha
        sigma -= v[i - 1] * alpha
        v[i - 1] -= alpha
        # Apply the reflector H = I - v v^t / sigma from both sides.
        w = a[:i, :i] @ v / sigma
        k = float(v @ w) / (2.0 * sigma)
        w -= k * v
        a[:i, :i] -= np.outer(v, w) + np.outer(w, v)
        # Accumulate the transform.
        qv = q[:, :i] @ v
        q[:, :i] -= np.outer(qv, v) / sigma
    if n > 1:
        off[1] = a[1, 0]
    diag = a.diagonal().copy()
    return diag, off, q


def ql_implicit_shift(
    diagonal: np.ndarray,
    off_diagonal: np.ndarray,
    q: np.ndarray,
    max_iterations: int = 50,
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a symmetric tridiagonal matrix (the ``tqli`` routine).

    Args:
        diagonal: main diagonal (modified in place to eigenvalues).
        off_diagonal: sub-diagonal padded to length n (entry 0 unused).
        q: orthogonal accumulator (columns become eigenvectors).
        max_iterations: per-eigenvalue rotation-sweep cap.
    """
    d = np.asarray(diagonal, dtype=np.float64).copy()
    e = np.asarray(off_diagonal, dtype=np.float64).copy()
    n = d.shape[0]
    vectors = q.copy()
    e = np.roll(e, -1)  # shift so e[i] couples d[i] and d[i+1]
    e[-1] = 0.0
    for l in range(n):
        for iteration in range(max_iterations + 1):
            # Find a negligible off-diagonal to split the problem.
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= np.finfo(float).eps * dd:
                    break
                m += 1
            if m == l:
                break
            if iteration == max_iterations:
                raise ConvergenceError(
                    f"QL iteration failed to converge for eigenvalue {l}"
                )
            # Implicit shift from the 2x2 trailing block.
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = np.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0 else -r))
            s, c = 1.0, 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = np.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                # Rotate the eigenvector columns.
                col_next = vectors[:, i + 1].copy()
                col_i = vectors[:, i].copy()
                vectors[:, i + 1] = s * col_i + c * col_next
                vectors[:, i] = c * col_i - s * col_next
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
                continue
            continue
    return d, vectors


class TridiagonalEigensolver(SymmetricEigensolver):
    """Householder + implicit-QL dense symmetric eigensolver.

    The Numerical Recipes ``tred2``/``tqli`` pipeline the paper's era
    relied on, implemented from scratch.  Orders of magnitude faster
    than cyclic Jacobi in Python while remaining dependency-free;
    validated against LAPACK in the test suite.

    Args:
        max_iterations: QL sweep cap per eigenvalue.
    """

    def __init__(self, max_iterations: int = 50) -> None:
        if max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        self.max_iterations = max_iterations

    def decompose(self, matrix: np.ndarray) -> EigenResult:
        sym = require_symmetric(matrix)
        if sym.shape[0] == 1:
            return EigenResult(sym.diagonal().copy(), np.eye(1))
        diag, off, q = householder_tridiagonalize(sym)
        values, vectors = ql_implicit_shift(
            diag, off, q, max_iterations=self.max_iterations
        )
        return EigenResult(*sort_eigenpairs(values, vectors))
