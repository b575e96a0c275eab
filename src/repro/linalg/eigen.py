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


#: Krylov blocks tried before :func:`top_eigenvalues` gives up on a start.
_MAX_BLOCKS = 8
#: Estimated error of the top-``k`` sum, relative to it, that certifies.
_RITZ_TOL = 1e-14
#: A direction of a new block counts as already inside the basis below
#: this fraction of the block's norm.
_RANK_TOL = 1e-10


def top_eigenvalues(
    matrix: np.ndarray, k: int, start: np.ndarray | None = None
) -> np.ndarray:
    """The ``k`` largest eigenvalues of a symmetric PSD ``matrix``, decreasing.

    Values only, which is all a spectrum-energy sum (the append's drift
    estimate) needs.  Round-off negatives are clipped to 0.

    Without ``start`` this is LAPACK's dense solve (``eigvalsh``: the
    tridiagonal reduction, no eigenvectors), ``O(n^3)``.  With
    ``start`` — an ``(n, p)`` block whose columns roughly span the top
    eigenvectors — it is a block-Krylov Rayleigh–Ritz iteration in
    ``O(n^2 p)`` per block: the basis grows by ``matrix`` times its last
    block, fully re-orthogonalised, until the Ritz residuals
    ``‖G y − θ y‖`` of the top ``k`` certify the sum to 1e-14 of itself.
    Ritz values are lower bounds, so the sum is never overstated.  A
    Krylov space only ever sees what its start block is not orthogonal
    to: **the caller's block must cover every direction that could carry
    a top eigenvalue** (a few Gaussian columns cover the unforeseen).  A
    start that does not certify within a few blocks, or whose basis
    would reach ``n``, gets the dense answer.
    """
    return _top_eigenvalues(matrix, k, start)[0]


def _top_eigenvalues(
    matrix: np.ndarray, k: int, start: np.ndarray | None
) -> tuple[np.ndarray, dict]:
    """:func:`top_eigenvalues` and how it got there: ``blocks`` tried,
    final ``basis`` width, and whether the iteration ``certified`` (False:
    the values are the dense solve's)."""
    sym = require_symmetric(matrix)
    k = min(max(k, 0), sym.shape[0])
    values, blocks, basis = None, 0, 0
    if start is not None and k > 0:
        values, blocks, basis = _ritz_top(sym, k, np.asarray(start, dtype=np.float64))
    how = {"blocks": blocks, "basis": basis, "certified": values is not None}
    if values is None:
        values = np.linalg.eigvalsh(sym)[::-1][:k]
    return np.maximum(values, 0.0), how


def _orthonormal_outside(basis: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning what ``block`` adds to ``basis``."""
    scale = np.linalg.norm(block)
    block = block - basis @ (basis.T @ block)
    left, singular, _ = np.linalg.svd(block, full_matrices=False)
    block = left[:, singular > _RANK_TOL * scale]
    # Scaling a direction of relative size 1e-10 up to a unit vector
    # scales up what the first projection left behind; project again.
    return np.linalg.qr(block - basis @ (basis.T @ block))[0]


def _ritz_top(
    sym: np.ndarray, k: int, start: np.ndarray
) -> tuple[np.ndarray | None, int, int]:
    """``(values, blocks, basis width)``: the top-``k`` Ritz values of
    ``sym`` over the block-Krylov space of ``start`` — None when they
    could not be certified."""
    size = sym.shape[0]
    norms = np.linalg.norm(start, axis=0)
    block = start[:, norms > 0.0] / norms[norms > 0.0]
    basis = image = np.empty((size, 0))  # Q and G Q
    small = np.empty((0, 0))  # Q^t G Q
    for blocks in range(1, _MAX_BLOCKS + 1):
        block = _orthonormal_outside(basis, block)
        basis = np.hstack([basis, block])
        if block.shape[1] == 0 or basis.shape[1] >= size:
            break  # nothing left to add, or no cheaper than the dense solve
        block = sym @ block
        image = np.hstack([image, block])
        fresh = basis.T @ block
        small = np.block([[small, fresh[: small.shape[0]]], [fresh.T]])
        if blocks == 1 or basis.shape[1] <= k:
            # Until the matrix has multiplied every start column once, a
            # column's small share of a large eigenvalue stays invisible.
            continue
        theta, vectors = np.linalg.eigh(small)
        theta, vectors = theta[::-1], vectors[:, ::-1]
        residual = np.linalg.norm(image @ vectors - (basis @ vectors) * theta, axis=0)
        # Some eigenvalue lies within its residual of every Ritz value,
        # so the top k are the top k only once no other pair reaches
        # them; across that gap a Ritz value's error is quadratic in
        # its residual instead of bounded by it.
        gap = theta[k - 1] - (theta[k:] + residual[k:]).max()
        error = np.linalg.norm(residual[:k])
        if error < gap:
            error *= error / gap
        if gap > 0.0 and error <= _RITZ_TOL * theta[:k].sum():
            return theta[:k], blocks, basis.shape[1]
    return None, blocks, basis.shape[1]


def default_eigensolver() -> SymmetricEigensolver:
    """The solver used when callers don't specify one (LAPACK-backed)."""
    return NumpyEigensolver()
