"""Tests for the Householder + implicit-QL eigensolver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ShapeError
from repro.linalg import NumpyEigensolver
from repro.lab.tridiagonal import TridiagonalEigensolver, householder_tridiagonalize


def random_symmetric(seed: int, n: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, n))
    return (a + a.T) / 2.0


class TestHouseholder:
    def test_produces_tridiagonal(self):
        s = random_symmetric(1, 12)
        diag, off, q = householder_tridiagonalize(s)
        t = q.T @ s @ q
        # All entries beyond the first off-diagonals must vanish.
        mask = np.abs(np.subtract.outer(np.arange(12), np.arange(12))) > 1
        assert np.abs(t[mask]).max() < 1e-12

    def test_transform_is_orthogonal(self):
        s = random_symmetric(2, 9)
        _d, _e, q = householder_tridiagonalize(s)
        assert np.allclose(q.T @ q, np.eye(9), atol=1e-12)

    def test_matches_reconstruction(self):
        s = random_symmetric(3, 7)
        diag, off, q = householder_tridiagonalize(s)
        t = np.diag(diag) + np.diag(off[1:], 1) + np.diag(off[1:], -1)
        assert np.allclose(q @ t @ q.T, s, atol=1e-12)

    def test_already_tridiagonal_input(self):
        t = np.diag([3.0, 2.0, 1.0]) + np.diag([0.5, 0.5], 1) + np.diag([0.5, 0.5], -1)
        diag, off, q = householder_tridiagonalize(t)
        rebuilt = np.diag(diag) + np.diag(off[1:], 1) + np.diag(off[1:], -1)
        assert np.allclose(q @ rebuilt @ q.T, t, atol=1e-12)


class TestSolver:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 40])
    def test_matches_lapack(self, n):
        s = random_symmetric(n, n)
        ours = TridiagonalEigensolver().decompose(s)
        ref = NumpyEigensolver().decompose(s)
        assert np.allclose(ours.values, ref.values, atol=1e-10 * max(1, np.abs(s).max()))

    def test_reconstructs(self):
        s = random_symmetric(9, 20)
        r = TridiagonalEigensolver().decompose(s)
        assert np.allclose(r.vectors @ np.diag(r.values) @ r.vectors.T, s, atol=1e-10)

    def test_eigenvectors_orthonormal(self):
        s = random_symmetric(5, 15)
        r = TridiagonalEigensolver().decompose(s)
        assert np.allclose(r.vectors.T @ r.vectors, np.eye(15), atol=1e-10)

    def test_gram_matrix_pipeline(self):
        """The use case: eigendecomposing C = X^t X inside the 2-pass SVD."""
        x = np.random.default_rng(8).standard_normal((100, 25))
        gram = x.T @ x
        r = TridiagonalEigensolver().decompose(gram)
        ref = np.linalg.svd(x, compute_uv=False) ** 2
        assert np.allclose(r.values, ref, atol=1e-8 * ref[0])

    def test_rejects_bad_input(self):
        with pytest.raises(ShapeError):
            TridiagonalEigensolver().decompose(np.ones((2, 3)))
        with pytest.raises(ConfigurationError):
            TridiagonalEigensolver(max_iterations=0)

    def test_usable_in_svd_compressor(self):
        from repro.core import SVDCompressor
        from repro.data import toy_matrix

        model = SVDCompressor(k=5, eigensolver=TridiagonalEigensolver()).fit(
            toy_matrix()
        )
        assert model.eigenvalues == pytest.approx([9.64, 5.29], abs=0.005)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(1, 12))
def test_property_agrees_with_lapack(seed, size):
    s = random_symmetric(seed, size)
    ours = TridiagonalEigensolver().decompose(s)
    ref = NumpyEigensolver().decompose(s)
    scale = max(1.0, float(np.abs(ref.values).max()))
    assert np.abs(ours.values - ref.values).max() < 1e-9 * scale
