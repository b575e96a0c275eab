"""Tests for the symmetric eigensolvers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ShapeError
from repro.core.svd import eigenpairs
from repro.lab.eigen import (
    EigenResult,
    JacobiEigensolver,
    NumpyEigensolver,
    PowerIterationEigensolver,
)

SOLVERS = [NumpyEigensolver(), JacobiEigensolver(), PowerIterationEigensolver()]
SOLVER_IDS = ["numpy", "jacobi", "power"]


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
class TestAllSolvers:
    def test_reconstructs_psd_matrix(self, solver, rng):
        mat = random_psd(rng, 10)
        result = solver.decompose(mat)
        approx = result.vectors @ np.diag(result.values) @ result.vectors.T
        assert np.allclose(approx, mat, atol=1e-7)

    def test_eigenvalues_sorted_decreasing(self, solver, rng):
        result = solver.decompose(random_psd(rng, 8))
        assert np.all(np.diff(result.values) <= 1e-9)

    def test_eigenvectors_orthonormal(self, solver, rng):
        result = solver.decompose(random_psd(rng, 9))
        gram = result.vectors.T @ result.vectors
        assert np.allclose(gram, np.eye(9), atol=1e-7)

    def test_eigenpair_equation_holds(self, solver, rng):
        mat = random_psd(rng, 7)
        result = solver.decompose(mat)
        for j in range(7):
            lhs = mat @ result.vectors[:, j]
            rhs = result.values[j] * result.vectors[:, j]
            assert np.allclose(lhs, rhs, atol=1e-6)

    def test_identity_matrix(self, solver):
        result = solver.decompose(np.eye(5))
        assert np.allclose(result.values, 1.0)

    def test_one_by_one(self, solver):
        result = solver.decompose(np.array([[4.0]]))
        assert result.values[0] == pytest.approx(4.0)
        assert abs(result.vectors[0, 0]) == pytest.approx(1.0)

    def test_diagonal_matrix(self, solver):
        result = solver.decompose(np.diag([5.0, 3.0, 1.0]))
        assert np.allclose(result.values, [5.0, 3.0, 1.0], atol=1e-9)

    def test_decompose_top_truncates(self, solver, rng):
        mat = random_psd(rng, 10)
        full = solver.decompose(mat)
        top = solver.decompose_top(mat, 3)
        assert top.values.shape == (3,)
        assert np.allclose(top.values, full.values[:3], atol=1e-6)

    def test_rejects_non_square(self, solver):
        with pytest.raises(ShapeError):
            solver.decompose(np.ones((3, 4)))

    def test_rejects_asymmetric(self, solver):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ShapeError):
            solver.decompose(mat)

    def test_rejects_nan(self, solver):
        mat = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ShapeError):
            solver.decompose(mat)


class TestCrossValidation:
    """The from-scratch solvers must agree with LAPACK."""

    def test_jacobi_matches_numpy_indefinite(self, rng):
        mat = random_symmetric(rng, 12)  # indefinite is fine for Jacobi
        ref = NumpyEigensolver().decompose(mat)
        jac = JacobiEigensolver().decompose(mat)
        assert np.allclose(jac.values, ref.values, atol=1e-8)
        # Eigenvectors agree up to sign (already normalized); compare
        # projectors to be basis-robust against degenerate eigenvalues.
        for j in range(12):
            proj_ref = np.outer(ref.vectors[:, j], ref.vectors[:, j])
            proj_jac = np.outer(jac.vectors[:, j], jac.vectors[:, j])
            if abs(ref.values[j]) > 1e-8 and (
                j == 0 or abs(ref.values[j] - ref.values[j - 1]) > 1e-6
            ):
                assert np.allclose(proj_ref, proj_jac, atol=1e-6)

    def test_power_matches_numpy_on_psd(self, rng):
        mat = random_psd(rng, 10)
        ref = NumpyEigensolver().decompose_top(mat, 4)
        pwr = PowerIterationEigensolver().decompose_top(mat, 4)
        assert np.allclose(pwr.values, ref.values, rtol=1e-6)


class TestJacobiSpecifics:
    def test_invalid_tol(self):
        with pytest.raises(ConfigurationError):
            JacobiEigensolver(tol=0.0)

    def test_invalid_sweeps(self):
        with pytest.raises(ConfigurationError):
            JacobiEigensolver(max_sweeps=0)

    def test_large_scale_matrix(self, rng):
        mat = random_psd(rng, 6) * 1e9
        result = JacobiEigensolver().decompose(mat)
        approx = result.vectors @ np.diag(result.values) @ result.vectors.T
        assert np.allclose(approx, mat, rtol=1e-9)


class TestPowerIterationSpecifics:
    def test_rejects_indefinite(self, rng):
        mat = np.diag([1.0, -2.0, 0.5])
        with pytest.raises(ConfigurationError):
            PowerIterationEigensolver().decompose(mat)

    def test_zero_matrix(self):
        result = PowerIterationEigensolver().decompose(np.zeros((4, 4)))
        assert np.allclose(result.values, 0.0)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            PowerIterationEigensolver(tol=-1.0)
        with pytest.raises(ConfigurationError):
            PowerIterationEigensolver(max_iterations=0)


class TestEigenResult:
    def test_top_negative_rejected(self, rng):
        result = NumpyEigensolver().decompose(random_psd(rng, 4))
        with pytest.raises(ConfigurationError):
            result.top(-1)

    def test_top_clamps_to_size(self, rng):
        result = NumpyEigensolver().decompose(random_psd(rng, 4))
        assert result.top(99).values.shape == (4,)

    def test_default_solver_is_usable(self, rng):
        """The lab's LAPACK reference is the product's own solve."""
        mat = random_psd(rng, 5)
        result = NumpyEigensolver().decompose(mat)
        assert isinstance(result, EigenResult)
        values, vectors = eigenpairs(mat)
        assert np.array_equal(result.values, values)
        assert np.array_equal(result.vectors, vectors)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    size=st.integers(min_value=2, max_value=8),
)
def test_property_jacobi_reconstructs_any_gram_matrix(seed, size):
    """Any Gram matrix decomposes exactly (the SVD pipeline's core need)."""
    sample_rng = np.random.default_rng(seed)
    x = sample_rng.standard_normal((size + 3, size))
    gram = x.T @ x
    result = JacobiEigensolver().decompose(gram)
    approx = result.vectors @ np.diag(result.values) @ result.vectors.T
    scale = max(1.0, np.abs(gram).max())
    assert np.abs(approx - gram).max() <= 1e-8 * scale
    assert np.all(result.values >= -1e-9 * scale)
