"""Tests for the symmetric eigensolvers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ShapeError
from repro.linalg import (
    EigenResult,
    NumpyEigensolver,
    default_eigensolver,
    top_eigenvalues,
)
from repro.lab.eigen import JacobiEigensolver, PowerIterationEigensolver

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
        mat = random_psd(rng, 5)
        result = default_eigensolver().decompose(mat)
        assert isinstance(result, EigenResult)


class TestTopEigenvalues:
    """Values only (``eigvalsh``) against the full decomposition's."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        size=st.integers(min_value=1, max_value=40),
        rank=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=45),
    )
    def test_matches_decompose_top_on_psd_grams(self, seed, size, rank, k):
        sample_rng = np.random.default_rng(seed)
        # rank < size: a rank-deficient Gram whose tail eigenvalues are
        # round-off, possibly negative.
        x = sample_rng.standard_normal((rank, size)) * 10.0 ** sample_rng.integers(-2, 4)
        gram = x.T @ x
        values = top_eigenvalues(gram, k)
        want = np.maximum(NumpyEigensolver().decompose_top(gram, k).values, 0.0)
        assert values.shape == (min(k, size),)
        assert np.all(values >= 0.0) and np.all(np.diff(values) <= 0.0)
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=1e-12 * want[0])

    def test_negative_roundoff_is_clipped(self):
        gram = np.diag([4.0, 1.0, -1e-18])
        np.testing.assert_array_equal(top_eigenvalues(gram, 3), [4.0, 1.0, 0.0])

    def test_rejects_asymmetric(self):
        mat = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            top_eigenvalues(mat, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        mat = np.eye(3)
        mat[1, 1] = bad
        with pytest.raises(ShapeError, match="NaN or infinite"):
            top_eigenvalues(mat, 2)


def _with_spectrum(rng: np.random.Generator, values) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric matrix with eigenvalues ``values``, and its eigenvectors."""
    vectors = np.linalg.qr(rng.standard_normal((len(values), len(values))))[0]
    matrix = (vectors * np.asarray(values, dtype=np.float64)) @ vectors.T
    return (matrix + matrix.T) / 2.0, vectors


def _assert_top_sum(matrix, k, start):
    """``top_eigenvalues(matrix, k, start)`` against the dense reference:
    the top-``k`` sum to 1e-10 of itself, never above it beyond round-off."""
    got = top_eigenvalues(matrix, k, start)
    want = top_eigenvalues(matrix, k)
    assert got.shape == want.shape
    assert np.all(got >= 0.0) and np.all(np.diff(got) <= 1e-12 * max(want[0], 1e-300))
    assert abs(got.sum() - want.sum()) <= 1e-10 * want.sum()
    assert got.sum() <= want.sum() * (1.0 + 1e-13)


class TestTopEigenvaluesFromAStart:
    """The block-Krylov path against ``eigvalsh`` (the path without
    ``start``), on the spectra and start blocks that break iterations."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        size=st.integers(min_value=2, max_value=70),
        k=st.integers(min_value=1, max_value=8),
        kind=st.sampled_from(["decaying", "clustered", "repeated", "rank_below_k"]),
        closeness=st.integers(min_value=1, max_value=13),
        noise=st.sampled_from([0.0, 1e-8, 1e-3, 1.0]),
    )
    def test_matches_dense_on_hard_spectra(self, seed, size, k, kind, closeness, noise):
        """``size <= k`` and start blocks as wide as the matrix included."""
        rng = np.random.default_rng(seed)
        values = 10.0 ** rng.uniform(-3, 3) * np.sort(rng.uniform(0.0, 1.0, size))[::-1]
        top = min(k, size)
        if kind == "clustered" and top < size:
            # lambda_{k+1} / lambda_k -> 1: no gap to converge across.
            values[top:] *= values[top - 1] * (1.0 - 10.0**-closeness) / values[top]
        elif kind == "repeated":
            values[: max(2, top)] = values[0]
        elif kind == "rank_below_k":
            values[max(1, top - 2) :] = 0.0
        matrix, vectors = _with_spectrum(rng, values)
        start = np.hstack(
            [
                vectors[:, :top] + noise * rng.standard_normal((size, top)),
                rng.standard_normal((size, 3)),
            ]
        )
        _assert_top_sum(matrix, k, start)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        size=st.integers(min_value=12, max_value=70),
        k=st.integers(min_value=1, max_value=6),
        multiplicity=st.integers(min_value=1, max_value=3),
    )
    def test_start_orthogonal_to_the_dominant_eigenvectors(self, seed, size, k, multiplicity):
        """The warm block spans eigenvectors ``multiplicity..`` only; the
        probe columns are all that can find the (repeated) top value."""
        rng = np.random.default_rng(seed)
        values = np.sort(rng.uniform(0.0, 1.0, size))[::-1]
        values[:multiplicity] = 5.0
        matrix, vectors = _with_spectrum(rng, values)
        warm = vectors[:, multiplicity : multiplicity + k]
        _assert_top_sum(matrix, k, np.hstack([warm, rng.standard_normal((size, 3))]))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        old=st.integers(min_value=10, max_value=60),
        new=st.integers(min_value=1, max_value=7),
        k=st.integers(min_value=1, max_value=6),
        cover=st.sampled_from(["unit_vectors", "probes"]),
    )
    def test_decoupled_dominant_diagonal_block(self, seed, old, new, k, cover):
        """What a column append of a new customer class builds: the new
        days' block carries the energy and is coupled to nothing the warm
        block touches."""
        rng = np.random.default_rng(seed)
        history, vectors = _with_spectrum(rng, np.sort(rng.uniform(0.0, 1.0, old))[::-1])
        factor = rng.standard_normal((new + 2, new))
        size = old + new
        matrix = np.zeros((size, size))
        matrix[:old, :old] = history
        matrix[old:, old:] = 100.0 * factor.T @ factor
        warm = np.vstack([vectors[:, :k], np.zeros((new, k))])
        if cover == "unit_vectors":
            unseen = np.eye(size, new, -old)
        else:
            unseen = rng.standard_normal((size, 3))
        _assert_top_sum(matrix, k, np.hstack([warm, unseen]))

    def test_a_start_that_covers_nothing_new_is_blind(self):
        """Why callers add the unseen directions: a Krylov space grown
        from the warm block alone never leaves the old coordinates."""
        rng = np.random.default_rng(5)
        history, vectors = _with_spectrum(rng, np.linspace(1.0, 0.1, 30))
        matrix = np.zeros((34, 34))
        matrix[:30, :30] = history
        matrix[30:, 30:] = 50.0 * np.eye(4)
        warm = np.vstack([vectors[:, :4] + 1e-3 * rng.standard_normal((30, 4)), np.zeros((4, 4))])
        blind = top_eigenvalues(matrix, 3, warm)
        assert blind.sum() < 0.1 * top_eigenvalues(matrix, 3).sum()
        _assert_top_sum(matrix, 3, np.hstack([warm, np.eye(34, 4, -30)]))

    def test_reports_how_it_got_there(self, rng):
        from repro.linalg.eigen import _top_eigenvalues

        values = np.concatenate([[9.0, 7.0, 5.0], np.linspace(1.0, 0.0, 197)])
        matrix, vectors = _with_spectrum(rng, values)
        start = vectors[:, :3] + 1e-3 * rng.standard_normal((200, 3))
        got, how = _top_eigenvalues(matrix, 3, start)
        assert how["certified"] and 1 <= how["blocks"] <= 8
        assert how["basis"] == 3 * how["blocks"]
        np.testing.assert_allclose(got, [9.0, 7.0, 5.0], rtol=1e-12)
        # No gap and one start column: eight blocks cannot certify it.
        flat, _ = _with_spectrum(rng, np.linspace(1.0, 0.99, 200))
        got, how = _top_eigenvalues(flat, 3, rng.standard_normal((200, 1)))
        assert not how["certified"] and how["blocks"] == 8
        np.testing.assert_allclose(got, top_eigenvalues(flat, 3), rtol=0, atol=0)
        # Without a start: the dense solve, nothing iterated.
        assert _top_eigenvalues(flat, 3, None)[1] == {
            "blocks": 0, "basis": 0, "certified": False,
        }

    def test_zero_matrix_and_zero_start_columns(self):
        start = np.zeros((6, 2))
        np.testing.assert_array_equal(top_eigenvalues(np.zeros((6, 6)), 2, start), [0.0, 0.0])
        start[:, 0] = 1.0
        np.testing.assert_array_equal(top_eigenvalues(np.zeros((6, 6)), 2, start), [0.0, 0.0])
        np.testing.assert_allclose(
            top_eigenvalues(np.diag([3.0, 2.0, 1.0, 0.0, 0.0, 0.0]), 2, start),
            [3.0, 2.0],
        )


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
