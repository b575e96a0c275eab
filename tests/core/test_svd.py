"""Tests for the two-pass plain-SVD compressor (paper Section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SVDCompressor, compute_gram, compute_u, spectrum_from_gram
from repro.core.svd import eigenpairs
from repro.exceptions import ConfigurationError, ShapeError
from repro.lab.eigen import JacobiEigensolver, is_column_orthonormal
from repro.metrics import rmspe
from repro.storage import MatrixStore


class TestToyMatrix:
    """The paper's worked example (Table 1 / Eq. 5)."""

    def test_eigenvalues_match_paper(self, toy):
        model = SVDCompressor(k=5).fit(toy)
        assert model.eigenvalues == pytest.approx([9.64, 5.29], abs=0.005)

    def test_rank_2_detected(self, toy):
        model = SVDCompressor(k=5).fit(toy)
        assert model.cutoff == 2

    def test_exact_reconstruction_at_full_rank(self, toy):
        model = SVDCompressor(k=2).fit(toy)
        assert np.allclose(model.reconstruct(), toy, atol=1e-10)

    def test_u_matches_paper(self, toy):
        model = SVDCompressor(k=2).fit(toy)
        expected_u = np.array(
            [
                [0.18, 0.0],
                [0.36, 0.0],
                [0.18, 0.0],
                [0.90, 0.0],
                [0.0, 0.53],
                [0.0, 0.80],
                [0.0, 0.27],
            ]
        )
        assert np.allclose(model.u, expected_u, atol=0.005)

    def test_v_matches_paper(self, toy):
        model = SVDCompressor(k=2).fit(toy)
        expected_v = np.array(
            [
                [0.58, 0.0],
                [0.58, 0.0],
                [0.58, 0.0],
                [0.0, 0.71],
                [0.0, 0.71],
            ]
        )
        assert np.allclose(model.v, expected_v, atol=0.005)

    def test_rank_1_truncation_keeps_weekday_blob(self, toy):
        """k=1 reproduces the business customers, zeroes the weekend blob."""
        model = SVDCompressor(k=1).fit(toy)
        recon = model.reconstruct()
        assert np.allclose(recon[:4, :3], toy[:4, :3], atol=1e-9)
        assert np.allclose(recon[4:, 3:], 0.0, atol=1e-9)


class TestGramPass:
    def test_matches_xtx(self, rng):
        x = rng.standard_normal((40, 9))
        assert np.allclose(compute_gram(x), x.T @ x)

    def test_store_path_is_single_pass(self, tmp_path, rng):
        x = rng.standard_normal((300, 7))
        store = MatrixStore.create(tmp_path / "x.mat", x)
        gram = compute_gram(store)
        assert store.pass_count == 1
        assert np.allclose(gram, x.T @ x)
        store.close()

    def test_empty_source_rejected(self):
        with pytest.raises(ShapeError):
            compute_gram(np.empty((0, 3)))


class TestSpectrum:
    def test_matches_numpy_svd(self, rng):
        x = rng.standard_normal((50, 12))
        singular, v = spectrum_from_gram(compute_gram(x), 12)
        ref = np.linalg.svd(x, compute_uv=False)
        assert np.allclose(singular, ref, atol=1e-8)
        assert is_column_orthonormal(v)

    def test_truncation(self, rng):
        x = rng.standard_normal((30, 10))
        singular, v = spectrum_from_gram(compute_gram(x), 4)
        assert singular.shape == (4,)
        assert v.shape == (10, 4)

    def test_rank_deficiency_shrinks_cutoff(self, low_rank):
        singular, v = spectrum_from_gram(compute_gram(low_rank), 10)
        assert singular.shape[0] == 3

    def test_zero_matrix_yields_null_component(self):
        singular, v = spectrum_from_gram(np.zeros((5, 5)), 3)
        assert singular.shape == (1,)
        assert singular[0] == 0.0

    def test_k_zero_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            spectrum_from_gram(np.eye(3), 0)

    def test_jacobi_solver_agrees(self, rng):
        x = rng.standard_normal((40, 8))
        gram = compute_gram(x)
        values, _ = eigenpairs(gram, 8)
        jacobi = JacobiEigensolver().decompose_top(gram, 8)
        assert np.allclose(values, jacobi.values, atol=1e-7)


class TestComputeU:
    def test_u_is_column_orthonormal(self, rng):
        x = rng.standard_normal((60, 10))
        singular, v = spectrum_from_gram(compute_gram(x), 10)
        u = compute_u(x, singular, v)
        assert is_column_orthonormal(u, tol=1e-6)

    def test_second_pass_on_store(self, tmp_path, rng):
        x = rng.standard_normal((200, 6))
        store = MatrixStore.create(tmp_path / "x.mat", x)
        singular, v = spectrum_from_gram(compute_gram(store), 6)
        compute_u(store, singular, v)
        assert store.pass_count == 2  # gram pass + U pass: the 2-pass claim
        store.close()

    def test_shape_validation(self, rng):
        x = rng.standard_normal((10, 5))
        with pytest.raises(ShapeError):
            compute_u(x, np.ones(3), np.ones((5, 2)))


class TestCompressor:
    def test_requires_exactly_one_sizing_arg(self):
        with pytest.raises(ConfigurationError):
            SVDCompressor()
        with pytest.raises(ConfigurationError):
            SVDCompressor(k=3, budget_fraction=0.1)
        with pytest.raises(ConfigurationError):
            SVDCompressor(k=0)

    def test_budget_resolution(self):
        compressor = SVDCompressor(budget_fraction=0.10)
        # For 1000 x 100: per-component = (1000+1+100)*8; budget = 80_000 B.
        assert compressor.resolve_cutoff(1000, 100) == 9

    def test_error_decreases_with_k(self, phone_small):
        errors = [
            rmspe(phone_small, SVDCompressor(k=k).fit(phone_small).reconstruct())
            for k in (1, 4, 16, 64)
        ]
        assert errors == sorted(errors, reverse=True)

    def test_matches_numpy_truncated_svd(self, rng):
        """Our 2-pass result equals the optimal rank-k approximation."""
        x = rng.standard_normal((80, 20))
        model = SVDCompressor(k=5).fit(x)
        u_ref, s_ref, vt_ref = np.linalg.svd(x, full_matrices=False)
        optimal = u_ref[:, :5] @ np.diag(s_ref[:5]) @ vt_ref[:5]
        assert np.allclose(model.reconstruct(), optimal, atol=1e-8)

    def test_store_and_array_agree(self, tmp_path, rng):
        x = rng.standard_normal((150, 12))
        store = MatrixStore.create(tmp_path / "x.mat", x)
        from_array = SVDCompressor(k=4).fit(x)
        from_store = SVDCompressor(k=4).fit(store)
        assert np.allclose(from_array.reconstruct(), from_store.reconstruct())
        store.close()

    def test_space_fraction_within_budget(self, phone_small):
        model = SVDCompressor(budget_fraction=0.10).fit(phone_small)
        assert model.space_fraction() <= 0.10 + 1e-12


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(5, 40),
    cols=st.integers(2, 15),
)
def test_property_full_rank_svd_is_exact(seed, rows, cols):
    """Keeping all components reconstructs the matrix exactly."""
    x = np.random.default_rng(seed).standard_normal((rows, cols))
    model = SVDCompressor(k=min(rows, cols)).fit(x)
    assert np.allclose(model.reconstruct(), x, atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 10))
def test_property_truncated_svd_error_matches_tail_eigenvalues(seed, k):
    """||X - X_k||_F^2 == sum of discarded squared singular values."""
    x = np.random.default_rng(seed).standard_normal((30, 12))
    model = SVDCompressor(k=k).fit(x)
    residual = np.linalg.norm(x - model.reconstruct()) ** 2
    singular = np.linalg.svd(x, compute_uv=False)
    expected = float((singular[model.cutoff :] ** 2).sum())
    assert residual == pytest.approx(expected, rel=1e-6, abs=1e-8)


class TestStreamedUEmission:
    def test_matches_in_memory_u(self, tmp_path, rng):
        from repro.core import compute_u_to_store

        x = rng.standard_normal((300, 12))
        singular, v = spectrum_from_gram(compute_gram(x), 5)
        expected = compute_u(x, singular, v)
        store = compute_u_to_store(x, singular, v, tmp_path / "u.mat")
        assert np.allclose(store.read_all(), expected, atol=1e-12)
        store.close()

    def test_never_materializes_from_disk_source(self, tmp_path, rng):
        """X streams from disk, U streams to disk — both out of core."""
        from repro.core import compute_u_to_store

        x = rng.standard_normal((500, 9))
        source = MatrixStore.create(tmp_path / "x.mat", x)
        singular, v = spectrum_from_gram(compute_gram(source), 4)
        u_store = compute_u_to_store(source, singular, v, tmp_path / "u.mat")
        assert u_store.shape == (500, 4)
        assert source.pass_count == 2  # gram pass + U pass
        assert np.allclose(u_store.read_all(), compute_u(x, singular, v), atol=1e-12)
        u_store.close()
        source.close()

    def test_one_row_per_page_layout(self, tmp_path, rng):
        from repro.core import compute_u_to_store

        x = rng.standard_normal((50, 30))
        singular, v = spectrum_from_gram(compute_gram(x), 20)
        store = compute_u_to_store(x, singular, v, tmp_path / "u.mat")
        assert store.pages_per_row() == 1
        store.close()

    def test_float32_output(self, tmp_path, rng):
        from repro.core import compute_u_to_store

        x = rng.standard_normal((60, 10))
        singular, v = spectrum_from_gram(compute_gram(x), 4)
        store = compute_u_to_store(
            x, singular, v, tmp_path / "u.mat", dtype=np.float32
        )
        assert store.dtype == np.float32
        assert np.allclose(
            store.read_all(), compute_u(x, singular, v), atol=1e-5
        )
        store.close()
