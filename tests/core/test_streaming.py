"""Tests for incremental row appends (projection without rebuild)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SVDCompressor, SVDDCompressor
from repro.core.streaming import append_rows, project_rows, subspace_residual
from repro.data import phone_matrix
from repro.exceptions import ConfigurationError, ShapeError
from repro.metrics import rmspe


@pytest.fixture(scope="module")
def base_data():
    return phone_matrix(400)


@pytest.fixture(scope="module")
def new_data():
    # Prefix-stability: rows 400..449 of the same population.
    return phone_matrix(450)[400:]


@pytest.fixture(scope="module")
def svd_model(base_data):
    return SVDCompressor(budget_fraction=0.10).fit(base_data)


@pytest.fixture(scope="module")
def svdd_model(base_data):
    return SVDDCompressor(budget_fraction=0.10).fit(base_data)


class TestProjection:
    def test_projection_matches_eq_11(self, svd_model, new_data):
        """u = x V / lambda, exactly as pass 2 computes it."""
        u_new = project_rows(svd_model, new_data)
        expected = (new_data @ svd_model.v) / svd_model.eigenvalues
        assert np.allclose(u_new, expected)

    def test_existing_rows_project_to_their_u(self, base_data, svd_model):
        u_new = project_rows(svd_model, base_data[:10])
        assert np.allclose(u_new, svd_model.u[:10], atol=1e-10)

    def test_shape_validation(self, svd_model):
        with pytest.raises(ShapeError):
            project_rows(svd_model, np.ones(5))


class TestSubspaceResidual:
    def test_in_subspace_rows_have_zero_residual(self, svd_model):
        synthetic = (np.random.default_rng(2).random((5, svd_model.cutoff))
                     * svd_model.eigenvalues) @ svd_model.v.T
        assert subspace_residual(svd_model, synthetic) < 1e-12

    def test_same_population_rows_have_low_residual(self, svd_model, new_data):
        assert subspace_residual(svd_model, new_data) < 0.25

    def test_alien_rows_have_high_residual(self, svd_model):
        rng = np.random.default_rng(5)
        alien = rng.standard_normal((20, 366)) * 100
        assert subspace_residual(svd_model, alien) > 0.5

    def test_zero_rows(self, svd_model):
        assert subspace_residual(svd_model, np.zeros((3, 366))) == 0.0


class TestAppend:
    def test_svd_append_shape(self, svd_model, new_data):
        extended = append_rows(svd_model, new_data)
        assert extended.num_rows == 450
        assert extended.cutoff == svd_model.cutoff

    def test_original_model_untouched(self, svd_model, new_data):
        before = svd_model.u.shape
        append_rows(svd_model, new_data)
        assert svd_model.u.shape == before

    def test_old_rows_reconstruct_identically(self, svd_model, new_data, base_data):
        extended = append_rows(svd_model, new_data)
        assert np.allclose(
            extended.reconstruct_row(100), svd_model.reconstruct_row(100)
        )

    def test_new_rows_reconstruct_reasonably(self, svd_model, new_data):
        """Same-population appends stay near the from-scratch error."""
        extended = append_rows(svd_model, new_data)
        recon = np.vstack(
            [extended.reconstruct_row(400 + i) for i in range(new_data.shape[0])]
        )
        assert rmspe(new_data, recon) < 0.30

    def test_append_close_to_full_refit(self, base_data, new_data):
        """For same-population rows, projection append is nearly as good
        as refitting on all 450 rows."""
        full = SVDCompressor(k=10).fit(np.vstack([base_data, new_data]))
        incremental = append_rows(SVDCompressor(k=10).fit(base_data), new_data)
        all_data = np.vstack([base_data, new_data])
        assert rmspe(all_data, incremental.reconstruct()) < 1.5 * rmspe(
            all_data, full.reconstruct()
        )

    def test_svdd_append_keeps_existing_deltas(self, svdd_model, new_data):
        extended = append_rows(svdd_model, new_data)
        old = svdd_model.deltas
        assert extended.num_deltas >= len(old) > 0
        assert np.isin(old.keys, extended.deltas.keys).all()
        np.testing.assert_array_equal(extended.deltas.lookup(old.keys), old.values)

    def test_svdd_append_adds_deltas_for_new_outliers(self, svdd_model):
        spiky = np.zeros((2, 366))
        spiky[0, 100] = 1e6  # an extreme new cell
        extended = append_rows(svdd_model, spiky)
        new_rows_with_deltas = {
            row for row, _c, _d in extended.outlier_cells() if row >= 400
        }
        assert 400 in new_rows_with_deltas
        assert extended.reconstruct_cell(400, 100) == pytest.approx(1e6, rel=1e-6)

    def test_svdd_budget_validated(self, svdd_model, new_data):
        with pytest.raises(ConfigurationError):
            append_rows(svdd_model, new_data, budget_fraction=0.0)

