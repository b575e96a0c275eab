"""Tests for robust SVD (future-work item b): winsorized row influence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SVDCompressor, SVDDCompressor
from repro.lab.robust import (
    RobustSVDCompressor,
    RobustSVDDCompressor,
    winsorized_gram,
)
from repro.exceptions import ConfigurationError, ShapeError
from repro.metrics import rmspe


@pytest.fixture(scope="module")
def tilted_matrix():
    """Low-rank bulk plus one extreme row that tilts plain SVD's axes
    (the Appendix A 'distraction' scenario)."""
    rng = np.random.default_rng(21)
    u = rng.random((300, 2)) * 4
    v = rng.random((2, 50)) + 0.5
    x = u @ v + rng.standard_normal((300, 50)) * 0.05
    x[13] = rng.random(50) * 8000.0  # one enormous customer
    return x


@pytest.fixture(scope="module")
def bulk_mask(tilted_matrix):
    mask = np.ones(tilted_matrix.shape[0], dtype=bool)
    mask[13] = False
    return mask


class TestWinsorizedGram:
    def test_no_outliers_equals_plain_gram(self, rng):
        x = rng.standard_normal((40, 8))
        # With the clip at the max norm, nothing is rescaled.
        assert np.allclose(winsorized_gram(x, 100.0), x.T @ x, atol=1e-9)

    def test_outlier_influence_capped(self, tilted_matrix):
        plain = tilted_matrix.T @ tilted_matrix
        robust = winsorized_gram(tilted_matrix, 95.0)
        # The outlier dominates the plain Gram; the robust one is far smaller.
        assert np.abs(robust).max() < np.abs(plain).max() / 10

    def test_zero_matrix(self):
        x = np.zeros((5, 3))
        assert np.allclose(winsorized_gram(x, 99.0), 0.0)

    def test_symmetric_output(self, tilted_matrix):
        gram = winsorized_gram(tilted_matrix, 90.0)
        assert np.array_equal(gram, gram.T)


class TestConstruction:
    def test_requires_one_sizing_arg(self):
        with pytest.raises(ConfigurationError):
            RobustSVDCompressor()
        with pytest.raises(ConfigurationError):
            RobustSVDCompressor(k=2, budget_fraction=0.1)

    def test_invalid_clip(self):
        with pytest.raises(ConfigurationError):
            RobustSVDCompressor(k=2, clip_percentile=40.0)
        with pytest.raises(ConfigurationError):
            RobustSVDCompressor(k=2, clip_percentile=101.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ShapeError):
            RobustSVDCompressor(k=2).fit(np.ones(5))


class TestRobustness:
    def test_bulk_error_improves_k1(self, tilted_matrix, bulk_mask):
        """At k=1 plain SVD's axis points at the outlier; robust doesn't."""
        plain = SVDCompressor(k=1).fit(tilted_matrix)
        robust = RobustSVDCompressor(k=1, clip_percentile=95).fit(tilted_matrix)
        bulk = tilted_matrix[bulk_mask]
        plain_err = rmspe(bulk, plain.reconstruct()[bulk_mask])
        robust_err = rmspe(bulk, robust.reconstruct()[bulk_mask])
        assert robust_err < plain_err / 3

    def test_bulk_error_improves_k2(self, tilted_matrix, bulk_mask):
        plain = SVDCompressor(k=2).fit(tilted_matrix)
        robust = RobustSVDCompressor(k=2, clip_percentile=95).fit(tilted_matrix)
        bulk = tilted_matrix[bulk_mask]
        assert rmspe(bulk, robust.reconstruct()[bulk_mask]) < rmspe(
            bulk, plain.reconstruct()[bulk_mask]
        )

    def test_clean_data_unchanged(self, low_rank):
        """Without outliers, robust and plain axes agree."""
        plain = SVDCompressor(k=3).fit(low_rank)
        robust = RobustSVDCompressor(k=3, clip_percentile=99).fit(low_rank)
        assert np.allclose(
            robust.reconstruct(), plain.reconstruct(), atol=1e-6
        )

    def test_budget_sizing(self, phone_small):
        model = RobustSVDCompressor(budget_fraction=0.10).fit(phone_small)
        assert model.space_fraction() <= 0.10 + 1e-12

    def test_eigenvalues_sorted(self, tilted_matrix):
        model = RobustSVDCompressor(k=3, clip_percentile=95).fit(tilted_matrix)
        assert np.all(np.diff(model.eigenvalues) <= 1e-9)


class TestRobustSVDD:
    def test_space_within_budget(self, tilted_matrix):
        model = RobustSVDDCompressor(budget_fraction=0.10).fit(tilted_matrix)
        assert model.space_fraction() <= 0.10 + 1e-12

    def test_deltas_capture_the_distraction(self, tilted_matrix):
        """The tilted row's cells become deltas under robust axes."""
        model = RobustSVDDCompressor(
            budget_fraction=0.10, clip_percentile=95
        ).fit(tilted_matrix)
        delta_rows = {row for row, _c, _d in model.outlier_cells()}
        assert 13 in delta_rows

    def test_overall_error_comparable_to_svdd(self, tilted_matrix):
        svdd = SVDDCompressor(budget_fraction=0.10).fit(tilted_matrix)
        robust = RobustSVDDCompressor(budget_fraction=0.10).fit(tilted_matrix)
        assert rmspe(tilted_matrix, robust.reconstruct()) <= 3 * rmspe(
            tilted_matrix, svdd.reconstruct()
        )

    def test_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            RobustSVDDCompressor(budget_fraction=0.0)


class TestOutOfCore:
    def test_store_path_matches_array_path(self, tmp_path, tilted_matrix):
        from repro.storage import MatrixStore

        store = MatrixStore.create(tmp_path / "x.mat", tilted_matrix)
        from_array = RobustSVDCompressor(k=2, clip_percentile=95).fit(tilted_matrix)
        from_store = RobustSVDCompressor(k=2, clip_percentile=95).fit(store)
        assert np.allclose(
            from_store.reconstruct(), from_array.reconstruct(), atol=1e-7
        )
        assert store.pass_count == 4  # norms, gram, energies, U
        store.close()
