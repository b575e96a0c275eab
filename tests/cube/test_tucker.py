"""Tests for 3-mode PCA (Tucker decomposition)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lab.cube import Tucker3, tucker3_space_bytes
from repro.exceptions import ConfigurationError, QueryError, ShapeError
from repro.metrics import rmspe


@pytest.fixture(scope="module")
def rank1_cube():
    rng = np.random.default_rng(4)
    return np.einsum(
        "i,j,k->ijk", rng.random(12) + 0.5, rng.random(8) + 0.5, rng.random(10) + 0.5
    )


@pytest.fixture(scope="module")
def noisy_cube(rank1_cube):
    rng = np.random.default_rng(5)
    return rank1_cube + 0.01 * rng.standard_normal(rank1_cube.shape)


class TestFitting:
    def test_rank1_cube_exact_at_rank1(self, rank1_cube):
        model = Tucker3((1, 1, 1)).fit(rank1_cube)
        assert rmspe(rank1_cube, model.reconstruct()) < 1e-8

    def test_full_rank_exact(self, noisy_cube):
        shape = noisy_cube.shape
        model = Tucker3(shape, hooi_iterations=0).fit(noisy_cube)
        assert np.allclose(model.reconstruct(), noisy_cube, atol=1e-8)

    def test_hooi_never_hurts(self, noisy_cube):
        hosvd = Tucker3((2, 2, 2), hooi_iterations=0).fit(noisy_cube)
        hooi = Tucker3((2, 2, 2), hooi_iterations=8).fit(noisy_cube)
        assert rmspe(noisy_cube, hooi.reconstruct()) <= rmspe(
            noisy_cube, hosvd.reconstruct()
        ) + 1e-9

    def test_error_decreases_with_rank(self, noisy_cube):
        errors = [
            rmspe(noisy_cube, Tucker3((r, r, r)).fit(noisy_cube).reconstruct())
            for r in (1, 2, 4)
        ]
        assert errors == sorted(errors, reverse=True)

    def test_ranks_clamped_to_shape(self, rank1_cube):
        model = Tucker3((99, 99, 99), hooi_iterations=0).fit(rank1_cube)
        assert model.core.shape == rank1_cube.shape

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            Tucker3((0, 1, 1))
        with pytest.raises(ConfigurationError):
            Tucker3((1, 1))
        with pytest.raises(ConfigurationError):
            Tucker3((1, 1, 1), hooi_iterations=-1)

    def test_needs_3d(self):
        with pytest.raises(ShapeError):
            Tucker3((1, 1, 1)).fit(np.ones((3, 3)))


class TestCellReconstruction:
    def test_matches_full(self, noisy_cube):
        model = Tucker3((3, 3, 3)).fit(noisy_cube)
        full = model.reconstruct()
        for indices in [(0, 0, 0), (5, 3, 7), (11, 7, 9)]:
            assert model.reconstruct_cell(*indices) == pytest.approx(full[indices])

    def test_bounds(self, noisy_cube):
        model = Tucker3((2, 2, 2)).fit(noisy_cube)
        with pytest.raises(QueryError):
            model.reconstruct_cell(12, 0, 0)

    def test_unfitted_rejected(self):
        model = Tucker3((2, 2, 2))
        with pytest.raises(ConfigurationError):
            model.reconstruct()
        with pytest.raises(ConfigurationError):
            model.reconstruct_cell(0, 0, 0)


class TestSpace:
    def test_formula(self):
        # factors: 12*2 + 8*2 + 10*2 = 60 numbers; core: 8 -> 68 * 8 B.
        assert tucker3_space_bytes((12, 8, 10), (2, 2, 2)) == 68 * 8

    def test_model_reports_actual_ranks(self, rank1_cube):
        model = Tucker3((2, 2, 2)).fit(rank1_cube)
        assert model.space_bytes() == tucker3_space_bytes(rank1_cube.shape, (2, 2, 2))
