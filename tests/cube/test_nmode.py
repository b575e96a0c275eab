"""Tests for N-mode PCA (future-work item c)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lab.cube.nmode import TuckerN, tucker_space_bytes
from repro.lab.cube import Tucker3
from repro.exceptions import ConfigurationError, QueryError, ShapeError
from repro.metrics import rmspe


@pytest.fixture(scope="module")
def tensor4():
    """A rank-1 four-mode tensor plus noise."""
    rng = np.random.default_rng(17)
    factors = [rng.random(dim) + 0.5 for dim in (8, 6, 5, 7)]
    base = np.einsum("i,j,k,l->ijkl", *factors)
    return base + 0.01 * rng.standard_normal(base.shape)


class TestGeneralOrder:
    def test_4mode_rank1_accurate(self, tensor4):
        model = TuckerN((1, 1, 1, 1)).fit(tensor4)
        assert rmspe(tensor4, model.reconstruct()) < 0.05

    def test_full_rank_exact(self, tensor4):
        model = TuckerN(tensor4.shape, hooi_iterations=0).fit(tensor4)
        assert np.allclose(model.reconstruct(), tensor4, atol=1e-8)

    def test_2mode_matches_truncated_svd(self, rng):
        """Order-2 Tucker is just the truncated SVD."""
        from repro.core import SVDCompressor

        x = rng.standard_normal((30, 12))
        tucker = TuckerN((4, 4), hooi_iterations=0).fit(x)
        svd = SVDCompressor(k=4).fit(x)
        assert rmspe(x, tucker.reconstruct()) == pytest.approx(
            rmspe(x, svd.reconstruct()), rel=1e-6
        )

    def test_3mode_matches_tucker3(self):
        rng = np.random.default_rng(9)
        cube = rng.random((10, 8, 6))
        a = TuckerN((3, 3, 3), hooi_iterations=2).fit(cube)
        b = Tucker3((3, 3, 3), hooi_iterations=2).fit(cube)
        assert rmspe(cube, a.reconstruct()) == pytest.approx(
            rmspe(cube, b.reconstruct()), rel=1e-8
        )

    def test_cell_matches_full(self, tensor4):
        model = TuckerN((2, 2, 2, 2)).fit(tensor4)
        full = model.reconstruct()
        for indices in [(0, 0, 0, 0), (3, 4, 2, 6), (7, 5, 4, 0)]:
            assert model.reconstruct_cell(*indices) == pytest.approx(full[indices])

    def test_error_decreases_with_rank(self, tensor4):
        errors = [
            rmspe(tensor4, TuckerN((r,) * 4).fit(tensor4).reconstruct())
            for r in (1, 2, 4)
        ]
        assert errors == sorted(errors, reverse=True)


class TestValidation:
    def test_rank_order_mismatch(self, tensor4):
        with pytest.raises(ShapeError):
            TuckerN((2, 2, 2)).fit(tensor4)

    def test_invalid_ranks(self):
        with pytest.raises(ConfigurationError):
            TuckerN((2,))
        with pytest.raises(ConfigurationError):
            TuckerN((0, 2))
        with pytest.raises(ConfigurationError):
            TuckerN((2, 2), hooi_iterations=-1)

    def test_cell_bounds(self, tensor4):
        model = TuckerN((1, 1, 1, 1)).fit(tensor4)
        with pytest.raises(QueryError):
            model.reconstruct_cell(99, 0, 0, 0)
        with pytest.raises(QueryError):
            model.reconstruct_cell(0, 0, 0)

    def test_unfitted(self):
        model = TuckerN((1, 1))
        with pytest.raises(ConfigurationError):
            model.reconstruct()


class TestSpace:
    def test_formula_any_order(self):
        # 4-mode: factors 8*2+6*2+5*2+7*2 = 52; core 16 -> 68 numbers.
        assert tucker_space_bytes((8, 6, 5, 7), (2, 2, 2, 2)) == 68 * 8

    def test_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            tucker_space_bytes((2, 2), (1, 1, 1))

    def test_model_reports(self, tensor4):
        model = TuckerN((2, 2, 2, 2)).fit(tensor4)
        assert model.space_bytes() == tucker_space_bytes(tensor4.shape, (2, 2, 2, 2))
