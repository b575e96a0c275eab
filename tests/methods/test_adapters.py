"""Tests for the SVD/SVDD method adapters and the common interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SVDCompressor, SVDDCompressor
from repro.exceptions import ShapeError
from repro.lab.methods import SVDDMethod, SVDMethod, standard_methods
from repro.metrics import rmspe


class TestAdapters:
    def test_svd_adapter_matches_core(self, phone_small):
        via_method = SVDMethod().fit(phone_small, 0.10)
        via_core = SVDCompressor(budget_fraction=0.10).fit(phone_small)
        assert np.allclose(via_method.reconstruct(), via_core.reconstruct())

    def test_svdd_adapter_matches_core(self, phone_small):
        via_method = SVDDMethod().fit(phone_small, 0.10)
        via_core = SVDDCompressor(budget_fraction=0.10).fit(phone_small)
        assert np.allclose(via_method.reconstruct(), via_core.reconstruct())

    def test_adapter_space_accounting(self, phone_small):
        model = SVDDMethod().fit(phone_small, 0.10)
        assert model.space_fraction() <= 0.10 + 1e-12

    def test_names(self):
        assert SVDMethod().name == "svd"
        assert SVDDMethod().name == "delta"

    def test_validation(self):
        with pytest.raises(ShapeError):
            SVDMethod().fit(np.ones(5), 0.1)
        with pytest.raises(ShapeError):
            SVDMethod().fit(np.ones((3, 3)), 0.0)


class TestStandardMethods:
    def test_four_competitors_in_paper_order(self):
        assert [m.name for m in standard_methods()] == ["hc", "dct", "svd", "delta"]

    def test_all_fit_and_reconstruct(self, stocks_small):
        for method in standard_methods():
            model = method.fit(stocks_small, 0.15)
            assert model.reconstruct().shape == stocks_small.shape
            assert model.space_fraction() <= 0.15 + 1e-12

    def test_svdd_never_worse_than_svd(self, stocks_small):
        """SVDD dominates plain SVD at the same budget (Fig. 6)."""
        for budget in (0.05, 0.10, 0.20):
            svd_err = rmspe(
                stocks_small, SVDMethod().fit(stocks_small, budget).reconstruct()
            )
            svdd_err = rmspe(
                stocks_small, SVDDMethod().fit(stocks_small, budget).reconstruct()
            )
            assert svdd_err <= svd_err + 1e-9
