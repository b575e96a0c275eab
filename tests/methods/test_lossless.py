"""Tests for the lossless (gzip/DEFLATE) reference method."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lab.methods import LosslessZlibMethod


class TestLossless:
    def test_exact_reconstruction(self, rng):
        x = rng.standard_normal((20, 15))
        model = LosslessZlibMethod().fit(x)
        assert np.array_equal(model.reconstruct(), x)

    def test_row_and_cell(self, rng):
        x = rng.standard_normal((10, 8))
        model = LosslessZlibMethod().fit(x)
        assert np.array_equal(model.reconstruct_row(3), x[3])
        assert model.reconstruct_cell(2, 5) == x[2, 5]

    def test_every_access_decompresses_everything(self, rng):
        """The paper's criticism of lossless compression, made observable."""
        x = rng.standard_normal((10, 8))
        model = LosslessZlibMethod().fit(x)
        model.reconstruct_cell(0, 0)
        model.reconstruct_cell(1, 1)
        model.reconstruct_row(2)
        assert model.decompressions == 3

    def test_redundant_data_compresses_well(self):
        x = np.tile(np.arange(50.0), (100, 1))
        model = LosslessZlibMethod().fit(x)
        assert model.space_fraction() < 0.05

    def test_noise_compresses_poorly(self, rng):
        x = rng.standard_normal((50, 50))
        model = LosslessZlibMethod().fit(x)
        assert model.space_fraction() > 0.5

    def test_budget_is_ignored(self, rng):
        x = rng.standard_normal((10, 10))
        a = LosslessZlibMethod().fit(x, 0.01)
        b = LosslessZlibMethod().fit(x, 0.99)
        assert a.space_bytes() == b.space_bytes()

    def test_level_trades_size(self):
        x = np.tile(np.sin(np.arange(200.0)), (40, 1))
        fast = LosslessZlibMethod(level=1).fit(x)
        best = LosslessZlibMethod(level=9).fit(x)
        assert best.space_bytes() <= fast.space_bytes()


class TestFixedPointVariant:
    def test_exact_to_precision(self, rng):
        x = np.round(rng.random((30, 20)) * 100, 2)  # dollar amounts in cents
        model = LosslessZlibMethod(decimals=2).fit(x)
        assert np.allclose(model.reconstruct(), x, atol=1e-9)

    def test_rounding_is_the_only_loss(self, rng):
        x = rng.random((20, 10)) * 100
        model = LosslessZlibMethod(decimals=2).fit(x)
        assert np.abs(model.reconstruct() - x).max() <= 0.005 + 1e-12

    def test_reaches_the_paper_reference_on_phone_data(self, phone_small):
        """On dollar-amount-like data, the cents variant lands near the
        paper's ~25% gzip reference (raw float64 mantissas do not)."""
        raw = LosslessZlibMethod().fit(phone_small).space_fraction()
        fixed = LosslessZlibMethod(decimals=2).fit(phone_small).space_fraction()
        assert fixed < raw * 0.5
        assert fixed < 0.35

    def test_cell_access_still_decompresses_everything(self, rng):
        x = rng.random((10, 10))
        model = LosslessZlibMethod(decimals=2).fit(x)
        model.reconstruct_cell(0, 0)
        assert model.decompressions == 1
