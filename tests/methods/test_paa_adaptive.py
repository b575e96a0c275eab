"""Tests for PAA, adaptive DCT, and random-projection methods."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lab.methods import (
    AdaptiveDCTMethod,
    DCTMethod,
    PAAMethod,
    RandomProjectionMethod,
    SVDMethod,
)
from repro.metrics import rmspe


class TestPAA:
    def test_constant_rows_exact(self):
        x = np.tile(np.array([[3.0], [7.0]]), (1, 20))
        model = PAAMethod().fit(x, 0.10)
        assert np.allclose(model.reconstruct(), x)

    def test_step_function_with_enough_segments(self):
        x = np.zeros((5, 32))
        x[:, 16:] = 4.0
        model = PAAMethod().fit(x, 0.50)  # 16 segments, boundary at 16
        assert rmspe(x, model.reconstruct()) < 1e-9

    def test_full_budget_exact(self, rng):
        x = rng.standard_normal((6, 15))
        model = PAAMethod().fit(x, 1.0)  # one segment per column
        assert np.allclose(model.reconstruct(), x)

    def test_cell_matches_row(self, stocks_small):
        model = PAAMethod().fit(stocks_small, 0.1)
        for col in (0, 63, 127):
            assert model.reconstruct_cell(3, col) == pytest.approx(
                model.reconstruct_row(3)[col]
            )

    def test_space_within_budget(self, phone_small):
        model = PAAMethod().fit(phone_small, 0.10)
        assert model.space_fraction() <= 0.10 + 1e-12

    def test_segment_means_are_true_means(self, rng):
        x = rng.random((4, 24))
        model = PAAMethod().fit(x, 0.25)  # 6 segments of 4 columns
        recon = model.reconstruct()
        assert recon[0, 0] == pytest.approx(x[0, :4].mean())

    def test_uneven_segment_widths(self, rng):
        x = rng.random((3, 10))
        model = PAAMethod().fit(x, 0.3)  # 3 segments over 10 columns
        assert model.reconstruct().shape == (3, 10)


class TestAdaptiveDCT:
    def test_beats_prefix_dct_on_high_frequency_structure(self, rng):
        """The reason to pay for positions: energy concentrated at
        frequencies beyond the prefix cutoff (e.g. the phone data's
        weekly harmonic).  A pure impulse would not do — its spectrum is
        flat, so no coefficient subset is better than any other."""
        t = np.arange(64)
        x = np.vstack(
            [
                amplitude * np.cos(2 * np.pi * 20 * t / 64)  # high-frequency tone
                + 0.01 * rng.standard_normal(64)
                for amplitude in np.linspace(1, 5, 40)
            ]
        )
        budget = 0.25  # prefix keeps frequencies 0..15, missing the tone
        adaptive = rmspe(x, AdaptiveDCTMethod().fit(x, budget).reconstruct())
        prefix = rmspe(x, DCTMethod().fit(x, budget).reconstruct())
        assert adaptive < prefix / 5

    def test_beats_prefix_dct_on_phone_data(self, phone_small):
        """On the paper's workload shape (weekly periodicity + spikes)
        adaptivity halves prefix DCT's error."""
        budget = 0.10
        adaptive = rmspe(
            phone_small, AdaptiveDCTMethod().fit(phone_small, budget).reconstruct()
        )
        prefix = rmspe(phone_small, DCTMethod().fit(phone_small, budget).reconstruct())
        assert adaptive < prefix

    def test_loses_to_svd_on_shared_structure(self, phone_small):
        """Adaptivity within a row cannot substitute for cross-row axes."""
        budget = 0.10
        adaptive = rmspe(
            phone_small, AdaptiveDCTMethod().fit(phone_small, budget).reconstruct()
        )
        svd = rmspe(phone_small, SVDMethod().fit(phone_small, budget).reconstruct())
        assert svd < adaptive / 3

    def test_coefficients_cost_two_numbers(self, phone_small):
        model = AdaptiveDCTMethod().fit(phone_small, 0.10)
        assert model.space_bytes() == 2 * 8 * phone_small.shape[0] * (
            model.coefficients_per_row
        )
        assert model.space_fraction() <= 0.10 + 1e-12

    def test_smooth_data_equals_prefix_choice(self):
        """On truly low-frequency data both DCT variants pick the same
        coefficients, so adaptive's position overhead makes it worse."""
        t = np.linspace(0, 2 * np.pi, 64)
        x = np.vstack([np.sin(t) * a for a in range(1, 8)])
        budget = 0.25
        adaptive = rmspe(x, AdaptiveDCTMethod().fit(x, budget).reconstruct())
        prefix = rmspe(x, DCTMethod().fit(x, budget).reconstruct())
        assert prefix <= adaptive + 1e-9


class TestRandomProjection:
    def test_deterministic_given_seed(self, stocks_small):
        a = RandomProjectionMethod(seed=1).fit(stocks_small, 0.1)
        b = RandomProjectionMethod(seed=1).fit(stocks_small, 0.1)
        assert np.allclose(a.reconstruct(), b.reconstruct())

    def test_svd_dominates_random_axes(self, phone_small):
        """The ablation's point: data-chosen axes are what SVD buys."""
        budget = 0.10
        random_err = rmspe(
            phone_small, RandomProjectionMethod().fit(phone_small, budget).reconstruct()
        )
        svd_err = rmspe(
            phone_small, SVDMethod().fit(phone_small, budget).reconstruct()
        )
        assert svd_err < random_err / 10

    def test_space_matches_svd_accounting(self, phone_small):
        rp = RandomProjectionMethod().fit(phone_small, 0.10)
        svd = SVDMethod().fit(phone_small, 0.10)
        # Same Eq. 9 formula; SVD's rank truncation may shrink k slightly.
        assert rp.space_bytes() >= svd.space_bytes()
        assert rp.space_fraction() <= 0.10 + 1e-12

    def test_full_rank_projection_exact(self, rng):
        x = rng.standard_normal((200, 10))
        model = RandomProjectionMethod().fit(x, 0.9)  # k = min(...)=10 possible?
        if model.cutoff == 10:
            assert np.allclose(model.reconstruct(), x, atol=1e-8)

    def test_cell_matches_row(self, stocks_small):
        model = RandomProjectionMethod().fit(stocks_small, 0.2)
        assert model.reconstruct_cell(5, 60) == pytest.approx(
            model.reconstruct_row(5)[60]
        )
