"""Tests for the spectral compression methods (DCT, DFT, Haar DWT)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.lab.methods import (
    DCTMethod,
    DFTMethod,
    HaarWaveletMethod,
    dct_matrix,
    haar_inverse,
    haar_transform,
)


class TestDCTMatrix:
    def test_orthonormal(self):
        mat = dct_matrix(16)
        assert np.allclose(mat @ mat.T, np.eye(16), atol=1e-12)

    def test_matches_scipy(self, rng):
        x = rng.standard_normal(32)
        ours = dct_matrix(32) @ x
        ref = scipy.fft.dct(x, type=2, norm="ortho")
        assert np.allclose(ours, ref, atol=1e-10)

    def test_size_one(self):
        assert dct_matrix(1) == pytest.approx(np.array([[1.0]]))

    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            dct_matrix(0)


class TestHaar:
    def test_roundtrip(self, rng):
        x = rng.standard_normal(64)
        assert np.allclose(haar_inverse(haar_transform(x)), x, atol=1e-12)

    def test_energy_preserved(self, rng):
        """Orthonormal transform: Parseval holds."""
        x = rng.standard_normal(128)
        coeffs = haar_transform(x)
        assert np.sum(coeffs**2) == pytest.approx(np.sum(x**2))

    def test_constant_signal_is_single_coefficient(self):
        x = np.full(16, 3.0)
        coeffs = haar_transform(x)
        assert coeffs[0] == pytest.approx(3.0 * 4.0)  # sqrt(16) * mean
        assert np.allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            haar_transform(np.ones(12))
        with pytest.raises(ConfigurationError):
            haar_inverse(np.ones(12))

    def test_length_one(self):
        assert haar_transform(np.array([5.0]))[0] == 5.0


@pytest.mark.parametrize(
    "method_cls", [DCTMethod, DFTMethod, HaarWaveletMethod], ids=["dct", "dft", "dwt"]
)
class TestCommonBehaviour:
    def test_space_within_budget(self, method_cls, phone_small):
        model = method_cls().fit(phone_small, 0.10)
        assert model.space_fraction() <= 0.10 + 1e-12

    def test_error_decreases_with_budget(self, method_cls, stocks_small):
        from repro.metrics import rmspe

        errors = [
            rmspe(stocks_small, method_cls().fit(stocks_small, s).reconstruct())
            for s in (0.05, 0.20, 0.50)
        ]
        assert errors == sorted(errors, reverse=True)

    def test_cell_matches_row(self, method_cls, stocks_small):
        model = method_cls().fit(stocks_small, 0.2)
        assert model.reconstruct_cell(3, 17) == pytest.approx(
            model.reconstruct_row(3)[17]
        )

    def test_full_matches_rows(self, method_cls, stocks_small):
        model = method_cls().fit(stocks_small, 0.2)
        full = model.reconstruct()
        assert np.allclose(full[5], model.reconstruct_row(5))

    def test_bounds_checked(self, method_cls, stocks_small):
        from repro.exceptions import QueryError

        model = method_cls().fit(stocks_small, 0.2)
        with pytest.raises(QueryError):
            model.reconstruct_cell(999, 0)


class TestDCTSpecifics:
    def test_full_budget_exact(self, rng):
        x = rng.standard_normal((10, 16))
        model = DCTMethod().fit(x, 1.0)
        assert np.allclose(model.reconstruct(), x, atol=1e-10)

    def test_smooth_data_compresses_well(self):
        """Low-frequency signals survive aggressive truncation."""
        t = np.linspace(0, 2 * np.pi, 64)
        x = np.vstack([np.sin(t + phase) for phase in np.linspace(0, 1, 20)])
        model = DCTMethod().fit(x, 0.10)
        from repro.metrics import rmspe

        assert rmspe(x, model.reconstruct()) < 0.10

    def test_coefficients_per_row(self, phone_small):
        model = DCTMethod().fit(phone_small, 0.10)
        assert model.coefficients_per_row == int(0.10 * phone_small.shape[1])


class TestDFTSpecifics:
    def test_full_budget_exact(self, rng):
        x = rng.standard_normal((6, 20))
        model = DFTMethod().fit(x, 1.0)
        assert np.allclose(model.reconstruct(), x, atol=1e-10)

    def test_complex_coefficients_cost_double(self, phone_small):
        model = DFTMethod().fit(phone_small, 0.10)
        budget_numbers = int(0.10 * phone_small.shape[1])
        assert model.coefficients_per_row <= budget_numbers

    def test_pure_tone_compresses_perfectly(self):
        t = np.arange(64)
        x = np.vstack([np.cos(2 * np.pi * 2 * t / 64) for _ in range(5)])
        model = DFTMethod().fit(x, 0.10)
        assert np.allclose(model.reconstruct(), x, atol=1e-10)


class TestDWTSpecifics:
    def test_full_budget_exact_on_pow2(self, rng):
        x = rng.standard_normal((5, 32))
        model = HaarWaveletMethod().fit(x, 1.0)
        assert np.allclose(model.reconstruct(), x, atol=1e-10)

    def test_handles_non_pow2_width(self, rng):
        x = rng.standard_normal((5, 25))
        model = HaarWaveletMethod().fit(x, 0.5)
        assert model.reconstruct().shape == (5, 25)

    def test_piecewise_constant_compresses_well(self):
        """Haar's sweet spot: step functions."""
        x = np.zeros((10, 64))
        x[:, 32:] = 5.0
        model = HaarWaveletMethod().fit(x, 0.10)
        from repro.metrics import rmspe

        assert rmspe(x, model.reconstruct()) < 0.01


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), log_len=st.integers(1, 7))
def test_property_haar_roundtrip(seed, log_len):
    x = np.random.default_rng(seed).standard_normal(2**log_len)
    assert np.allclose(haar_inverse(haar_transform(x)), x, atol=1e-9)
