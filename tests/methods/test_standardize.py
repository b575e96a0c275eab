"""Tests for the column-standardization wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import patients_matrix
from repro.exceptions import BudgetError
from repro.lab.methods import (
    DCTMethod,
    SVDDMethod,
    SVDMethod,
    StandardizedMethod,
)
from repro.metrics import rmspe


@pytest.fixture(scope="module")
def records():
    return patients_matrix(500)


def per_column_error(model, data: np.ndarray) -> float:
    """Mean per-column absolute error, each column in its own std units
    — the metric that matters when columns are different quantities."""
    recon = model.reconstruct()
    stds = np.where(data.std(axis=0) > 0, data.std(axis=0), 1.0)
    return float(np.mean(np.abs(recon - data).mean(axis=0) / stds))


class TestCorrectness:
    def test_cell_matches_row(self, records):
        model = StandardizedMethod(SVDMethod()).fit(records, 0.4)
        assert model.reconstruct_cell(7, 3) == pytest.approx(
            model.reconstruct_row(7)[3]
        )

    def test_full_matches_rows(self, records):
        model = StandardizedMethod(SVDMethod()).fit(records, 0.4)
        assert np.allclose(model.reconstruct()[11], model.reconstruct_row(11))

    def test_constant_column_reconstructed_exactly(self, rng):
        x = rng.random((60, 8)) * 10
        x[:, 3] = 42.0  # zero-variance column
        model = StandardizedMethod(SVDMethod()).fit(x, 0.6)
        assert np.allclose(model.reconstruct()[:, 3], 42.0, atol=1e-9)

    def test_low_rank_data_near_exact(self, rng):
        """With enough components for the (standardized) rank, the
        round-trip through standardization is exact."""
        units = np.array([1, 10, 100, 1000, 1, 1, 1, 1, 1, 1], dtype=float)
        low_rank = rng.random((40, 3)) @ rng.random((3, 10))
        x = low_rank * units
        model = StandardizedMethod(SVDMethod()).fit(x, 0.95)
        assert rmspe(x, model.reconstruct()) < 1e-8


class TestBudget:
    def test_statistics_charged_to_budget(self, records):
        model = StandardizedMethod(SVDMethod()).fit(records, 0.4)
        assert model.space_fraction() <= 0.4 + 1e-12
        inner_bytes = model.inner.space_bytes()
        assert model.space_bytes() == inner_bytes + 2 * records.shape[1] * 8

    def test_budget_too_small_for_statistics(self, rng):
        x = rng.random((4, 100))
        # stats cost 2*100*8 = 1600 B; matrix is 4*100*8 = 3200 B;
        # a 40% budget (1280 B) cannot even hold them.
        with pytest.raises(BudgetError):
            StandardizedMethod(SVDMethod()).fit(x, 0.40)


class TestHeterogeneousBenefit:
    def test_improves_per_column_error_on_patients(self, records):
        """The point of standardizing: small-unit columns stop being
        sacrificed to large-unit ones."""
        budget = 0.30
        plain = per_column_error(SVDMethod().fit(records, budget), records)
        standardized = per_column_error(
            StandardizedMethod(SVDMethod()).fit(records, budget), records
        )
        assert standardized < plain

    def test_global_rmspe_may_prefer_plain(self, records):
        """The flip side, stated honestly: global RMSPE is dominated by
        the large-unit columns, which plain SVD prioritizes."""
        budget = 0.30
        plain = rmspe(records, SVDMethod().fit(records, budget).reconstruct())
        standardized = rmspe(
            records,
            StandardizedMethod(SVDMethod()).fit(records, budget).reconstruct(),
        )
        assert plain <= standardized * 1.5  # same ballpark, plain often ahead

    def test_composes_with_any_method(self, records):
        for inner in (SVDDMethod(), DCTMethod()):
            model = StandardizedMethod(inner).fit(records, 0.5)
            assert model.reconstruct().shape == records.shape
            assert model.space_fraction() <= 0.5 + 1e-12

    def test_name_reflects_composition(self):
        assert StandardizedMethod(SVDMethod()).name == "std+svd"
