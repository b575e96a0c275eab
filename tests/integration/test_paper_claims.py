"""Qualitative claims from the paper's evaluation, checked on the
synthetic stand-in datasets.  Absolute numbers differ from the paper
(our data is synthetic); the *shapes* — who wins, and by what kind of
margin — must hold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SVDCompressor, SVDDCompressor
from repro.lab.methods import (
    DCTMethod,
    HierarchicalClusteringMethod,
    LosslessZlibMethod,
    SVDDMethod,
    SVDMethod,
)
from repro.metrics import rmspe, worst_case_error


class TestFig6Shape:
    """Figure 6: reconstruction error vs space for the four methods."""

    def test_svdd_best_on_phone(self, phone_medium):
        budget = 0.10
        errors = {
            method.name: rmspe(
                phone_medium, method.fit(phone_medium, budget).reconstruct()
            )
            for method in [SVDDMethod(), SVDMethod(), DCTMethod()]
        }
        assert errors["delta"] <= errors["svd"]
        assert errors["svd"] < errors["dct"]

    def test_dct_worst_on_phone(self, phone_small):
        """Phone data has spikes and weekday structure DCT cannot exploit."""
        budget = 0.10
        dct_err = rmspe(phone_small, DCTMethod().fit(phone_small, budget).reconstruct())
        hc_err = rmspe(
            phone_small,
            HierarchicalClusteringMethod().fit(phone_small, budget).reconstruct(),
        )
        svd_err = rmspe(phone_small, SVDMethod().fit(phone_small, budget).reconstruct())
        assert dct_err > svd_err
        assert dct_err > hc_err

    def test_dct_competitive_on_stocks(self, stocks_small):
        """Stock prices are random walks: DCT does far better there."""
        budget = 0.10
        dct_err = rmspe(
            stocks_small, DCTMethod().fit(stocks_small, budget).reconstruct()
        )
        svd_err = rmspe(
            stocks_small, SVDMethod().fit(stocks_small, budget).reconstruct()
        )
        assert dct_err < 3 * svd_err  # same ballpark, unlike the phone case

    def test_svd_beats_clustering_on_stocks(self, stocks_small):
        """Section 5.1 / Appendix A: no natural clusters in stocks."""
        budget = 0.10
        svd_err = rmspe(
            stocks_small, SVDMethod().fit(stocks_small, budget).reconstruct()
        )
        hc_err = rmspe(
            stocks_small,
            HierarchicalClusteringMethod().fit(stocks_small, budget).reconstruct(),
        )
        assert svd_err < hc_err

    def test_error_decreases_with_space_for_all(self, phone_small):
        for method in [SVDDMethod(), SVDMethod(), DCTMethod()]:
            errors = [
                rmspe(phone_small, method.fit(phone_small, s).reconstruct())
                for s in (0.05, 0.10, 0.20)
            ]
            assert errors == sorted(errors, reverse=True), method.name


class TestTable3Shape:
    """Worst-case error: SVD unbounded-ish, SVDD tightly bounded."""

    @pytest.mark.parametrize("budget", [0.10, 0.20])
    def test_svdd_worst_case_far_below_svd(self, phone_medium, budget):
        svd = SVDCompressor(budget_fraction=budget).fit(phone_medium)
        svdd = SVDDCompressor(budget_fraction=budget).fit(phone_medium)
        _, svd_norm = worst_case_error(phone_medium, svd.reconstruct())
        _, svdd_norm = worst_case_error(phone_medium, svdd.reconstruct())
        assert svdd_norm < svd_norm / 3

    def test_svdd_worst_case_small_in_absolute_terms(self, phone_medium):
        """Paper: 'within 10%' normalized at 10% storage."""
        svdd = SVDDCompressor(budget_fraction=0.10).fit(phone_medium)
        _, normalized = worst_case_error(phone_medium, svdd.reconstruct())
        assert normalized < 0.60  # vs hundreds-of-percent for plain SVD

    def test_worst_case_improves_with_space(self, phone_small):
        norms = []
        for budget in (0.05, 0.15, 0.25):
            svdd = SVDDCompressor(budget_fraction=budget).fit(phone_small)
            norms.append(worst_case_error(phone_small, svdd.reconstruct())[1])
        assert norms[-1] <= norms[0]


class TestFig8Shape:
    """Per-cell error distribution: steep initial drop."""

    def test_median_orders_below_max(self, phone_medium):
        from repro.metrics import error_distribution

        model = SVDCompressor(budget_fraction=0.10).fit(phone_medium)
        dist = error_distribution(phone_medium, model.reconstruct())
        median = dist[dist.size // 2]
        assert dist[0] / max(median, 1e-12) > 100

    def test_top_errors_concentrated(self, phone_medium):
        """A tiny fraction of cells carries most of the squared error."""
        from repro.metrics import error_distribution

        model = SVDCompressor(budget_fraction=0.10).fit(phone_medium)
        dist = error_distribution(phone_medium, model.reconstruct())
        total_sq = float((dist**2).sum())
        top_one_percent = float((dist[: dist.size // 100] ** 2).sum())
        assert top_one_percent / total_sq > 0.5


class TestScaleUpShape:
    """Figure 10 / Table 4: RMSPE flat in N; SVD worst-case grows, SVDD flat."""

    def test_rmspe_roughly_constant_in_n(self):
        from repro.data import phone_matrix

        errors = []
        for n in (300, 600, 1200):
            data = phone_matrix(n)
            model = SVDDCompressor(budget_fraction=0.10).fit(data)
            errors.append(rmspe(data, model.reconstruct()))
        assert max(errors) / min(errors) < 2.0

    def test_svdd_worst_case_flat_while_svd_grows(self):
        from repro.data import phone_matrix

        svd_norms, svdd_norms = [], []
        for n in (300, 1200):
            data = phone_matrix(n)
            svd = SVDCompressor(budget_fraction=0.10).fit(data)
            svdd = SVDDCompressor(budget_fraction=0.10).fit(data)
            svd_norms.append(worst_case_error(data, svd.reconstruct())[1])
            svdd_norms.append(worst_case_error(data, svdd.reconstruct())[1])
        # SVDD stays bounded while SVD's worst case is much larger at scale.
        assert svdd_norms[-1] < svd_norms[-1] / 3


class TestGzipReference:
    def test_lossless_cannot_reach_svdd_ratios(self, phone_medium):
        """Section 5.1's reference point: gzip is far from 40:1 on this data
        while SVDD reaches 10:1 with small error."""
        gzip_fraction = LosslessZlibMethod().fit(phone_medium).space_fraction()
        svdd = SVDDCompressor(budget_fraction=0.10).fit(phone_medium)
        assert svdd.space_fraction() < gzip_fraction
