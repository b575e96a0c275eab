"""Tests for SVD-space visualization (paper Appendix A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SVDCompressor
from repro.exceptions import ConfigurationError
from repro.lab.viz import ascii_scatter, outlier_rows, scatter_coordinates


class TestCoordinates:
    def test_shape(self, stocks_small):
        coords = scatter_coordinates(stocks_small, dimensions=2)
        assert coords.shape == (stocks_small.shape[0], 2)

    def test_accepts_fitted_model(self, stocks_small):
        model = SVDCompressor(k=3).fit(stocks_small)
        coords = scatter_coordinates(model, dimensions=2)
        assert np.allclose(coords, model.project_rows(2))

    def test_first_axis_carries_most_energy(self, stocks_small):
        """Fig. 11b: points hug the first (market) axis."""
        coords = scatter_coordinates(stocks_small)
        energy_x = float((coords[:, 0] ** 2).sum())
        energy_y = float((coords[:, 1] ** 2).sum())
        assert energy_x > 10 * energy_y

    def test_distance_preservation(self, rng):
        """Projection onto all components preserves pairwise distances."""
        x = rng.standard_normal((30, 6))
        coords = scatter_coordinates(x, dimensions=6)
        original = np.linalg.norm(x[3] - x[17])
        projected = np.linalg.norm(coords[3] - coords[17])
        assert projected == pytest.approx(original, rel=1e-8)

    def test_invalid_dimensions(self, stocks_small):
        with pytest.raises(ConfigurationError):
            scatter_coordinates(stocks_small, dimensions=0)


class TestOutliers:
    def test_planted_outlier_found(self, rng):
        coords = rng.standard_normal((200, 2))
        coords[13] = [500.0, 500.0]
        assert 13 in outlier_rows(coords)

    def test_uniform_cloud_has_few_outliers(self, rng):
        coords = rng.standard_normal((500, 2))
        assert outlier_rows(coords).size <= 5

    def test_degenerate_single_point_cloud(self):
        coords = np.zeros((10, 2))
        assert outlier_rows(coords).size == 0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            outlier_rows(np.empty((0, 2)))


class TestAsciiScatter:
    def test_renders_and_contains_points(self, rng):
        coords = rng.standard_normal((100, 2))
        plot = ascii_scatter(coords, width=40, height=12)
        lines = plot.split("\n")
        assert len(lines) == 12 + 3  # header + top/bottom borders
        assert any(ch in line for line in lines for ch in ".:+#@")

    def test_outliers_marked(self, rng):
        coords = rng.standard_normal((300, 2))
        coords[0] = [100.0, 100.0]
        plot = ascii_scatter(coords, width=40, height=12)
        assert "@" in plot

    def test_header_reports_ranges(self, rng):
        coords = rng.standard_normal((10, 2))
        plot = ascii_scatter(coords, width=30, height=8)
        assert "PC1" in plot and "PC2" in plot and "n=10" in plot

    def test_too_small_canvas_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            ascii_scatter(rng.standard_normal((5, 2)), width=4, height=2)

    def test_1d_coords_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            ascii_scatter(rng.standard_normal(10))

    def test_single_point(self):
        plot = ascii_scatter(np.array([[1.0, 1.0]]), width=10, height=5)
        assert "n=1" in plot


class TestAsciiHistogram:
    def test_basic_render(self, rng):
        from repro.lab.viz import ascii_histogram

        text = ascii_histogram(rng.random(500), bins=5, title="errors")
        lines = text.split("\n")
        assert lines[0] == "errors"
        assert len(lines) == 6
        assert "#" in text

    def test_counts_sum_to_total(self, rng):
        from repro.lab.viz import ascii_histogram

        text = ascii_histogram(rng.random(200), bins=4)
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.split("\n")]
        assert sum(counts) == 200

    def test_log_bins_span_orders_of_magnitude(self, rng):
        from repro.lab.viz import ascii_histogram

        values = 10.0 ** rng.uniform(-3, 3, size=300)
        text = ascii_histogram(values, bins=6, log_bins=True)
        assert "0.001" in text or "0.00" in text

    def test_validation(self, rng):
        from repro.exceptions import ConfigurationError
        from repro.lab.viz import ascii_histogram

        with pytest.raises(ConfigurationError):
            ascii_histogram(np.array([]))
        with pytest.raises(ConfigurationError):
            ascii_histogram(rng.random(5), bins=0)
        with pytest.raises(ConfigurationError):
            ascii_histogram(-rng.random(5), log_bins=True)
