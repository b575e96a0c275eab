"""Figure 11 (Appendix A): scatter plots of the datasets in 2-d SVD space.

Renders the 'phone2000' and 'stocks' projections as ASCII scatter plots
and reports the outliers a data analyst would flag.  Expected shape:
phone points concentrate near the origin with a few huge-volume
exceptions (Zipf skew); stocks points hug the first (market) axis.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit
from repro.lab.viz import ascii_scatter, outlier_rows, scatter_coordinates


def test_fig11_phone_scatter(phone2000, benchmark):
    coords = scatter_coordinates(phone2000, dimensions=2)
    outliers = outlier_rows(coords)
    lines = [
        "Figure 11 (left): phone2000 in 2-d SVD space",
        "",
        ascii_scatter(coords, width=72, height=20),
        "",
        f"outlier customers (analyst 'distractions'): {outliers.tolist()[:20]}",
    ]
    # Zipf skew: most customers near the origin, a few far out.
    radius = np.sqrt((coords**2).sum(axis=1))
    lines.append(
        f"median radius {np.median(radius):.1f} vs max {radius.max():.1f} "
        f"(ratio {radius.max() / max(np.median(radius), 1e-9):.0f}x)"
    )
    emit("fig11_phone_scatter", lines)

    assert radius.max() / max(float(np.median(radius)), 1e-9) > 10

    benchmark(lambda: scatter_coordinates(phone2000, dimensions=2))


def test_fig11_stocks_scatter(stocks381, benchmark):
    coords = scatter_coordinates(stocks381, dimensions=2)
    lines = [
        "Figure 11 (right): stocks in 2-d SVD space",
        "",
        ascii_scatter(coords, width=72, height=20),
    ]
    # Points hug the first (market) axis.
    energy_ratio = float((coords[:, 0] ** 2).sum() / (coords[:, 1] ** 2).sum())
    lines.append(f"PC1/PC2 energy ratio: {energy_ratio:.0f}x (points hug PC1)")
    emit("fig11_stocks_scatter", lines)

    assert energy_ratio > 10

    benchmark(lambda: scatter_coordinates(stocks381, dimensions=2))
