"""Ablation: robust SVD (paper future-work item b) vs plain SVD/SVDD.

Scenario: the Appendix A 'distraction' — a handful of extreme customers
tilt plain SVD's axes, degrading everyone else's reconstruction.  We
plant such rows into phone-like data and compare, at a fixed 10% space
budget:

- plain SVD;
- SVDD (standard axes + deltas);
- robust SVD (winsorized axes, no deltas);
- robust SVDD (winsorized axes + deltas).

Expected shape: plain SVD suffers most on the bulk; the winsorized axes
recover bulk accuracy; pairing them with deltas keeps the outliers
accurate too.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.core import SVDCompressor, SVDDCompressor
from repro.lab.robust import RobustSVDCompressor, RobustSVDDCompressor
from repro.data import phone_matrix
from repro.metrics import rmspe


def _contaminated() -> tuple[np.ndarray, np.ndarray]:
    """Phone data with planted whale customers; returns (data, bulk mask)."""
    data = phone_matrix(1500).copy()
    rng = np.random.default_rng(55)
    whales = rng.choice(1500, size=5, replace=False)
    data[whales] = rng.random((5, data.shape[1])) * data.max() * 50
    mask = np.ones(1500, dtype=bool)
    mask[whales] = False
    return data, mask


def test_ablation_robust(benchmark):
    data, bulk = _contaminated()
    budget = 0.10
    fitters = {
        "svd": SVDCompressor(budget_fraction=budget),
        "svdd": SVDDCompressor(budget_fraction=budget),
        "robust-svd": RobustSVDCompressor(budget_fraction=budget, clip_percentile=99),
        "robust-svdd": RobustSVDDCompressor(budget_fraction=budget, clip_percentile=99),
    }
    rows = []
    errors = {}
    for name, fitter in fitters.items():
        model = fitter.fit(data)
        recon = model.reconstruct()
        overall = rmspe(data, recon)
        bulk_err = rmspe(data[bulk], recon[bulk])
        errors[name] = (overall, bulk_err)
        rows.append([name, f"{overall:.4f}", f"{bulk_err:.4f}"])
    lines = format_table(
        "Ablation: robust axes on contaminated phone data @ 10% space",
        ["method", "overall RMSPE", "bulk RMSPE"],
        rows,
    )

    # The tilt matters most when k is small (few axes to spare on whales):
    # repeat the plain-vs-robust comparison at fixed k = 2.
    small_rows = []
    small = {}
    for name, fitter in {
        "svd k=2": SVDCompressor(k=2),
        "robust-svd k=2": RobustSVDCompressor(k=2, clip_percentile=99),
    }.items():
        recon = fitter.fit(data).reconstruct()
        bulk_err = rmspe(data[bulk], recon[bulk])
        small[name] = bulk_err
        small_rows.append([name, f"{rmspe(data, recon):.4f}", f"{bulk_err:.4f}"])
    lines.append("")
    lines.extend(
        format_table(
            "Same data at fixed k=2 (the Appendix A tilt regime)",
            ["method", "overall RMSPE", "bulk RMSPE"],
            small_rows,
        )
    )
    emit("ablation_robust", lines)

    # At generous k the axes have slack for the whales, so plain and
    # robust are comparable; never let robust be materially worse.
    assert errors["robust-svd"][1] <= errors["svd"][1] * 1.10
    # At small k the winsorized axes must fit the bulk strictly better.
    assert small["robust-svd k=2"] < small["svd k=2"]
    # The composed method keeps overall error in SVDD's ballpark.
    assert errors["robust-svdd"][0] <= errors["svdd"][0] * 3

    benchmark(lambda: RobustSVDCompressor(budget_fraction=budget).fit(data))
