"""Figure 6: reconstruction error (RMSPE) vs disk storage (s%).

Regenerates both panels — 'phone2000' (left) and 'stocks' (right) —
for the four competitors: hierarchical clustering ('hc'), DCT ('dct'),
plain SVD ('svd') and SVDD ('delta'); plus the gzip lossless reference
point the paper quotes in the same section (s ~ 25% on their data).

Expected shape (paper Section 5.1):
- SVDD best at every s on both datasets;
- SVD and clustering alternate in 2nd/3rd; SVD wins on stocks;
- DCT worst on phone data, far more competitive on stocks;
- SVD and SVDD overlap at very small s (all budget to PCs).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import BUDGET_SWEEP, emit, format_table
from repro.exceptions import BudgetError
from repro.lab.methods import LosslessZlibMethod, standard_methods
from repro.metrics import rmspe


def _sweep(matrix: np.ndarray, name: str) -> list[str]:
    methods = standard_methods()
    header = ["s%"] + [m.name for m in methods]
    rows = []
    for budget in BUDGET_SWEEP:
        cells = [f"{budget:.1%}"]
        for method in methods:
            try:
                model = method.fit(matrix, budget)
                cells.append(f"{rmspe(matrix, model.reconstruct()):.4f}")
            except BudgetError:
                cells.append("n/a")
        rows.append(cells)
    gzip_fraction = LosslessZlibMethod().fit(matrix).space_fraction()
    cents_fraction = LosslessZlibMethod(decimals=2).fit(matrix).space_fraction()
    lines = format_table(
        f"Figure 6 ({name}): RMSPE vs space budget", header, rows
    )
    lines.append("")
    lines.append(
        f"gzip (lossless reference): s = {gzip_fraction:.1%} on raw float64; "
        f"s = {cents_fraction:.1%} on fixed-point cents "
        f"(the paper's dollar-amount data was effectively the latter: ~25%)"
    )
    return lines


def test_fig6_phone(phone2000, benchmark):
    lines = _sweep(phone2000, "phone2000")
    emit("fig6_phone2000", lines)

    from repro.core import SVDDCompressor

    benchmark(lambda: SVDDCompressor(budget_fraction=0.10).fit(phone2000))


def test_fig6_stocks(stocks381, benchmark):
    lines = _sweep(stocks381, "stocks")
    emit("fig6_stocks", lines)

    from repro.core import SVDDCompressor

    benchmark(lambda: SVDDCompressor(budget_fraction=0.10).fit(stocks381))


def test_fig6_shape_assertions(phone2000, stocks381, benchmark):
    """The qualitative orderings the paper reports, asserted at s=10%."""
    from repro.lab.methods import DCTMethod, SVDDMethod, SVDMethod

    budget = 0.10
    phone_errors = {
        m.name: rmspe(phone2000, m.fit(phone2000, budget).reconstruct())
        for m in (SVDDMethod(), SVDMethod(), DCTMethod())
    }
    assert phone_errors["delta"] <= phone_errors["svd"] < phone_errors["dct"]

    stocks_errors = {
        m.name: rmspe(stocks381, m.fit(stocks381, budget).reconstruct())
        for m in (SVDDMethod(), SVDMethod(), DCTMethod())
    }
    assert stocks_errors["delta"] <= stocks_errors["svd"]
    # DCT is competitive on stocks: within a small factor of SVD, unlike phone.
    assert stocks_errors["dct"] / stocks_errors["svd"] < 5
    assert phone_errors["dct"] / phone_errors["svd"] > 5

    from repro.lab.methods import SVDMethod as _SVDMethod

    benchmark(lambda: _SVDMethod().fit(stocks381, budget))
