#!/usr/bin/env python3
"""Dataset visualization in SVD space (paper Appendix A).

SVD compression yields the 2-d projection of every time sequence 'for
free'.  This example draws the paper's Fig. 11 for both datasets as
terminal scatter plots, reads off the structure the paper discusses
(Zipf skew in the phone data, the market factor in stocks), and shows
how the scatter outliers relate to SVDD's stored deltas.

Run:  python examples/visualization.py
"""

from __future__ import annotations

import numpy as np

from repro import SVDDCompressor
from repro.data import phone_matrix, stocks_matrix
from repro.lab.viz import ascii_scatter, outlier_rows, scatter_coordinates


def show(name: str, matrix: np.ndarray, commentary: str) -> None:
    coords = scatter_coordinates(matrix, dimensions=2)
    print(f"=== {name} in 2-d SVD space ===")
    print(ascii_scatter(coords, width=70, height=18))
    exceptional = outlier_rows(coords)
    print(f"scatter outliers (rows): {exceptional.tolist()[:15]}")
    print(commentary)
    print()


def outliers_become_deltas(matrix: np.ndarray) -> None:
    """Appendix A's closing point: instead of spending extra principal
    components on the scatter outliers, SVDD stores their deltas."""
    print("=== scatter outliers vs SVDD deltas ===")
    coords = scatter_coordinates(matrix, dimensions=2)
    scatter_rows = set(outlier_rows(coords).tolist())
    model = SVDDCompressor(budget_fraction=0.05).fit(matrix)
    delta_rows = {row for row, _col, _delta in model.outlier_cells()}
    overlap = scatter_rows & delta_rows
    print(
        f"rows flagged by the scatter plot: {len(scatter_rows)}; "
        f"rows holding stored deltas: {len(delta_rows)}; "
        f"overlap: {len(overlap)}"
    )
    print(
        "'Instead of using additional principal components to achieve better\n"
        " approximations for them, it is much cheaper to store their deltas.'\n"
    )


if __name__ == "__main__":
    phone = phone_matrix(2000)
    stocks = stocks_matrix(381)
    show(
        "phone2000",
        phone,
        "Most customers concentrate near the origin with a few huge-volume\n"
        "exceptions — the Zipf-like skew the paper reads off this plot.",
    )
    show(
        "stocks",
        stocks,
        "Points hug the horizontal (market) axis: most stocks follow the\n"
        "general market pattern; the few off-axis points are the analyst's\n"
        "watch list.",
    )
    outliers_become_deltas(phone)
    print("done.")
