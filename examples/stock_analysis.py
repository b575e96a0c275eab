#!/usr/bin/env python3
"""Stock-price analysis on a compressed dataset, with visualization.

Reproduces the paper's second scenario: daily closing prices for a few
hundred stocks.  Shows method selection (why DCT is competitive here
but SVDD still wins), and uses the free byproduct the paper's
Appendix A highlights — the 2-d SVD scatter plot — to spot exceptional
stocks that deviate from the market factor.

Run:  python examples/stock_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import SVDDCompressor, rmspe, worst_case_error
from repro.data import stocks_matrix
from repro.lab.methods import DCTMethod, SVDDMethod, SVDMethod
from repro.lab.viz import ascii_scatter, outlier_rows, scatter_coordinates


def compare_methods(prices: np.ndarray) -> None:
    print("=== method comparison at 10% space (paper Fig. 6 right) ===")
    for method in (DCTMethod(), SVDMethod(), SVDDMethod()):
        model = method.fit(prices, 0.10)
        error = rmspe(prices, model.reconstruct())
        print(f"  {method.name:6s} RMSPE = {error:.4f}  (s = {model.space_fraction():.1%})")
    print(
        "  (stock prices are correlated random walks, so DCT is competitive\n"
        "   here — unlike on the phone data — but SVDD still wins)\n"
    )


def worst_case(prices: np.ndarray) -> None:
    print("=== worst-case guarantee (paper Table 3) ===")
    model = SVDDCompressor(budget_fraction=0.10).fit(prices)
    max_abs, normalized = worst_case_error(prices, model.reconstruct())
    print(
        f"  worst single-price error: ${max_abs:.2f} "
        f"({normalized:.2%} of a standard deviation)"
    )
    print(f"  outlier prices stored exactly: {model.num_deltas}\n")


def market_map(prices: np.ndarray) -> None:
    print("=== the dataset in 2-d SVD space (paper Fig. 11 right) ===")
    coords = scatter_coordinates(prices, dimensions=2)
    print(ascii_scatter(coords, width=70, height=18))
    exceptional = outlier_rows(coords, z_threshold=3.0)
    print(
        f"\nstocks deviating from the market factor (analyst watch list): "
        f"{exceptional.tolist()}"
    )
    energy = float((coords[:, 0] ** 2).sum() / (coords[:, 1] ** 2).sum())
    print(
        f"PC1 ('the market') carries {energy:.0f}x the energy of PC2 — most\n"
        "stocks follow the general market pattern, as the paper observes.\n"
    )


if __name__ == "__main__":
    prices = stocks_matrix(381)
    print(f"dataset: {prices.shape[0]} stocks x {prices.shape[1]} trading days\n")
    compare_methods(prices)
    worst_case(prices)
    market_map(prices)
    print("done.")
