#!/usr/bin/env python3
"""DataCube compression (paper Section 6.1).

Compresses a product x store x week sales cube three ways — the two
dimension-collapse groupings the paper describes and 3-mode PCA — and
answers OLAP-style point and slice queries from the compressed forms.

Run:  python examples/datacube_sales.py
"""

from __future__ import annotations

import numpy as np

from repro.lab.cube import CompressedCube, CubeCollapse, Tucker3, tucker3_space_bytes
from repro.metrics import query_error, rmspe


def make_sales_cube(seed: int = 42) -> np.ndarray:
    """Synthetic sales: Zipf product popularity, store sizes, seasonality."""
    rng = np.random.default_rng(seed)
    products, stores, weeks = 80, 20, 52
    popularity = np.sort(rng.pareto(1.5, products) + 0.2)[::-1]
    store_size = rng.random(stores) + 0.5
    season = 1.0 + 0.4 * np.sin(2 * np.pi * np.arange(weeks) / 52.0)
    cube = np.einsum("i,j,k->ijk", popularity, store_size, season) * 100
    cube *= rng.lognormal(0.0, 0.15, size=cube.shape)
    for _ in range(40):  # promotional spikes
        idx = tuple(rng.integers(dim) for dim in cube.shape)
        cube[idx] *= 5.0
    return cube


def main() -> None:
    cube = make_sales_cube()
    budget = 0.10
    total_bytes = cube.size * 8
    print(
        f"sales cube: {cube.shape[0]} products x {cube.shape[1]} stores x "
        f"{cube.shape[2]} weeks ({total_bytes / 1e6:.1f} MB raw), "
        f"budget {budget:.0%}\n"
    )

    print("=== collapse groupings (Section 6.1) ===")
    variants = {
        "product x (store*week)": CubeCollapse((0,), (1, 2)),
        "(product*store) x week": CubeCollapse((0, 1), (2,)),
    }
    models = {}
    for label, collapse in variants.items():
        compressed = CompressedCube(cube, budget, collapse=collapse)
        models[label] = compressed
        shape = collapse.matrix_shape(cube.shape)
        print(
            f"  {label:24s} -> matrix {shape[0]}x{shape[1]}, "
            f"RMSPE {rmspe(cube, compressed.reconstruct()):.4f}"
        )

    print("\n=== 3-mode PCA at matched space ===")
    rank = 1
    while tucker3_space_bytes(cube.shape, (rank + 1,) * 3) <= budget * total_bytes:
        rank += 1
    tucker = Tucker3((rank,) * 3).fit(cube)
    print(
        f"  Tucker ranks ({rank},{rank},{rank}): "
        f"RMSPE {rmspe(cube, tucker.reconstruct()):.4f}, "
        f"space {tucker.space_bytes() / total_bytes:.1%}"
    )

    print("\n=== OLAP point queries from the compressed cube ===")
    best = models["product x (store*week)"]
    for indices in [(0, 0, 0), (5, 10, 25), (79, 19, 51)]:
        actual = cube[indices]
        estimate = best.cell(*indices)
        print(
            f"  sales{indices}: actual {actual:9.2f}, "
            f"approx {estimate:9.2f} (err {query_error(actual, estimate):.2%})"
        )

    print("\n=== slice query: weekly totals for product 5 ===")
    recon = best.reconstruct()
    actual_series = cube[5].sum(axis=0)
    approx_series = recon[5].sum(axis=0)
    worst = max(
        query_error(float(a), float(b))
        for a, b in zip(actual_series, approx_series)
    )
    print(f"  worst weekly-total error across 52 weeks: {worst:.3%}")
    print("\ndone.")


if __name__ == "__main__":
    main()
