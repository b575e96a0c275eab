"""Section 6.1: DataCube compression — collapse choices vs 3-mode PCA.

The paper describes two ways to compress a productid x storeid x weekid
cube: collapse two dimensions into one and run SVD/SVDD on the
resulting matrix (either grouping), or use 3-mode PCA; comparing them
is listed as an open question.  This bench runs all three on a
synthetic sales cube at matched space and reports errors.

Expected shape: the most-square collapse compresses at least as well as
the more skewed one (the paper's heuristic), and every variant keeps
cell-level access.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.lab.cube import CompressedCube, CubeCollapse, Tucker3, tucker3_space_bytes
from repro.metrics import rmspe


def _sales_cube() -> np.ndarray:
    """A product x store x week cube with seasonal and popularity structure."""
    rng = np.random.default_rng(61)
    products, stores, weeks = 60, 24, 52
    popularity = np.sort(rng.pareto(1.5, products) + 0.2)[::-1]
    store_size = rng.random(stores) + 0.5
    season = 1.0 + 0.4 * np.sin(2 * np.pi * np.arange(weeks) / 52.0)
    base = np.einsum("i,j,k->ijk", popularity, store_size, season) * 100
    noise = rng.lognormal(0.0, 0.15, size=base.shape)
    cube = base * noise
    # A few promotional spikes (the cube's outliers).
    for _ in range(30):
        i, j, k = rng.integers(products), rng.integers(stores), rng.integers(weeks)
        cube[i, j, k] *= 6.0
    return cube


def test_cube_compression(benchmark):
    cube = _sales_cube()
    budget = 0.10
    total_bytes = cube.size * 8

    collapses = {
        "product x (store*week)": CubeCollapse((0,), (1, 2)),
        "(product*store) x week": CubeCollapse((0, 1), (2,)),
        "auto (most square)": None,
    }
    rows = []
    errors = {}
    for label, collapse in collapses.items():
        compressed = CompressedCube(cube, budget, collapse=collapse)
        error = rmspe(cube, compressed.reconstruct())
        errors[label] = error
        shape = compressed.collapse.matrix_shape(cube.shape)
        rows.append(
            [
                label,
                f"{shape[0]}x{shape[1]}",
                f"{compressed.space_bytes() / total_bytes:.1%}",
                f"{error:.4f}",
            ]
        )

    # 3-mode PCA at (approximately) the same space.
    rank = 1
    while tucker3_space_bytes(cube.shape, (rank + 1,) * 3) <= budget * total_bytes:
        rank += 1
    tucker = Tucker3((rank,) * 3).fit(cube)
    tucker_err = rmspe(cube, tucker.reconstruct())
    rows.append(
        [
            f"3-mode PCA r={rank}",
            "x".join(str(s) for s in cube.shape),
            f"{tucker.space_bytes() / total_bytes:.1%}",
            f"{tucker_err:.4f}",
        ]
    )
    lines = format_table(
        f"Section 6.1: cube compression at s={budget:.0%} "
        f"({cube.shape[0]}x{cube.shape[1]}x{cube.shape[2]} sales cube)",
        ["method", "matrix", "space", "RMSPE"],
        rows,
    )
    emit("cube", lines)

    # Access stays cell-level for every variant.
    auto = CompressedCube(cube, budget)
    assert abs(auto.cell(3, 4, 5) - cube[3, 4, 5]) < cube.std() * 3
    assert abs(tucker.reconstruct_cell(3, 4, 5) - cube[3, 4, 5]) < cube.std() * 3

    benchmark(lambda: CompressedCube(cube, budget).cell(1, 2, 3))
