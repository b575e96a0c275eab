"""Extension sweep: the full method roster on both datasets.

Extends Fig. 6's four competitors with the rest of the survey's family
tree — DFT and Haar wavelets (Section 2.3 names them), PAA, adaptive
(largest-coefficient) DCT, random projection (the SVD axis ablation)
and k-means VQ — all at the same 10% budget and identical accounting.

Expected shape: SVDD stays first everywhere; adaptive DCT beats prefix
DCT on the periodic/spiky phone data; random projection is far worse
than SVD (the value of data-chosen axes); no row-local method
approaches the cross-row factor methods on phone data.
"""

from __future__ import annotations

from benchmarks.conftest import emit, format_table
from repro.lab.methods import (
    AdaptiveDCTMethod,
    DCTMethod,
    DFTMethod,
    HaarWaveletMethod,
    HierarchicalClusteringMethod,
    KMeansMethod,
    PAAMethod,
    RandomProjectionMethod,
    SVDDMethod,
    SVDMethod,
)
from repro.metrics import rmspe

BUDGET = 0.10


def _roster():
    return [
        SVDDMethod(),
        SVDMethod(),
        HierarchicalClusteringMethod(),
        KMeansMethod(),
        DCTMethod(),
        AdaptiveDCTMethod(),
        DFTMethod(),
        HaarWaveletMethod(),
        PAAMethod(),
        RandomProjectionMethod(),
    ]


def test_extension_methods(phone2000, stocks381, benchmark):
    rows = []
    errors: dict[str, dict[str, float]] = {"phone": {}, "stocks": {}}
    for method in _roster():
        cells = [method.name]
        for label, data in (("phone", phone2000), ("stocks", stocks381)):
            model = method.fit(data, BUDGET)
            error = rmspe(data, model.reconstruct())
            errors[label][method.name] = error
            cells.append(f"{error:.4f}")
            cells.append(f"{model.space_fraction():.1%}")
        rows.append(cells)
    lines = format_table(
        f"Extended method roster at s={BUDGET:.0%}",
        ["method", "phone2000", "space", "stocks", "space"],
        rows,
    )
    emit("extension_methods", lines)

    for label in ("phone", "stocks"):
        best = min(errors[label], key=errors[label].get)
        assert best == "delta", (label, errors[label])
    # Adaptivity helps DCT on phone data; random axes are far behind SVD.
    assert errors["phone"]["adct"] < errors["phone"]["dct"]
    assert errors["phone"]["rp"] > 10 * errors["phone"]["svd"]

    benchmark(lambda: AdaptiveDCTMethod().fit(stocks381, BUDGET))
