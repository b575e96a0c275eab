"""Section 2.3's arbitrary-vector claim, measured.

'The SVD can be applied not only to time sequences, but to any
arbitrary, even heterogeneous, M-dimensional vectors ... In such a
setting, the spectral methods do not apply.'

Workload: synthetic patient records (16 fields with wildly different
units).  We compare SVD, column-standardized SVD, and DCT on the metric
that matters for heterogeneous data — the mean per-column error, each
column measured in its own standard deviations — and measure DCT's
column-order sensitivity directly.

Expected shape: SVD variants far ahead of DCT; standardization improves
the per-column metric; permuting columns moves DCT's error and leaves
SVD's bit-identical.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.data import patients_matrix
from repro.lab.methods import DCTMethod, SVDDMethod, SVDMethod, StandardizedMethod
from repro.metrics import rmspe

BUDGET = 0.30


def _per_column_error(model, data: np.ndarray) -> float:
    recon = model.reconstruct()
    stds = np.where(data.std(axis=0) > 0, data.std(axis=0), 1.0)
    return float(np.mean(np.abs(recon - data).mean(axis=0) / stds))


def test_heterogeneous_vectors(benchmark):
    records = patients_matrix(1500)
    methods = {
        "svd": SVDMethod(),
        "std+svd": StandardizedMethod(SVDMethod()),
        "delta": SVDDMethod(),
        "dct": DCTMethod(),
    }
    rows = []
    per_col = {}
    for name, method in methods.items():
        model = method.fit(records, BUDGET)
        per_col[name] = _per_column_error(model, records)
        rows.append(
            [
                name,
                f"{rmspe(records, model.reconstruct()):.4f}",
                f"{per_col[name]:.4f}",
            ]
        )
    lines = format_table(
        f"Heterogeneous patient records (1500 x 16) at s={BUDGET:.0%}",
        ["method", "global RMSPE", "per-column err (own std units)"],
        rows,
    )

    # Column-order sensitivity: the definitional difference.
    rng = np.random.default_rng(9)
    permutation = rng.permutation(records.shape[1])
    shuffled = records[:, permutation]
    svd_orig = rmspe(records, SVDMethod().fit(records, BUDGET).reconstruct())
    svd_perm = rmspe(shuffled, SVDMethod().fit(shuffled, BUDGET).reconstruct())
    dct_orig = per_col["dct"]
    dct_perm = _per_column_error(DCTMethod().fit(shuffled, BUDGET), shuffled)
    lines.append("")
    lines.append(
        f"column permutation: SVD error {svd_orig:.5f} -> {svd_perm:.5f} "
        f"(invariant); DCT per-column {dct_orig:.4f} -> {dct_perm:.4f} "
        "(order-dependent)"
    )
    emit("heterogeneous", lines)

    assert per_col["svd"] < per_col["dct"] / 2
    assert per_col["std+svd"] < per_col["svd"]
    assert abs(svd_perm - svd_orig) < 1e-9 * max(svd_orig, 1e-12)
    assert abs(dct_perm - dct_orig) > 1e-6

    benchmark(lambda: StandardizedMethod(SVDMethod()).fit(records, BUDGET))
