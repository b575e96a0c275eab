"""Figure 8: absolute cell error vs cells rank-ordered by error, for
plain SVD on 'phone2000' at 10% storage.

The paper plots the first 50,000 cells on a log Y-axis and observes a
steep initial drop: only a few cells approach the worst-case bound —
the fact that makes storing per-cell deltas so effective.  We print the
same series at log-spaced ranks plus concentration statistics.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.core import SVDCompressor
from repro.metrics import error_distribution


def test_fig8_distribution(phone2000, benchmark):
    model = SVDCompressor(budget_fraction=0.10).fit(phone2000)
    recon = model.reconstruct()
    full = error_distribution(phone2000, recon)  # all N*M cells
    dist = full[:50_000]  # the slice the paper plots

    ranks = [0, 9, 99, 999, 4_999, 9_999, 24_999, 49_999]
    rows = [
        [f"{rank + 1}", f"{dist[rank]:.6g}"]
        for rank in ranks
        if rank < dist.size
    ]
    lines = format_table(
        f"Figure 8: rank-ordered absolute errors, SVD @ 10% (k={model.cutoff})",
        ["rank", "abs error"],
        rows,
    )
    total_sq = float((full**2).sum())
    for share in (0.001, 0.01, 0.10):
        count = max(1, int(full.size * share))
        fraction = float((full[:count] ** 2).sum()) / total_sq
        lines.append(
            f"top {share:.1%} of cells carry {fraction:.1%} of the squared error"
        )
    median = float(np.median(full))
    lines.append(f"median cell error {median:.4g} vs max {full[0]:.4g}")
    from repro.lab.viz import ascii_histogram

    lines.append("")
    lines.append(
        ascii_histogram(
            full, bins=12, log_bins=True,
            title="cell-error histogram (log bins):",
        )
    )
    emit("fig8_error_distribution", lines)

    # The steep-drop phenomenon: a sharp fall over the first ranks, and a
    # median one-two orders of magnitude below the max (Section 5.1).
    assert dist[0] / max(dist[min(999, dist.size - 1)], 1e-12) > 5
    assert full[0] / max(median, 1e-12) > 100

    benchmark(lambda: error_distribution(phone2000, recon, top=50_000))
