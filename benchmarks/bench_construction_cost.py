"""Construction cost: the 3-pass algorithm (Fig. 5) vs the naive loop (Fig. 4).

The paper's algorithmic contribution inside SVDD is factoring the per-k
work into shared passes: 'We can factor out several passes and do the
whole operation in three passes rather than 3 * k_max.'  This bench runs
both constructions on the same on-disk store and reports measured pass
counts and wall time, asserting they produce identical models.  It
also reports how many scores pass 2 binned in its histograms against
the ``sum_k gamma_k`` their cuts keep, and how many histograms its
sampled floors left short (each one costs a refill scan).
"""

from __future__ import annotations

import io
import time

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.core import SVDDCompressor
from repro.lab.naive_svdd import NaiveSVDDCompressor
from repro.data import phone_matrix
from repro.obs import registry, set_log_stream
from repro.storage import MatrixStore

BUDGET = 0.10
ROWS = 800  # naive is ~3*k_max passes; keep it tractable


def test_construction_cost(tmp_path_factory, benchmark):
    root = tmp_path_factory.mktemp("construction")
    data = phone_matrix(ROWS)

    fast_store = MatrixStore.create(root / "fast.mat", data)
    fitter = SVDDCompressor(budget_fraction=BUDGET)
    registry.enable()
    set_log_stream(io.StringIO())
    try:
        start = time.perf_counter()
        fast_model = fitter.fit(fast_store)
        fast_time = time.perf_counter() - start
        admitted = int(registry.gauge("build.pass2.admitted").value)
        short = int(registry.gauge("build.pass2.short_queues").value)
    finally:
        set_log_stream(None)
        registry.disable()
    fast_passes = fast_store.pass_count
    kept = sum(
        fitter._gamma(ROWS, data.shape[1], k) for k in range(1, fast_model.k_max + 1)
    )

    naive_store = MatrixStore.create(root / "naive.mat", data)
    start = time.perf_counter()
    naive_model = NaiveSVDDCompressor(budget_fraction=BUDGET).fit(naive_store)
    naive_time = time.perf_counter() - start
    naive_passes = naive_store.pass_count

    rows = [
        ["Fig. 5 (3-pass)", str(fast_passes), f"{fast_time:.2f}"],
        ["Fig. 4 (naive)", str(naive_passes), f"{naive_time:.2f}"],
    ]
    lines = format_table(
        f"SVDD construction cost on phone{ROWS} at s={BUDGET:.0%} "
        f"(k_max={fast_model.k_max})",
        ["algorithm", "passes over X", "seconds"],
        rows,
    )
    lines.append(
        f"pass ratio: {naive_passes / fast_passes:.1f}x "
        f"(paper predicts ~k_max = {fast_model.k_max}x)"
    )
    lines.append("models identical: same k_opt, same outlier cells")
    lines.append(
        f"pass 2 binned {admitted:,} scores to keep sum_k gamma_k = {kept:,} "
        f"({admitted / kept:.2f}x); short histograms refilled: {short}"
    )
    emit("construction_cost", lines)

    # Identical results...
    assert fast_model.cutoff == naive_model.cutoff
    for got, want in ((fast_model.deltas.row_start, naive_model.deltas.row_start),
                      (fast_model.deltas.cols, naive_model.deltas.cols)):
        assert np.array_equal(got, want)
    # The naive loop's epsilon_k are exact; pass 2's histograms bracket
    # them, to the sums' rounding and at most 2e-3 of epsilon_k wide.
    exact = naive_model.candidate_errors[:, 0]
    low, high = fast_model.candidate_errors.T
    slack = 1e-12 * float((data * data).sum())
    assert np.all((low - slack <= exact) & (exact <= high + slack))
    assert np.all(high - low <= 2e-3 * exact + slack)
    # ...at a fraction of the passes.
    assert fast_passes == 3
    assert naive_passes >= 2 * fast_model.k_max

    fast_store.close()
    naive_store.close()

    benchmark(lambda: SVDDCompressor(budget_fraction=BUDGET).fit(data))
