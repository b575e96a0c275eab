"""Ablation: storage precision of the factor matrices.

The paper charges 'b bytes of storage space for each number stored'
without fixing b.  A deployed system has a real choice: float64 (b=8)
or float32 (b=4) factors.  At the same *byte* budget relative to
float64 raw data, b=4 admits roughly twice the principal components,
and float32's ~1e-7 relative quantization noise is invisible next to
truncation error.  This bench measures the trade on phone2000.

Expected shape: b=4 at the same byte budget strictly improves RMSPE
(more components), while float32 storage of the b=4 model changes its
error only in the 4th+ significant digit.
"""

from __future__ import annotations

from benchmarks.conftest import emit, format_table
from repro.core import SVDDCompressor, build_compressed
from repro.metrics import rmspe

BUDGETS = (0.02, 0.05, 0.10)


def test_ablation_precision(tmp_path_factory, phone2000, benchmark):
    root = tmp_path_factory.mktemp("precision")
    rows = []
    improvements = []
    for budget in BUDGETS:
        model_b8 = SVDDCompressor(budget_fraction=budget, bytes_per_value=8).fit(
            phone2000
        )
        err_b8 = rmspe(phone2000, model_b8.reconstruct())
        # Evaluate the b=4 model through its float32 built form, so
        # quantization noise is included honestly.
        model_b4 = build_compressed(
            phone2000,
            root / f"m4_{int(budget * 1000)}",
            compressor=SVDDCompressor(
                budget_fraction=budget, bytes_per_value=4, raw_bytes_per_value=8
            ),
        )
        err_b4 = rmspe(phone2000, model_b4.reconstruct_all())
        model_b4.close()
        improvements.append(err_b8 / err_b4)
        rows.append(
            [
                f"{budget:.0%}",
                f"{model_b8.cutoff}/{model_b8.num_deltas}",
                f"{err_b8:.4f}",
                f"{model_b4.cutoff}/{model_b4.num_deltas}",
                f"{err_b4:.4f}",
            ]
        )
    lines = format_table(
        "Ablation: float64 vs float32 factors at equal byte budgets (phone2000)",
        ["budget", "b=8 k/deltas", "b=8 RMSPE", "b=4 k/deltas", "b=4 RMSPE"],
        rows,
    )
    lines.append(
        "b=4 stores twice the components+deltas per byte; float32 noise "
        "(~1e-7 relative) is invisible at these error levels"
    )
    emit("ablation_precision", lines)

    # More model per byte must not hurt; typically it helps noticeably.
    assert all(ratio >= 0.99 for ratio in improvements)
    assert max(improvements) > 1.1  # and genuinely helps somewhere

    benchmark(
        lambda: SVDDCompressor(
            budget_fraction=0.05, bytes_per_value=4, raw_bytes_per_value=8
        ).fit(phone2000)
    )
