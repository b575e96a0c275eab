"""The introduction's economics, as a table.

'When the dataset is very large ... if the data is on tape, such access
is next to impossible.  When the data is all on disk, the cost of disk
storage ... is typically a major concern.'  This bench fits a real SVDD
model, then runs the first-order cost model over the physical designs
the paper discusses — uncompressed on tape/disk, gzip on disk, SVDD on
disk and in memory — for the paper's phone100K scale.

Expected shape: tape and gzip are minutes-per-query (no random access);
raw-on-disk and SVDD-on-disk are both ~1 access (milliseconds), with
SVDD at a tenth the footprint; the footprint reduction is what lets the
dataset move up a tier entirely.
"""

from __future__ import annotations

from benchmarks.conftest import emit, format_table
from repro.core import SVDDCompressor
from repro.lab.costmodel import (
    DISK,
    MEMORY,
    TAPE,
    gzip_design,
    raw_design,
    svdd_design,
)

N, M = 100_000, 366  # the paper's phone100K scale


def test_cost_model(phone2000, benchmark):
    # Fit at bench scale to get realistic k/deltas, then project to 100K
    # (Fig. 10 showed the curves are homogeneous in N).
    model = SVDDCompressor(budget_fraction=0.10).fit(phone2000)
    deltas_at_scale = int(model.num_deltas * (N / phone2000.shape[0]))

    designs = [
        raw_design(N, M, TAPE),
        raw_design(N, M, DISK),
        gzip_design(N, M, DISK, ratio=0.25),
        svdd_design(N, M, model.cutoff, deltas_at_scale, DISK),
        svdd_design(N, M, model.cutoff, deltas_at_scale, MEMORY),
    ]
    rows = []
    latency = {}
    for design in designs:
        cell_ms = design.cell_query_ms()
        agg_ms = design.aggregate_query_ms(rows_touched=10_000)
        latency[design.name] = cell_ms
        rows.append(
            [
                design.name,
                f"{design.total_bytes / 1e6:,.0f} MB",
                f"{cell_ms:,.1f}",
                f"{agg_ms / 1e3:,.1f}",
            ]
        )
    lines = format_table(
        f"First-order query latency by physical design ({N:,} x {M} matrix, "
        f"k={model.cutoff})",
        ["design", "footprint", "cell query ms", "aggregate s (10k rows)"],
        rows,
    )
    lines.append(
        "tape/gzip pay a full stream per ad hoc query; SVDD keeps raw "
        "disk's ~1-access latency at ~10x less space — or fits in memory."
    )
    emit("cost_model", lines)

    assert latency["uncompressed on tape"] > 60_000  # 'next to impossible'
    assert latency["gzip on disk"] > 100 * latency["uncompressed on disk"]
    assert latency["SVDD on disk"] < 2 * latency["uncompressed on disk"]
    assert latency["SVDD on memory"] < latency["SVDD on disk"] / 100

    benchmark(lambda: svdd_design(N, M, model.cutoff, deltas_at_scale, DISK).cell_query_ms())
