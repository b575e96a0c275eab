"""Storage-tier cost model — the paper's motivation, made quantitative.

The introduction motivates compression with storage economics: 'if the
data is on tape, such access is next to impossible', and even on disk,
'anything one can do to decrease the amount of disk storage required is
of value'.  This module models those claims as numbers: given a storage
tier's seek latency and transfer rate, it estimates the latency of the
paper's two query classes under each physical design, so the 'why
compress at all' argument becomes a computable table (see
``benchmarks/bench_cost_model.py``).

The model is deliberately first-order — seeks plus transfer, the level
of the paper's own reasoning ('1 or 2 disk accesses versus 1 disk
access ... if the whole file could fit on the disk').
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.plan.cost import DISK, MEMORY, StorageTier


#: The third 1997-flavoured reference tier; the planner prices with the
#: other two, so they live with it.
TAPE = StorageTier("tape", seek_ms=30_000.0, mb_per_s=5.0, random_access=False)


@dataclass(frozen=True)
class PhysicalDesign:
    """One way of laying the dataset out on a tier.

    Attributes:
        name: label for reports.
        tier: where the bytes live.
        total_bytes: footprint of the stored representation.
        cell_access_bytes: bytes a single-cell query must read
            (one block for a paged layout; everything for a format that
            must be decompressed wholesale).
        cell_accesses: random accesses per single-cell query.
        wholesale: the representation must be read (and decoded) in
            full for *any* query — the paper's criticism of gzip.
        flat_aggregate: aggregate cost is one access to the whole
            representation regardless of rows touched — the summary
            route, whose answer lives in precomputed rollups rather
            than in per-row pages.
    """

    name: str
    tier: StorageTier
    total_bytes: int
    cell_access_bytes: int
    cell_accesses: int = 1
    wholesale: bool = False
    flat_aggregate: bool = False

    def cell_query_ms(self) -> float:
        """Estimated latency of one ad hoc cell query."""
        if self.wholesale or not self.tier.random_access:
            # Tape or monolithic compression: stream everything.
            return self.tier.scan_ms(self.total_bytes)
        return self.cell_accesses * self.tier.access_ms(self.cell_access_bytes)

    def aggregate_query_ms(self, rows_touched: int) -> float:
        """Estimated latency of an aggregate touching ``rows_touched`` rows."""
        if self.flat_aggregate:
            # Rollup-served: one read of the (small) summary arrays,
            # zero per-row page fetches.
            return self.tier.access_ms(self.total_bytes)
        if self.wholesale or not self.tier.random_access:
            return self.tier.scan_ms(self.total_bytes)
        # One access per touched row block, amortizing sequential runs
        # as independent accesses (pessimistic for the raw layout,
        # exact for the compressed U store).
        return rows_touched * self.tier.access_ms(self.cell_access_bytes)


def raw_design(num_rows: int, num_cols: int, tier: StorageTier) -> PhysicalDesign:
    """The uncompressed N x M matrix, row-major on ``tier``."""
    return PhysicalDesign(
        name=f"uncompressed on {tier.name}",
        tier=tier,
        total_bytes=num_rows * num_cols * 8,
        cell_access_bytes=num_cols * 8,
    )


def gzip_design(
    num_rows: int, num_cols: int, tier: StorageTier, ratio: float = 0.25
) -> PhysicalDesign:
    """Losslessly compressed (the paper's gzip): wholesale access only."""
    if not 0 < ratio <= 1:
        raise ConfigurationError(f"ratio must be in (0, 1], got {ratio}")
    total = int(num_rows * num_cols * 8 * ratio)
    return PhysicalDesign(
        name=f"gzip on {tier.name}",
        tier=tier,
        total_bytes=total,
        cell_access_bytes=total,
        wholesale=True,
    )


def svdd_design(
    num_rows: int,
    num_cols: int,
    cutoff: int,
    num_deltas: int,
    tier: StorageTier,
) -> PhysicalDesign:
    """The paper's layout: U paged one row per block; V/Lambda/deltas pinned."""
    from repro.core import space

    total = space.svdd_space_bytes(num_rows, num_cols, cutoff, num_deltas)
    return PhysicalDesign(
        name=f"SVDD on {tier.name}",
        tier=tier,
        total_bytes=total,
        cell_access_bytes=max(64, cutoff * 8),  # one U row (one block)
    )


def summary_design(
    num_rows: int, num_cols: int, tier: StorageTier = MEMORY
) -> PhysicalDesign:
    """The materialized summary store: the dashboard-aggregate route.

    Footprint is the marginal profiles (4 stats per customer and per
    day) plus the time-hierarchy rollups — O(N + M), independent of the
    model rank.  A covered aggregate costs one read of these arrays and
    zero ``u.mat`` pages (``aggregate_query_ms`` ignores rows touched),
    which is the cost asymmetry ``repro explain`` reports as
    ``path=summary``.  Cell queries are not served by summaries; pair
    this design with :func:`svdd_design` for them.
    """
    # 4 stats x (rows + cols) marginals; the five time-hierarchy rollup
    # levels (day..year) hold ~1.2 x num_cols buckets between them
    # (day:1 + week:1/7 + month:1/30 + ... sums to about 1.2 per day),
    # each carrying 4 stats plus an edge.
    marginals = (num_rows + num_cols) * 4 * 8
    rollups = int(num_cols * 1.2) * (4 + 1) * 8
    return PhysicalDesign(
        name=f"summaries on {tier.name}",
        tier=tier,
        total_bytes=marginals + rollups,
        cell_access_bytes=marginals + rollups,
        flat_aggregate=True,
    )
