"""Pricing primitives for the query planner.

The planner's cost of a route is first-order, like the paper's own
reasoning: an I/O term (logical pages touched, priced through a
:class:`~repro.costmodel.StorageTier`) plus a CPU term (a flop count
scaled by a fixed per-element cost).  The absolute milliseconds are
estimates; what the planner needs — and what
``benchmarks/bench_planner.py`` asserts — is that the *ranking* of
routes by predicted cost matches the ranking by measured latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel import DISK, MEMORY, StorageTier

__all__ = ["CostParams", "page_read_ms", "flops_ms"]


@dataclass(frozen=True)
class CostParams:
    """Knobs of the planner's pricing model.

    Attributes:
        tier: where a buffer-pool *miss* lands.  Disk-resident stores
            default to :data:`~repro.costmodel.DISK`; mmap'd and
            in-memory backends to :data:`~repro.costmodel.MEMORY`.
        ns_per_cell: CPU cost of touching one value in a vectorized
            kernel (streamed reconstruction, rollup finalization).
        ns_per_factor_term: CPU cost of one multiply-add in the factor
            GEMM (``|R| * k`` terms for a sum, ``|R| * k * k`` extra
            for a stddev Gram).
        summary_floor_ms: flat cost of opening the rollup arrays —
            keeps the summary route's price nonzero so a free route
            (count) can still undercut it.
        factor_floor_ms: fixed setup of the factor path (two small
            GEMM dispatches).
        stream_floor_ms: fixed setup of the blocked streaming path —
            deliberately the largest floor, since the block loop pays
            interpreter overhead the one-shot GEMM routes do not.  The
            floors encode the measured small-query ordering (summary <
            factor < stream) that per-element terms alone cannot see.
    """

    tier: StorageTier = MEMORY
    ns_per_cell: float = 1.0
    ns_per_factor_term: float = 2.0
    summary_floor_ms: float = 0.001
    factor_floor_ms: float = 0.002
    stream_floor_ms: float = 0.01

    @staticmethod
    def for_backend(mapped_or_memory: bool) -> "CostParams":
        """Default params: DISK pricing for paged stores, MEMORY for
        mmap'd or in-memory backends (their pages are page cache)."""
        return _MEMORY_PARAMS if mapped_or_memory else _DISK_PARAMS


# The two defaults every plan prices with: built once, not per plan.
_MEMORY_PARAMS = CostParams(tier=MEMORY)
_DISK_PARAMS = CostParams(tier=DISK)


def page_read_ms(
    params: CostParams, pages: int, page_bytes: int, hit_rate: float = 0.0
) -> float:
    """Price ``pages`` logical page accesses.

    The fraction ``hit_rate`` expected to be served from memory costs a
    memory access; the rest pay the tier's seek + transfer.  ``pages``
    is the *logical* count (what ``QueryProfile.pages_read`` measures).
    The planner prices every route's gather at the default: a gather
    never consults the buffer pool, so the pool's hit rate says nothing
    about it.
    """
    if pages <= 0:
        return 0.0
    hit_rate = min(max(hit_rate, 0.0), 1.0)
    misses = pages * (1.0 - hit_rate)
    hits = pages - misses
    return misses * params.tier.access_ms(page_bytes) + hits * MEMORY.access_ms(
        page_bytes
    )


def flops_ms(count: float, ns_per_term: float) -> float:
    """CPU term: ``count`` vectorized operations at ``ns_per_term``."""
    return max(count, 0.0) * ns_per_term / 1e6
