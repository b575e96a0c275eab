"""Pricing primitives for the query planner.

The planner's cost of a route is first-order, like the paper's own
reasoning: an I/O term (logical pages touched, priced through a
:class:`StorageTier`) plus a CPU term (a flop count scaled by a fixed
per-element cost).  The absolute milliseconds are estimates; what the
planner needs — and what CI's traced-``adhoc_agg`` guard asserts — is
that the *ranking* of routes by predicted cost matches the ranking by
measured latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "CostParams",
    "DISK",
    "MEMORY",
    "StorageTier",
    "flops_ms",
    "page_read_ms",
]


@dataclass(frozen=True)
class StorageTier:
    """A storage medium's first-order performance parameters.

    Attributes:
        name: label for reports.
        seek_ms: average positioning latency per random access, in
            milliseconds (tape: rewind/wind to offset; disk: seek +
            rotational delay; memory: ~0).
        mb_per_s: sequential transfer rate.
        random_access: whether the medium supports random positioning
            at per-access cost (False for tape, where any access
            effectively streams from the current position).
    """

    name: str
    seek_ms: float
    mb_per_s: float
    random_access: bool = True

    def __post_init__(self) -> None:
        if self.seek_ms < 0 or self.mb_per_s <= 0:
            raise ConfigurationError(
                f"invalid tier parameters: seek {self.seek_ms} ms, "
                f"{self.mb_per_s} MB/s"
            )

    def access_ms(self, num_bytes: int) -> float:
        """Latency of one random access reading ``num_bytes``."""
        return self.seek_ms + num_bytes / (self.mb_per_s * 1e6) * 1e3


#: 1997-flavoured reference tiers (orders of magnitude are what matter).
DISK = StorageTier("disk", seek_ms=12.0, mb_per_s=10.0)
MEMORY = StorageTier("memory", seek_ms=0.0001, mb_per_s=500.0)


@dataclass(frozen=True)
class CostParams:
    """Knobs of the planner's pricing model.

    Attributes:
        tier: the medium every priced page access lands on.
            Disk-resident stores default to :data:`DISK`; mmap'd and
            in-memory backends to :data:`MEMORY`.
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


def page_read_ms(params: CostParams, pages: int, page_bytes: int) -> float:
    """Price ``pages`` logical page accesses, each a seek + transfer on
    the params' tier.

    ``pages`` is the *logical* count (what ``QueryProfile.pages_read``
    measures).  A gather never consults the buffer pool, so no hit rate
    discounts it.
    """
    if pages <= 0:
        return 0.0
    return pages * params.tier.access_ms(page_bytes)


def flops_ms(count: float, ns_per_term: float) -> float:
    """CPU term: ``count`` vectorized operations at ``ns_per_term``."""
    return max(count, 0.0) * ns_per_term / 1e6
