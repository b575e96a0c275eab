"""Mergeable aggregate components.

Every aggregate the engine serves (sum/avg/count/min/max/stddev) is a
pure function of five sufficient statistics over the selected cells:
``(total, total_sq, minimum, maximum, count)``.  The summary store keeps
exactly these per bucket, and they merge across disjoint cell sets by
addition (min/max by comparison) — which is what lets a query be
answered as *summary-core plus residual*: the covered part comes from
precomputed buckets, the uncovered edge is streamed, and the merged
components finalize to the same answer a full scan would produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import QueryError

__all__ = ["Components", "finalize", "stream_components"]

#: Rows per block when streaming cells (bounds a block's memory at
#: _STREAM_BLOCK_ROWS * |cols| floats while keeping the per-block work
#: one gather + one reduction).
_STREAM_BLOCK_ROWS = 512


@dataclass(frozen=True)
class Components:
    """Sufficient statistics of one disjoint cell set."""

    total: float = 0.0
    total_sq: float = 0.0
    minimum: float = np.inf
    maximum: float = -np.inf
    count: int = 0

    def merge(self, other: "Components") -> "Components":
        """Components of the union of two *disjoint* cell sets."""
        return Components(
            total=self.total + other.total,
            total_sq=self.total_sq + other.total_sq,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
            count=self.count + other.count,
        )


def finalize(function: str, comps: Components) -> float:
    """Evaluate one aggregate from its components.

    Every route finalizes here, so a summary-served answer and a
    streamed answer come from the same formulas.
    """
    if comps.count == 0:
        raise QueryError("aggregate over an empty selection")
    if function == "sum":
        return comps.total
    if function == "avg":
        return comps.total / comps.count
    if function == "count":
        return float(comps.count)
    if function == "min":
        return comps.minimum
    if function == "max":
        return comps.maximum
    if function == "stddev":
        mean = comps.total / comps.count
        variance = max(comps.total_sq / comps.count - mean * mean, 0.0)
        return float(np.sqrt(variance))
    raise QueryError(f"unknown aggregate {function!r}")


def stream_components(
    backend, row_idx: np.ndarray, col_idx: np.ndarray, function: str
) -> Components:
    """Exact components of ``row_idx x col_idx`` by blocked streaming.

    ``backend`` is a resolved :class:`~repro.query.backend.Backend`.
    This is the residual evaluator: the cells a summary bucket does not
    cover are reconstructed (delta-corrected) in vectorized blocks and
    reduced on the fly to the count and what :func:`finalize` reads for
    ``function``: a ``min`` pays for no sum and no squares.
    """
    total = 0.0
    total_sq = 0.0
    minimum = np.inf
    maximum = -np.inf
    count = 0
    if row_idx.size == 0 or col_idx.size == 0:
        return Components()
    for start in range(0, int(row_idx.size), _STREAM_BLOCK_ROWS):
        chunk = row_idx[start : start + _STREAM_BLOCK_ROWS]
        block = backend.block(chunk, col_idx)
        if function in ("sum", "avg", "stddev"):
            total += float(block.sum())
        if function == "stddev":
            total_sq += float((block * block).sum())
        if function == "min":
            minimum = min(minimum, float(block.min()))
        if function == "max":
            maximum = max(maximum, float(block.max()))
        count += int(block.size)
    return Components(total, total_sq, minimum, maximum, count)
