"""Aggregate components: the five sufficient statistics of a cell set.

Every aggregate the engine serves (sum/avg/count/min/max/stddev) is a
pure function of ``(total, total_sq, minimum, maximum, count)`` over
the selected cells.  The summary store keeps exactly these per bucket,
the stream route reduces them from reconstructed rows and the factor
route folds them in factor space; all of them, and every group-by
series, finalize through :func:`finalize`, so each answer comes from
the same formulas.
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
    """Sufficient statistics of one cell set, or of each bucket of a
    group-by series (then every field is an array, one entry a bucket,
    and ``count`` a float array)."""

    total: float = 0.0
    total_sq: float = 0.0
    minimum: float = np.inf
    maximum: float = -np.inf
    count: int = 0


def finalize(function: str, comps: Components) -> float | np.ndarray:
    """Evaluate one aggregate from its components: a float for one
    cell set, an array for a group-by series' buckets.

    Every route and every series finalizes here, so a summary-served
    answer, a streamed one and a factor-space one come from the same
    formulas.
    """
    count = comps.count
    if isinstance(count, int) and count == 0:
        raise QueryError("aggregate over an empty selection")
    if function == "sum":
        return comps.total
    if function == "avg":
        return comps.total / count
    if function == "count":
        return 1.0 * count  # a float, as every answer is
    if function == "min":
        return comps.minimum
    if function == "max":
        return comps.maximum
    if function == "stddev":
        mean = comps.total / count
        deviation = np.sqrt(np.maximum(comps.total_sq / count - mean * mean, 0.0))
        return float(deviation) if deviation.ndim == 0 else deviation
    raise QueryError(f"unknown aggregate {function!r}")


def stream_components(
    backend, row_idx: np.ndarray, col_idx: np.ndarray, function: str
) -> Components:
    """Exact components of ``row_idx x col_idx`` by blocked streaming.

    ``backend`` is a resolved :class:`~repro.query.backend.Backend`.
    The stream route's evaluator: the selected cells are reconstructed
    (delta-corrected) in vectorized blocks and reduced on the fly to the
    count and what :func:`finalize` reads for ``function``: a ``min``
    pays for no sum and no squares.
    """
    total = 0.0
    total_sq = 0.0
    minimum = np.inf
    maximum = -np.inf
    count = 0
    size = int(row_idx.size)
    if size == 0 or col_idx.size == 0:
        return Components()
    for start in range(0, size, _STREAM_BLOCK_ROWS):
        # One block is the selection itself, and keeps what was counted on it.
        chunk = row_idx
        if size > _STREAM_BLOCK_ROWS:
            chunk = row_idx[start : start + _STREAM_BLOCK_ROWS]
        block = backend.block(chunk, col_idx)
        # The ufuncs' reduce is what ndarray.sum/min/max run, without their wrappers.
        if function in ("sum", "avg", "stddev"):
            total += float(np.add.reduce(block, axis=None))
        if function == "stddev":
            total_sq += float(np.add.reduce(block * block, axis=None))
        if function == "min":
            minimum = min(minimum, float(np.minimum.reduce(block, axis=None)))
        if function == "max":
            maximum = max(maximum, float(np.maximum.reduce(block, axis=None)))
        count += int(block.size)
    return Components(total, total_sq, minimum, maximum, count)
