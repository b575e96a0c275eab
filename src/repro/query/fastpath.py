"""Factor-space aggregate evaluation.

A consequence of the SVD representation the paper does not spell out
but a production system would exploit: aggregates over a selection
``R x S`` of a rank-k model never need the reconstructed cells.

    sum over (i in R, j in S) of x_hat[i, j]
        = sum_i (u_i * lambda) . (sum_{j in S} v_j)

which is O(|R| * k) work instead of O(|R| * |S| * k).  Sums of squares
(for stddev) reduce similarly through the k x k Gram of the selected
``V`` rows:

    sum_j x_hat[i, j]^2 = (u_i * lambda) G (u_i * lambda)^t,
    G = sum_{j in S} v_j v_j^t

Delta corrections fold in through the sorted
:class:`~repro.core.delta_index.DeltaIndex`: the deltas inside the
selection are located by bisecting each selected row's key slice
(O(|R| log D + c) for |R| selected rows of a D-delta index and c
candidate keys in those rows' column span — see
:meth:`~repro.core.delta_index.DeltaIndex.select`), each shifting the
sum by ``d`` and the sum of squares by ``2 * x_hat[i, j] * d + d^2`` —
no pass over the stored outlier set.  Only ``stddev`` needs to know
where a delta sits; ``sum``/``avg`` fold the deltas' sum alone
(:meth:`~repro.core.delta_index.DeltaIndex.select_sum`: over a time
range one gather of their values, the same float ``select`` gives).

The factors come from the backend's one optional capability,
``factors(row_idx)`` (:mod:`repro.query.backend`).  For the persistent
:class:`~repro.core.store.CompressedMatrix` the selected ``U`` rows
arrive as one batched gather out of the store's mapped view
(:meth:`~repro.storage.matrix_store.MatrixStore.read_rows`); those
fetches are the paper's disk accesses, so :func:`factor_aggregate` reports them
alongside the value and the engine surfaces them in
``QueryResult.rows_fetched``.

:func:`factor_aggregate` returns None for aggregates that genuinely
need per-cell values (min/max), letting the engine fall back to row
streaming.  The engine asserts both paths agree in its tests.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracing import span as _span
from repro.query.backend import as_backend

#: Aggregates the factor path can answer without per-cell values.
FACTOR_FUNCTIONS = ("sum", "avg", "count", "stddev")


def factor_aggregate(
    source,
    row_idx: np.ndarray,
    col_idx: np.ndarray,
    function: str,
    include_deltas: bool = True,
) -> tuple[float, int] | None:
    """Evaluate sum/avg/count/stddev in factor space.

    ``source`` is any engine data source (or an already resolved
    :class:`~repro.query.backend.Backend`).  Returns ``(value,
    rows_fetched)`` — ``rows_fetched`` counts the real U-row fetches
    performed (non-zero only for disk-resident backends) — or None if
    the backend or function does not support the fast path.

    ``include_deltas=False`` skips the delta fold entirely and answers
    from the SVD factors alone — the serving tier's brownout mode, where
    the answer is the paper's rank-k approximation with its stored
    RMSPE estimate instead of the delta-corrected value.
    """
    backend = as_backend(source)
    if function not in FACTOR_FUNCTIONS or backend.factors is None:
        return None

    count = int(row_idx.size) * int(col_idx.size)
    if function == "count":
        # Pure arithmetic on the selection geometry: no factor gather,
        # hence no row fetches.
        return float(count), 0

    with _span("query.factor.gather", rows=int(row_idx.size)):
        scaled_u, v, index, rows_fetched = backend.factors(row_idx)

    need_squares = function == "stddev"
    with _span("query.factor.gemm"):
        v_sel = v[col_idx]  # (m_sel, k)
        col_sum = v_sel.sum(axis=0)  # (k,)
        row_sums = scaled_u @ col_sum  # (n,)
        total = float(row_sums.sum())

        total_sq = 0.0
        if need_squares:
            gram = v_sel.T @ v_sel  # (k, k)
            total_sq = float(np.einsum("nk,kl,nl->", scaled_u, gram, scaled_u))

    if include_deltas and index is not None and len(index) > 0:
        with _span("query.factor.delta", stored=len(index)):
            if not need_squares:
                total += index.select_sum(row_idx, col_idx)
            else:
                row_pos, _col_pos, _rows, delta_cols, values = index.select(
                    row_idx, col_idx
                )
                if values.size:
                    total += float(values.sum())
                    base = np.einsum("ik,ik->i", scaled_u[row_pos], v[delta_cols])
                    total_sq += float((2.0 * base * values + values * values).sum())

    if function == "sum":
        return total, rows_fetched
    if function == "avg":
        return total / count, rows_fetched
    # stddev
    mean = total / count
    variance = max(total_sq / count - mean * mean, 0.0)
    return float(np.sqrt(variance)), rows_fetched
