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

and over the selected rows ``W`` to the trace ``trace(G W^t W)``: one
``k x k`` GEMM and an elementwise product, not a three-operand einsum.

Delta corrections fold in through the sorted
:class:`~repro.core.delta_index.DeltaIndex`: the deltas inside the
selection are read off its row offsets — the selected rows' key runs,
masked by column, O(|R| + r) for |R| selected rows holding r deltas,
whatever the index's size (see
:meth:`~repro.core.delta_index.DeltaIndex.select`) — each shifting the
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

``min``/``max`` need per-cell values: the planner streams them.
"""

from __future__ import annotations

import numpy as np

from repro.obs.registry import registry as _obs
from repro.obs.tracing import span as _span
from repro.query.backend import Backend, as_backend
from repro.query.components import Components, finalize

#: Aggregates the factor path can answer without per-cell values.
FACTOR_FUNCTIONS = ("sum", "avg", "count", "stddev")


def factor_aggregate(
    source,
    row_idx: np.ndarray,
    col_idx: np.ndarray,
    function: str,
    fold_deltas: bool = True,
) -> tuple[float, int] | None:
    """Evaluate sum/avg/count/stddev in factor space.

    ``source`` is any engine data source (or an already resolved
    :class:`~repro.query.backend.Backend`).  Returns ``(value,
    rows_fetched)`` — ``rows_fetched`` counts the real U-row fetches
    performed (non-zero only for disk-resident backends) — or None if
    the backend or function does not support the fast path.

    ``fold_deltas=False`` skips the delta fold entirely and answers
    from the SVD factors alone — the planner's ``svd`` route: the
    paper's rank-k approximation, stamped with its stored RMSPE
    estimate instead of the delta-corrected value.

    Its three phases are the spans ``query.factor.gather``, ``.gemm``
    and ``.delta`` while telemetry is enabled, and plain calls otherwise.
    """
    backend = source if isinstance(source, Backend) else as_backend(source)
    if function not in FACTOR_FUNCTIONS or backend.factors is None:
        return None

    count = int(row_idx.size) * int(col_idx.size)
    if function == "count":
        # Pure arithmetic on the selection geometry: no factor gather,
        # hence no row fetches.
        return finalize(function, Components(count=count)), 0

    need_squares = function == "stddev"
    cols = getattr(col_idx, "idx", col_idx)  # an Ascending's array
    if not _obs.enabled:
        scaled_u, v, index, rows_fetched = backend.factors(row_idx)
        total, total_sq = _project(scaled_u, v, cols, need_squares)
        if fold_deltas and index is not None and len(index) > 0:
            total, total_sq = _fold(
                index, row_idx, col_idx, scaled_u, v, total, total_sq, need_squares
            )
    else:
        with _span("query.factor.gather", rows=int(row_idx.size)):
            scaled_u, v, index, rows_fetched = backend.factors(row_idx)
        with _span("query.factor.gemm"):
            total, total_sq = _project(scaled_u, v, cols, need_squares)
        if fold_deltas and index is not None and len(index) > 0:
            with _span("query.factor.delta", stored=len(index)):
                total, total_sq = _fold(
                    index, row_idx, col_idx, scaled_u, v, total, total_sq, need_squares
                )
    return finalize(function, Components(total, total_sq, count=count)), rows_fetched


def _project(
    scaled_u: np.ndarray, v: np.ndarray, cols: np.ndarray, need_squares: bool
) -> tuple[float, float]:
    """The selection's sum (and sum of squares) over the bare factors."""
    v_sel = v.take(cols, axis=0)  # (m_sel, k)
    # np.add.reduce is ndarray.sum's own loop, without its Python wrapper.
    row_sums = scaled_u @ np.add.reduce(v_sel, axis=0)  # (n,)
    total = float(np.add.reduce(row_sums))
    if not need_squares:
        return total, 0.0
    gram = v_sel.T @ v_sel  # (k, k)
    return total, float(np.add.reduce(gram * (scaled_u.T @ scaled_u), axis=None))


def _fold(index, row_idx, col_idx, scaled_u, v, total, total_sq, need_squares):
    """``(total, total_sq)`` with the selection's deltas folded in."""
    if not need_squares:
        return total + index.select_sum(row_idx, col_idx), total_sq
    row_pos, _col_pos, _rows, delta_cols, values = index.select(row_idx, col_idx)
    if values.size:
        total += float(np.add.reduce(values))
        base = np.einsum(
            "ik,ik->i",
            scaled_u.take(row_pos, axis=0),
            v.take(delta_cols, axis=0),
        )
        total_sq += float(np.add.reduce(2.0 * base * values + values * values))
    return total, total_sq
