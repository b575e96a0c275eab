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
no pass over the stored outlier set.

For the persistent :class:`~repro.core.store.CompressedMatrix` the
selected ``U`` rows arrive as one batched, page-coalesced gather
(:meth:`~repro.storage.matrix_store.MatrixStore.read_rows`); those
fetches are real disk work, so :func:`factor_aggregate` reports them
alongside the value and the engine surfaces them in
``QueryResult.rows_fetched``.

:func:`factor_aggregate` returns None for aggregates that genuinely
need per-cell values (min/max), letting the engine fall back to row
streaming.  The engine asserts both paths agree in its tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.delta_index import DeltaIndex
from repro.core.model import SVDDModel, SVDModel
from repro.core.store import CompressedMatrix
from repro.obs.tracing import span as _span

#: Aggregates the factor path can answer without per-cell values.
FACTOR_FUNCTIONS = ("sum", "avg", "count", "stddev")


def _unwrap(backend) -> SVDModel | None:
    """The underlying SVDModel of a supported backend, else None."""
    if isinstance(backend, SVDModel):
        return backend
    if isinstance(backend, SVDDModel):
        return backend.svd
    model = getattr(backend, "model", None)  # the methods adapter
    if isinstance(model, SVDModel):
        return model
    if isinstance(model, SVDDModel):
        return model.svd
    return None


def _delta_index_of(backend) -> DeltaIndex | None:
    """The backend's outlier index, or None when it stores no deltas."""
    if isinstance(backend, CompressedMatrix):
        return backend.delta_index
    if isinstance(backend, SVDDModel):
        return backend.delta_index
    inner = getattr(backend, "model", None)
    if isinstance(inner, SVDDModel):
        return inner.delta_index
    return None


def has_factor_form(backend) -> bool:
    """True when the backend can serve factor-space aggregates.

    A pure predicate — unlike gathering, it performs no disk access, so
    ``QueryEngine.explain`` can plan without executing.
    """
    return isinstance(backend, CompressedMatrix) or _unwrap(backend) is not None


def factor_fetch_count(backend, num_rows: int) -> int:
    """U-row fetches the factor path performs for a ``num_rows`` selection.

    Disk-resident backends pay one page-coalesced row fetch per selected
    row; in-memory models pay none.
    """
    return int(num_rows) if isinstance(backend, CompressedMatrix) else 0


def _gather_factors(backend, row_idx: np.ndarray):
    """Return ``(scaled_u, eigenvalues, v, num_cols, delta_index)`` for
    the selected rows, or None when the backend has no factor form.

    For the persistent :class:`CompressedMatrix`, the selected ``U``
    rows arrive as one :meth:`MatrixStore.read_rows` batch — page reads
    coalesced through the buffer pool — while the pinned
    ``V``/``Lambda`` come from memory.
    """
    if isinstance(backend, CompressedMatrix):
        eigenvalues = backend._eigenvalues
        u_sel = backend._u_store.read_rows(row_idx)[:, : backend.cutoff]
        scaled_u = u_sel * eigenvalues
        return scaled_u, eigenvalues, backend._v, backend.shape[1], backend.delta_index
    svd = _unwrap(backend)
    if svd is None:
        return None
    scaled_u = svd.u[row_idx] * svd.eigenvalues
    return scaled_u, svd.eigenvalues, svd.v, svd.num_cols, _delta_index_of(backend)


def factor_aggregate(
    backend,
    row_idx: np.ndarray,
    col_idx: np.ndarray,
    function: str,
    include_deltas: bool = True,
) -> tuple[float, int] | None:
    """Evaluate sum/avg/count/stddev in factor space.

    Returns ``(value, rows_fetched)`` — ``rows_fetched`` counts the real
    U-row fetches performed (non-zero only for disk-resident backends) —
    or None if the backend or function does not support the fast path.

    ``include_deltas=False`` skips the delta fold entirely and answers
    from the SVD factors alone — the serving tier's brownout mode, where
    the answer is the paper's rank-k approximation with its stored
    RMSPE estimate instead of the delta-corrected value.
    """
    if function not in FACTOR_FUNCTIONS:
        return None
    if not has_factor_form(backend):
        return None

    count = int(row_idx.size) * int(col_idx.size)
    if function == "count":
        # Pure arithmetic on the selection geometry: no factor gather,
        # hence no row fetches.
        return float(count), 0

    with _span("query.factor.gather", rows=int(row_idx.size)):
        gathered = _gather_factors(backend, row_idx)
    if gathered is None:
        return None
    scaled_u, _eigenvalues, v, _num_cols, index = gathered
    rows_fetched = factor_fetch_count(backend, row_idx.size)

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
            row_pos, _col_pos, _rows, delta_cols, values = index.select(
                row_idx, col_idx
            )
            if values.size:
                total += float(values.sum())
                if need_squares:
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
