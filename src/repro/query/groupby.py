"""Grouped aggregates: one result per customer or per day.

The decision-support queries the paper motivates often group rather
than collapse: 'total volume per day across all customers' (a column
profile) or 'total volume per customer over a period' (a row profile).
Both have factor-space evaluations on any backend offering ``factors``
(in-memory SVD/SVDD models and the persistent ``CompressedMatrix``):

- per-row sums over column set S:   ``(U * lambda) @ (sum_{j in S} v_j)``
  — O(N * k);
- per-column sums over row set R:   ``(sum_{i in R} u_i * lambda) @ V^t``
  — O(M * k);

plus a vectorized correction pass over the sorted
:class:`~repro.core.delta_index.DeltaIndex`.  Against non-factor
backends the same API streams blocks of rows.

When the backend carries a materialized summary store
(:class:`repro.summaries.SummaryStore`), full-axis profiles are
answered straight from the persisted rollups — zero ``u.mat`` pages —
and :func:`bucket_series` serves whole dashboard series ("sum by
month", "top customers") the same way, merging a streamed residual
when the store's coverage lags the model after a deferred append.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import QueryError
from repro.obs.registry import registry as _obs
from repro.query.backend import as_backend
from repro.query.selection import Selection
from repro.summaries.compute import S_MAX, S_MIN, S_SUM, S_SUMSQ, bucket_stats
from repro.summaries.compute import level_edges as _level_edges
from repro.summaries.store import GROUP_BY_AXES, _finalize_vector

#: Rows per block when streaming profile residuals.
_PROFILE_BLOCK_ROWS = 512


def row_totals(backend, selection: Selection | None = None) -> np.ndarray:
    """Per-selected-row sums over the selected columns.

    Returns one value per selected row, ordered by row index.  Uses the
    factor-space path when the backend has one, block streaming
    otherwise.
    """
    backend = as_backend(backend)
    row_idx, col_idx = (selection or Selection()).resolve(backend.shape)

    store = backend.summaries
    if store is not None and store.fresh and col_idx.size == backend.shape[1]:
        # Full-width selection: the per-customer profile already holds
        # the delta-corrected answer; no U pages touched.
        return np.asarray(store.row_stats[S_SUM][row_idx], dtype=np.float64).copy()

    if backend.factors is not None:
        scaled_u, v, index, _fetched = backend.factors(row_idx)
        totals = scaled_u @ v[col_idx].sum(axis=0)
        if index is not None and len(index) > 0:
            row_pos, _col_pos, _rows, _cols, values = index.select(row_idx, col_idx)
            np.add.at(totals, row_pos, values)
        return totals

    row_stats, _col_stats = _stream_profiles(backend, row_idx, col_idx)
    return row_stats[S_SUM]


def column_totals(backend, selection: Selection | None = None) -> np.ndarray:
    """Per-selected-column sums over the selected rows.

    Returns one value per selected column, ordered by column index.
    """
    backend = as_backend(backend)
    row_idx, col_idx = (selection or Selection()).resolve(backend.shape)

    store = backend.summaries
    if store is not None and store.fresh and row_idx.size == backend.shape[0]:
        # Full-height selection: answer from the per-day profile.
        return np.asarray(store.col_stats[S_SUM][col_idx], dtype=np.float64).copy()

    if backend.factors is not None:
        scaled_u, v, index, _fetched = backend.factors(row_idx)
        totals = v[col_idx] @ scaled_u.sum(axis=0)
        if index is not None and len(index) > 0:
            _row_pos, col_pos, _rows, _cols, values = index.select(row_idx, col_idx)
            np.add.at(totals, col_pos, values)
        return totals

    _row_stats, col_stats = _stream_profiles(backend, row_idx, col_idx)
    return col_stats[S_SUM]


def top_rows(backend, count: int, selection: Selection | None = None) -> np.ndarray:
    """Indices of the ``count`` largest rows by total over the selection.

    The paper's marketing-analyst question: 'who are our biggest
    customers?'  Evaluated in factor space when possible.
    """
    if count < 1:
        raise QueryError(f"count must be >= 1, got {count}")
    backend = as_backend(backend)
    selection = selection or Selection()
    row_idx, _ = selection.resolve(backend.shape)
    totals = row_totals(backend, selection)
    order = np.argsort(totals)[::-1][:count]
    return row_idx[order]


# -- bucket series (dashboard group-bys) --------------------------------


def _stream_profiles(adapter, row_idx, col_idx):
    """Per-row and per-column 4-stat profiles of one rectangle, streamed.

    Returns ``(row_stats, col_stats)`` of shapes ``(4, len(row_idx))``
    and ``(4, len(col_idx))`` in ``S_SUM/S_SUMSQ/S_MIN/S_MAX`` order.
    This is the residual evaluator for coverage a deferred append left
    behind the summary store.
    """
    rows_n, cols_n = int(row_idx.size), int(col_idx.size)
    row_stats = np.zeros((4, rows_n))
    col_stats = np.zeros((4, cols_n))
    row_stats[S_MIN] = col_stats[S_MIN] = np.inf
    row_stats[S_MAX] = col_stats[S_MAX] = -np.inf
    if rows_n == 0 or cols_n == 0:
        return row_stats, col_stats
    for start in range(0, rows_n, _PROFILE_BLOCK_ROWS):
        chunk = row_idx[start : start + _PROFILE_BLOCK_ROWS]
        block = adapter.block(chunk, col_idx)
        rows = slice(start, start + int(chunk.size))
        row_stats[S_SUM, rows] = block.sum(axis=1)
        row_stats[S_SUMSQ, rows] = (block * block).sum(axis=1)
        row_stats[S_MIN, rows] = block.min(axis=1)
        row_stats[S_MAX, rows] = block.max(axis=1)
        col_stats[S_SUM] += block.sum(axis=0)
        col_stats[S_SUMSQ] += (block * block).sum(axis=0)
        np.minimum(col_stats[S_MIN], block.min(axis=0), out=col_stats[S_MIN])
        np.maximum(col_stats[S_MAX], block.max(axis=0), out=col_stats[S_MAX])
    return row_stats, col_stats


def _merge_stats(left, right):
    """Merge two 4-stat arrays over disjoint cell sets, elementwise."""
    merged = np.empty_like(left)
    merged[S_SUM] = left[S_SUM] + right[S_SUM]
    merged[S_SUMSQ] = left[S_SUMSQ] + right[S_SUMSQ]
    merged[S_MIN] = np.minimum(left[S_MIN], right[S_MIN])
    merged[S_MAX] = np.maximum(left[S_MAX], right[S_MAX])
    return merged


def _combined_col_profile(adapter, store):
    """Full-model per-column profile: summary core + streamed residual."""
    num_rows, num_cols = adapter.shape
    cr, cc = store.covered_rows, store.covered_cols
    full = np.zeros((4, num_cols))
    full[S_MIN] = np.inf
    full[S_MAX] = -np.inf
    full[:, :cc] = np.asarray(store.col_stats, dtype=np.float64)
    if cc < num_cols:  # appended days, covered customers
        _rows, tail = _stream_profiles(
            adapter, np.arange(cr, dtype=np.int64), np.arange(cc, num_cols)
        )
        full[:, cc:] = tail
    if cr < num_rows:  # appended customers, every day
        _rows, below = _stream_profiles(
            adapter, np.arange(cr, num_rows, dtype=np.int64), np.arange(num_cols)
        )
        full = _merge_stats(full, below)
    return full


def _combined_row_profile(adapter, store):
    """Full-model per-row profile: summary core + streamed residual."""
    num_rows, num_cols = adapter.shape
    cr, cc = store.covered_rows, store.covered_cols
    full = np.zeros((4, num_rows))
    full[S_MIN] = np.inf
    full[S_MAX] = -np.inf
    full[:, :cr] = np.asarray(store.row_stats, dtype=np.float64)
    if cc < num_cols:
        tail, _cols = _stream_profiles(
            adapter, np.arange(cr, dtype=np.int64), np.arange(cc, num_cols)
        )
        full[:, :cr] = _merge_stats(full[:, :cr], tail)
    if cr < num_rows:
        below, _cols = _stream_profiles(
            adapter, np.arange(cr, num_rows, dtype=np.int64), np.arange(num_cols)
        )
        full[:, cr:] = below
    return full


def bucket_series(backend, by: str, function: str, limit: int | None = None) -> dict:
    """A whole group-by series: one value per bucket of ``by``.

    ``by`` is a time-hierarchy level (``day``/``week``/``month``/
    ``quarter``/``year`` — buckets of columns) or ``customer`` (one
    bucket per row).  ``function`` is any engine aggregate.  ``limit``
    truncates the series: top-``limit`` by value for ``customer``
    (descending), most recent ``limit`` buckets for time levels.

    Served from the materialized summary store when the backend has a
    fresh one (``path="summary"``, zero ``u.mat`` pages); a stale store
    contributes its core with the uncovered edge streamed and merged
    (``path="summary+stream"``); without a store the whole series is
    streamed (``path="stream"``).  Returns a JSON-ready dict with the
    series, its bucket edges or labels, and the path taken.
    """
    if by not in GROUP_BY_AXES:
        raise QueryError(
            f"unknown group-by axis {by!r}; expected one of {GROUP_BY_AXES}"
        )
    if limit is not None and limit < 1:
        raise QueryError(f"limit must be >= 1, got {limit}")
    adapter = as_backend(backend)
    num_rows, num_cols = adapter.shape
    store = adapter.summaries
    partial = store is not None and not store.fresh
    path = "stream" if store is None else ("summary+stream" if partial else "summary")

    if store is not None and not partial:
        labels_or_edges, values = store.bucket_values(by, function)
    else:
        start_date = store.start_date if store is not None else None
        if by == "customer":
            if store is not None:
                row_stats = _combined_row_profile(adapter, store)
            else:
                row_stats, _cols = _stream_profiles(
                    adapter,
                    np.arange(num_rows, dtype=np.int64),
                    np.arange(num_cols, dtype=np.int64),
                )
            labels_or_edges = np.arange(num_rows, dtype=np.int64)
            counts = np.full(num_rows, float(num_cols))
            values = _finalize_vector(function, row_stats, counts)
        else:
            if store is not None:
                col_stats = _combined_col_profile(adapter, store)
            else:
                _rows, col_stats = _stream_profiles(
                    adapter,
                    np.arange(num_rows, dtype=np.int64),
                    np.arange(num_cols, dtype=np.int64),
                )
            edges = _level_edges(by, num_cols, start_date)
            bucketed = bucket_stats(col_stats, edges)
            counts = np.diff(edges).astype(np.float64) * num_rows
            labels_or_edges, values = edges, _finalize_vector(
                function, bucketed, counts
            )

    if by == "customer":
        labels = labels_or_edges
        if limit is not None and limit < values.size:
            order = np.argsort(values)[::-1][:limit]
            labels, values = labels[order], values[order]
        payload = {"labels": [int(label) for label in labels]}
    else:
        edges = labels_or_edges
        if limit is not None and (edges.size - 1) > limit:
            edges = edges[-(limit + 1) :]
            values = values[-limit:]
        payload = {"edges": [int(edge) for edge in edges]}
    if _obs.enabled:
        _obs.counter(f"groupby.path.{path}").inc()
    return {
        "by": by,
        "function": function,
        "buckets": int(values.size),
        "values": [float(value) for value in values],
        "path": path,
        "partial": partial,
        **payload,
    }
