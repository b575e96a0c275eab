"""Group-by series: one value per customer or per time bucket.

The decision-support queries the paper motivates often group rather
than collapse: 'total volume per customer' or 'total volume per month
across all customers'.  :func:`bucket_series` is the one door for them
(``/groupby?by=customer|day|week|month|quarter|year``); one aggregate
over any selection of rows and days is the planner's
(:class:`~repro.query.engine.QueryEngine`).

Every series comes from a pair of profiles — per customer and per day
— and a calendar anchor, through one :class:`repro.summaries.SummaryStore`.
When the backend carries a fresh store its persisted profiles are used,
zero ``u.mat`` pages; without one (none built yet, or a deferred append
left it stale) the profiles are streamed and anchored where the
directory's summary state recorded.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import QueryError
from repro.obs.registry import registry as _obs
from repro.query.backend import Backend, as_backend
from repro.query.components import Components, finalize
from repro.summaries.compute import S_MAX, S_MIN, S_SUM, S_SUMSQ
from repro.summaries.store import GROUP_BY_AXES, SummaryStore

#: Rows per block when streaming a profile.
_PROFILE_BLOCK_ROWS = 512

#: ``groupby.path.<path>``, bound once.
_PATHS = {path: _obs.bind_counter(f"groupby.path.{path}") for path in ("summary", "stream")}


def _stream_profiles(adapter):
    """Per-row and per-column 4-stat profiles of the whole matrix, streamed.

    Returns ``(row_stats, col_stats)`` of shapes ``(4, rows)`` and
    ``(4, cols)`` in ``S_SUM/S_SUMSQ/S_MIN/S_MAX`` order: a group-by's
    answer on a model without a summary store.
    """
    num_rows, num_cols = adapter.shape
    cols = np.arange(num_cols, dtype=np.int64)
    row_stats = np.zeros((4, num_rows))
    col_stats = np.zeros((4, num_cols))
    row_stats[S_MIN] = col_stats[S_MIN] = np.inf
    row_stats[S_MAX] = col_stats[S_MAX] = -np.inf
    if num_cols == 0:
        return row_stats, col_stats
    for start in range(0, num_rows, _PROFILE_BLOCK_ROWS):
        rows = slice(start, min(start + _PROFILE_BLOCK_ROWS, num_rows))
        block = adapter.block(np.arange(rows.start, rows.stop, dtype=np.int64), cols)
        row_stats[S_SUM, rows] = block.sum(axis=1)
        row_stats[S_SUMSQ, rows] = (block * block).sum(axis=1)
        row_stats[S_MIN, rows] = block.min(axis=1)
        row_stats[S_MAX, rows] = block.max(axis=1)
        col_stats[S_SUM] += block.sum(axis=0)
        col_stats[S_SUMSQ] += (block * block).sum(axis=0)
        np.minimum(col_stats[S_MIN], block.min(axis=0), out=col_stats[S_MIN])
        np.maximum(col_stats[S_MAX], block.max(axis=0), out=col_stats[S_MAX])
    return row_stats, col_stats


def _series(function: str, stats: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """One ``function`` value per bucket of ``(4, buckets)`` stats."""
    return finalize(
        function,
        Components(stats[S_SUM], stats[S_SUMSQ], stats[S_MIN], stats[S_MAX], counts),
    )


def bucket_series(backend, by: str, function: str, limit: int | None = None) -> dict:
    """A whole group-by series: one value per bucket of ``by``.

    ``by`` is a time-hierarchy level (``day``/``week``/``month``/
    ``quarter``/``year`` — buckets of columns) or ``customer`` (one
    bucket per row).  ``function`` is any engine aggregate.  ``limit``
    truncates the series: top-``limit`` by value for ``customer``
    (descending), most recent ``limit`` buckets for time levels.

    Served from the materialized summary store when the backend has
    one (``path="summary"``, zero ``u.mat`` pages); without one the
    whole series is streamed (``path="stream"``), its month/quarter/
    year buckets anchored where the summary store would anchor them
    (:attr:`~repro.query.backend.Backend.start_date`; structural widths
    when none was recorded).  Returns a JSON-ready dict with the
    series, its bucket edges or labels, and the path taken.
    """
    if by not in GROUP_BY_AXES:
        raise QueryError(
            f"unknown group-by axis {by!r}; expected one of {GROUP_BY_AXES}"
        )
    if limit is not None and limit < 1:
        raise QueryError(f"limit must be >= 1, got {limit}")
    adapter = backend if isinstance(backend, Backend) else as_backend(backend)
    num_rows, num_cols = adapter.shape
    store = adapter.summaries
    path = "stream" if store is None else "summary"
    if store is None:
        row_stats, col_stats = _stream_profiles(adapter)
        store = SummaryStore(col_stats, row_stats, adapter.start_date)

    if by == "customer":
        counts = np.full(num_rows, float(num_cols))
        values = _series(function, store.row_stats, counts)
        labels = np.arange(num_rows, dtype=np.int64)
        if limit is not None and limit < values.size:
            order = np.argsort(values)[::-1][:limit]
            labels, values = labels[order], values[order]
        payload = {"labels": labels.tolist()}
    else:
        edges, stats = store.rollup(by)
        counts = (edges[1:] - edges[:-1]).astype(np.float64) * num_rows
        values = _series(function, stats, counts)
        if limit is not None and (edges.size - 1) > limit:
            edges = edges[-(limit + 1) :]
            values = values[-limit:]
        payload = {"edges": edges.tolist()}
    if _obs.enabled:
        _PATHS[path].inc()
    return {
        "by": by,
        "function": function,
        "buckets": int(values.size),
        "values": values.astype(np.float64).tolist(),
        "path": path,
        **payload,
    }
