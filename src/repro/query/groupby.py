"""Group-by series: one value per customer or per time bucket.

The decision-support queries the paper motivates often group rather
than collapse: 'total volume per customer' or 'total volume per month
across all customers'.  :func:`bucket_series` is the one door for them
(``/groupby?by=customer|day|week|month|quarter|year``); one aggregate
over any selection of rows and days is the planner's
(:class:`~repro.query.engine.QueryEngine`).

A series is one of three paths:

- ``summary``: a time level of a ``sum``/``avg``/``count``/``stddev``
  on a backend with a fresh store, bucketed from its persisted per-day
  profile — zero ``u.mat`` pages;
- ``factor``: the same functions on any other backend with a factor
  form, and ``by=customer`` on every one, from the per-day and
  per-customer factor identities
  (:func:`repro.summaries.compute.factor_profile`), computed on the
  backend's first group-by and kept (:attr:`Backend.profiles`);
- ``stream``: ``min``/``max``, and any function on a source with no
  factor form, from a streamed pass over every cell.

A time series off the store is anchored where the directory's summary
state recorded.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import QueryError
from repro.obs.registry import registry as _obs
from repro.query.backend import Backend, as_backend
from repro.query.components import Components, finalize
from repro.query.engine import AGGREGATES
from repro.query.fastpath import FACTOR_FUNCTIONS
from repro.summaries.compute import bucket_stats, level_edges
from repro.summaries.store import GROUP_BY_AXES

#: Rows per block when streaming a profile.
_PROFILE_BLOCK_ROWS = 512

#: ``groupby.path.<path>``, bound once.
_PATHS = {
    path: _obs.bind_counter(f"groupby.path.{path}") for path in ("summary", "factor", "stream")
}


def _stream_profiles(adapter):
    """Per-row and per-column sum, sum of squares, min and max of the
    whole matrix, streamed: ``(row_stats, col_stats)`` of shapes
    ``(4, rows)`` and ``(4, cols)``, rows in :func:`bucket_stats` order."""
    num_rows, num_cols = adapter.shape
    cols = np.arange(num_cols, dtype=np.int64)
    row_stats = np.zeros((4, num_rows))
    col_stats = np.zeros((4, num_cols))
    row_stats[2] = col_stats[2] = np.inf
    row_stats[3] = col_stats[3] = -np.inf
    if num_cols == 0:
        return row_stats, col_stats
    for start in range(0, num_rows, _PROFILE_BLOCK_ROWS):
        rows = slice(start, min(start + _PROFILE_BLOCK_ROWS, num_rows))
        block = adapter.block(np.arange(rows.start, rows.stop, dtype=np.int64), cols)
        squares = block * block
        row_stats[:, rows] = (
            block.sum(axis=1), squares.sum(axis=1), block.min(axis=1), block.max(axis=1)
        )
        col_stats[0] += block.sum(axis=0)
        col_stats[1] += squares.sum(axis=0)
        np.minimum(col_stats[2], block.min(axis=0), out=col_stats[2])
        np.maximum(col_stats[3], block.max(axis=0), out=col_stats[3])
    return row_stats, col_stats


def bucket_series(backend, by: str, function: str, limit: int | None = None) -> dict:
    """A whole group-by series: one value per bucket of ``by``.

    ``by`` is a time-hierarchy level (``day``/``week``/``month``/
    ``quarter``/``year`` — buckets of columns) or ``customer`` (one
    bucket per row).  ``function`` is any engine aggregate.  ``limit``
    truncates the series: top-``limit`` by value for ``customer``
    (descending), most recent ``limit`` buckets for time levels.

    The path is the module's: the store's rollups (``summary``), the
    factor identities (``factor``) or a streamed pass (``stream``).  A
    time series off the store has its month/quarter/year buckets
    anchored where the summary store would anchor them
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
    if function not in AGGREGATES:  # before a streamed pass, not after it
        raise QueryError(f"unknown aggregate {function!r}")
    adapter = backend if isinstance(backend, Backend) else as_backend(backend)
    num_rows, num_cols = adapter.shape
    store = adapter.summaries
    if function not in FACTOR_FUNCTIONS or adapter.factors is None:
        path = "stream"
        row_stats, col_stats = _stream_profiles(adapter)
    elif by == "customer" or store is None:
        path = "factor"
        col_stats, row_stats = adapter.profiles
    else:
        path = "summary"

    if by == "customer":
        counts = np.full(num_rows, float(num_cols))
        values = finalize(function, Components(*row_stats, count=counts))
        labels = np.arange(num_rows, dtype=np.int64)
        if limit is not None and limit < values.size:
            order = np.argsort(values)[::-1][:limit]
            labels, values = labels[order], values[order]
        payload = {"labels": labels.tolist()}
    else:
        if path == "summary":
            edges, stats = store.rollup(by)
        else:
            edges = level_edges(by, num_cols, adapter.start_date)
            stats = bucket_stats(col_stats, edges)
        counts = (edges[1:] - edges[:-1]).astype(np.float64) * num_rows
        values = finalize(function, Components(*stats, count=counts))
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
