"""The one seam between the query stack and its data sources.

The paper measures Q_err by running the *same* query exactly against
the raw matrix and approximately against a compressed form (Section 5),
so everything above this module treats "a data source" as one thing: a
:class:`Backend`.  :func:`as_backend` is the only place that knows what
shapes a source can have — a raw ndarray, a
:class:`~repro.storage.matrix_store.MatrixStore`, an in-memory
:class:`~repro.core.model.SVDModel` / ``SVDDModel`` (bare or inside the
``methods`` adapter), the persistent
:class:`~repro.core.store.CompressedMatrix`, or anything row-only
(``shape`` plus ``reconstruct_row``/``row``, e.g. a DCT or clustering
:class:`~repro.lab.methods.base.FittedModel`).  It resolves the kind once,
when the engine is built, into directly bound callables; no query pays
for type inspection and a new source shape is an edit to this file
alone.

Vocabulary every backend offers:

- ``shape``; ``cell(row, col)``; ``block(row_idx, col_idx)``, the
  dense float64 submatrix — always an array, the row-at-a-time loop
  for row-only sources lives here and nowhere else;
- ``factors(row_idx) -> (scaled_u, v, delta_index, rows_fetched)`` —
  the selected rows as ``u_i * Lambda``, the pinned ``V``, the outlier
  index (None when the source stores no deltas) and the U-row fetches
  the gather performed — or None for sources without a factor form.
  The in-memory models and ``CompressedMatrix`` offer it; ndarray,
  ``MatrixStore`` and row-only sources do not;
- the facts the planner and the profiler read: ``rank``,
  ``delta_index``, ``deltas_lost``, ``paged_store``, ``pricing`` (the
  planner's per-source constants), ``counters`` (the stat structs a
  query profile diffs), ``name``, ``summaries``, ``start_date``,
  ``rmspe_estimate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from repro.core.delta_index import DeltaIndex
from repro.core.model import SVDDModel, SVDModel
from repro.core.store import CompressedMatrix
from repro.exceptions import QueryError
from repro.storage.matrix_store import MatrixStore

__all__ = ["Backend", "as_backend"]


def _none() -> None:
    return None


@dataclass(frozen=True, eq=False)
class Backend:
    """One data source behind the query vocabulary (see module docs)."""

    #: The object this backend was resolved from.
    source: object
    shape: tuple[int, int]
    cell: Callable[[int, int], float]
    block: Callable[[np.ndarray, np.ndarray], np.ndarray]
    factors: Callable[[np.ndarray], tuple] | None = None
    #: Retained principal components (0 without a factor form).
    rank: int = 0
    #: The paged store whose pages a row fetch hits, or None when rows
    #: come from memory.
    paged_store: MatrixStore | None = None
    #: True when the source's model counts deltas its open could not
    #: load (a degraded open that dropped ``deltas.bin``): its cells and
    #: streamed rows are the bare SVD, and no exact fold exists.
    deltas_lost: bool = False
    #: The source's outlier index, or None when it stores no deltas.
    delta_index: DeltaIndex | None = None
    _anchor: Callable[[], str | None] = _none

    @cached_property
    def name(self) -> str:
        """The source's class name, for dumped profiles."""
        return type(self.source).__name__

    @cached_property
    def counters(self) -> tuple:
        """``(pool stats, I/O stats, delta-index stats)`` — the paged
        store's buffer-pool and pager counters and the outlier index's
        lookup counts, each None when absent: what a query profile
        diffs (:func:`repro.obs.profile.counters`).  Each is one live
        struct for the source's life, so it is resolved once."""
        store, index = self.paged_store, self.delta_index
        return (
            None if store is None else store.pool_stats,
            None if store is None else store.io_stats,
            None if index is None else index.stats,
        )

    @cached_property
    def summaries(self):
        """The source's :class:`~repro.summaries.store.SummaryStore`
        when it has one describing this shape, else None.  Read on first
        use (the persistent store loads it lazily, and keeps what it
        loaded), then kept."""
        store = getattr(self.source, "summaries", None)
        if store is None or (store.model_rows, store.model_cols) != self.shape:
            return None
        return store

    @cached_property
    def pricing(self) -> tuple:
        """``(params, priced_store, page_ms, rank)``: what the planner
        prices with here, fixed for the source's life — its
        :class:`~repro.plan.cost.CostParams`, the paged store whose pages
        a gather pays for, one such page's price (a read is linear in
        pages) and ``max(rank, 1)``.  Rows cost memory, not seeks, without
        a paged store or from one opened ``mapped=True`` (its pages are
        page cache): then no page is priced (None, 0.0)."""
        from repro.plan.cost import CostParams, page_read_ms  # the planner sits above

        store = self.paged_store
        if store is not None and store.mapped:
            store = None
        params = CostParams.for_backend(store is None)
        page_ms = 0.0 if store is None else page_read_ms(params, 1, store.page_size)
        return params, store, page_ms, max(self.rank, 1)

    @property
    def start_date(self) -> str | None:
        """The calendar date of column 0 (``YYYY-MM-DD``) the source's
        summary state recorded, whether or not that store is still
        fresh; None when it recorded none.  Read on demand: only a
        group-by streamed without a store needs it."""
        return self._anchor()

    @property
    def rmspe_estimate(self) -> float | None:
        """The RMSPE an SVD-only answer carries, or None when unknown.

        For the persistent store this is the residual-energy estimate
        its ``update_state.json`` recorded when it was opened (see
        :func:`repro.core.update.rmspe_from_state`); any source
        exposing an ``rmspe_estimate`` attribute is honored.
        """
        bound = getattr(self.source, "rmspe_estimate", None)
        if bound is None:
            return None
        bound = float(bound)
        return bound if np.isfinite(bound) and bound >= 0.0 else None


def _from_ndarray(matrix: np.ndarray) -> Backend:
    if matrix.ndim != 2:
        raise QueryError(f"ndarray backend must be 2-d, got ndim {matrix.ndim}")
    return Backend(
        source=matrix,
        shape=tuple(matrix.shape),
        cell=lambda row, col: float(matrix[row, col]),
        block=lambda row_idx, col_idx: matrix[np.ix_(row_idx, col_idx)].astype(
            np.float64
        ),
    )


def _from_matrix_store(store: MatrixStore) -> Backend:
    return Backend(
        source=store,
        shape=tuple(store.shape),
        cell=store.cell,
        block=lambda row_idx, col_idx: store.read_rows(row_idx)[:, col_idx],
        paged_store=store,
    )


def _from_model(source, model: SVDModel | SVDDModel) -> Backend:
    """An in-memory model; ``source`` is the model itself or the
    ``methods`` adapter wrapped around it."""
    if isinstance(model, SVDDModel):
        svd, deltas = model.svd, model.deltas
    else:
        svd, deltas = model, None

    def factors(row_idx: np.ndarray):
        return svd.u[row_idx] * svd.eigenvalues, svd.v, deltas, 0

    return Backend(
        source=source,
        shape=model.shape,
        cell=model.reconstruct_cell,
        block=model.reconstruct_range,
        factors=factors,
        rank=svd.cutoff,
        delta_index=deltas,
    )


def _from_compressed(store: CompressedMatrix) -> Backend:
    # Lazy: repro.summaries sits above this seam.
    from repro.summaries.compute import recorded_start_date

    return Backend(
        source=store,
        shape=store.shape,
        cell=store.cell,
        block=store.reconstruct_range,
        factors=store.factors,
        rank=store.cutoff,
        paged_store=store.u_store,
        deltas_lost=store.deltas_lost,
        delta_index=store.delta_index,
        _anchor=lambda: recorded_start_date(store.directory),
    )


def _from_rows(source) -> Backend:
    """A row-only source: ``shape`` plus ``reconstruct_row`` or ``row``."""
    fetch = getattr(source, "reconstruct_row", None) or getattr(source, "row", None)
    if fetch is None or not hasattr(source, "shape"):
        raise QueryError(
            f"unsupported backend type {type(source).__name__}: needs "
            "ndarray indexing, .reconstruct_row, or .row"
        )

    def row(index: int) -> np.ndarray:
        return np.asarray(fetch(index), dtype=np.float64)

    probe = getattr(source, "reconstruct_cell", None) or getattr(source, "cell", None)
    if probe is None:
        def probe(row_index: int, col: int) -> float:
            return float(row(row_index)[col])

    return Backend(
        source=source,
        shape=tuple(source.shape),
        cell=probe,
        block=lambda row_idx, col_idx: np.stack(
            [row(int(index))[col_idx] for index in np.asarray(row_idx)]
        ),
    )


def as_backend(source) -> Backend:
    """Resolve ``source`` into a :class:`Backend` (idempotent).

    Raises :class:`~repro.exceptions.QueryError` for a source none of
    the supported shapes describes — at construction, not first query.
    """
    if isinstance(source, Backend):
        return source
    if isinstance(source, np.ndarray):
        return _from_ndarray(source)
    if isinstance(source, CompressedMatrix):
        return _from_compressed(source)
    if isinstance(source, MatrixStore):
        return _from_matrix_store(source)
    if isinstance(source, (SVDModel, SVDDModel)):
        return _from_model(source, source)
    inner = getattr(source, "model", None)  # the methods adapter
    if isinstance(inner, (SVDModel, SVDDModel)):
        return _from_model(source, inner)
    return _from_rows(source)
