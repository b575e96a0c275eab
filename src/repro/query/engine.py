"""Query execution over exact and compressed backends.

A backend is anything exposing the matrix's cells: a raw ndarray, a
:class:`~repro.storage.matrix_store.MatrixStore`, an in-memory model
(:class:`~repro.core.model.SVDModel` / ``SVDDModel`` /
:class:`~repro.lab.methods.base.FittedModel`), or the on-disk
:class:`~repro.core.store.CompressedMatrix`.  The engine resolves its
source once, at construction, through
:func:`repro.query.backend.as_backend`, so the same query text runs
exactly (against the raw data) and approximately (against a compressed
form) — which is precisely how the paper measures Q_err.

Aggregate routing is delegated to the cost-based planner
(:func:`repro.plan.plan_aggregate`): the engine resolves the selection,
asks the planner for the cheapest admissible route under the query's
``max_rmspe`` error budget, and executes exactly that route.
:meth:`QueryEngine.explain` returns the same plan's description, so the
explained route *is* the executed route by construction.
"""

from __future__ import annotations

import operator
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.exceptions import QueryError
from repro.obs.profile import QueryProfile, StatDelta
from repro.obs.registry import registry as _obs
from repro.obs.slowlog import slow_query_log as _slowlog
from repro.obs.tracing import span as _span
from repro.plan.planner import (
    ROUTE_FACTOR,
    ROUTE_STREAM,
    ROUTE_SUMMARY,
    ROUTE_SUMMARY_FACTOR,
    ROUTE_SVD,
    QueryPlan,
    plan_aggregate,
    validate_max_rmspe,
)
from repro.query.backend import Backend, as_backend
from repro.query.components import finalize as _finalize_components
from repro.query.components import stream_components
from repro.query.fastpath import factor_aggregate
from repro.query.selection import Selection

#: Aggregate functions supported by :class:`AggregateQuery` (Section 5.2
#: names sum, avg, stddev as examples; count/min/max round out the set).
AGGREGATES = ("sum", "avg", "count", "min", "max", "stddev")


@dataclass(frozen=True)
class CellQuery:
    """'What was the value for customer ``row`` on day ``col``?'"""

    row: int
    col: int


@dataclass(frozen=True)
class AggregateQuery:
    """An aggregate ``function`` over the cells of ``selection``.

    ``max_rmspe`` is the per-query error budget handed to the planner:
    None means exact-only on a delta-capable engine (and best-effort on
    the brownout engine); ``0.0`` demands exactness everywhere; a
    positive fraction admits the approximate SVD-only route when the
    model's stored RMSPE estimate fits the budget.
    """

    function: str
    selection: Selection
    max_rmspe: float | None = None

    def __post_init__(self) -> None:
        if self.function not in AGGREGATES:
            raise QueryError(
                f"unknown aggregate {self.function!r}; expected one of {AGGREGATES}"
            )
        object.__setattr__(self, "max_rmspe", validate_max_rmspe(self.max_rmspe))


@dataclass(frozen=True)
class QueryResult:
    """An answered query: the value plus execution accounting.

    ``route`` names the planner route that produced the value (empty
    for cell probes, which are not planned); ``error_bound`` is the
    achieved bound — 0.0 for every exact route, the model's stored
    RMSPE estimate for an SVD-only answer, None when that estimate is
    unknown.  ``profile`` carries the per-query
    :class:`~repro.obs.profile.QueryProfile` (path taken, page reads,
    pool hit rate, phase timings) while the process-wide telemetry
    registry is enabled; it is None on unprofiled runs.
    """

    value: float
    cells_touched: int
    rows_fetched: int
    profile: QueryProfile | None = field(default=None, compare=False)
    route: str = field(default="", compare=False)
    error_bound: float | None = field(default=0.0, compare=False)


def _as_cell_query(query) -> CellQuery:
    """A :class:`CellQuery` or ``(row, col)`` pair as a CellQuery of two
    ints: the one cell coercion behind every front door.

    An index is what ``operator.index`` accepts (Python and NumPy
    integers), never a bool.  Anything else is a :class:`QueryError` —
    never a ``TypeError``, never a truncated neighbouring cell — so the
    serving tier answers a fuzzed payload with a structured 400.
    """
    if isinstance(query, CellQuery):
        row, col = query.row, query.col
    else:
        try:
            arity = len(query)
            if arity == 2:
                row, col = query[0], query[1]
        except (TypeError, LookupError) as exc:
            raise QueryError(
                f"unsupported cell query {query!r}: expected CellQuery or (row, col)"
            ) from exc
        if arity != 2:
            raise QueryError(
                f"cell query tuple must be (row, col); got {arity} elements"
            )
    if type(row) is int and type(col) is int:
        return query if isinstance(query, CellQuery) else CellQuery(row, col)
    # ``operator.index`` refuses NumPy's bool but takes Python's.
    if not isinstance(row, bool) and not isinstance(col, bool):
        try:
            return CellQuery(operator.index(row), operator.index(col))
        except TypeError:
            pass
    raise QueryError(f"cell query indices must be integers, got {query!r}")


class QueryEngine:
    """Executes cell and aggregate queries against one backend.

    Args:
        backend: the data source (see module docstring).
        use_fast_path: evaluate sum/avg/count/stddev aggregates on
            SVD/SVDD backends in factor space — O(rows * k) instead of
            O(rows * cols * k) — falling back to row streaming for
            min/max and non-factor backends.  The two paths agree to
            float tolerance (asserted in the test suite).
        include_deltas: with False, answer from the SVD factors alone —
            factor-space aggregates skip the delta fold and cell
            queries use :meth:`CompressedMatrix.svd_cell` when the
            backend offers it.  This is the serving tier's brownout
            engine: answers are the paper's rank-k approximation with
            bounded RMSPE, never the delta-corrected exact-outlier
            values.  Two exceptions stay *exact* even in brownout: a
            selection fully covered by the materialized rollups (they
            fold deltas in at build time) and ``count``.  Aggregates
            that genuinely need per-cell values (min/max off the
            rollups, non-factor backends) raise
            :class:`~repro.exceptions.RouteUnavailableError` instead of
            silently streaming delta-corrected rows, which the serving
            tier sheds as a brownout.
        use_summaries: let the planner consider the backend's
            precomputed summary store
            (:class:`~repro.summaries.store.SummaryStore`).  A
            selection spanning a full axis is answered from
            materialized rollups — exact, delta-inclusive, zero
            ``u.mat`` pages — with any uncovered edge streamed as a
            residual and merged (the residual streaming needs the
            delta-corrected rows, so partial hits require
            ``include_deltas=True``).

    Every aggregate is routed by :func:`repro.plan.plan_aggregate`
    under the query's ``max_rmspe`` budget; :meth:`explain` and
    :meth:`aggregate` call the same planner with the same inputs.
    """

    def __init__(
        self,
        backend,
        use_fast_path: bool = True,
        include_deltas: bool = True,
        use_summaries: bool = True,
    ) -> None:
        self._backend = as_backend(backend)
        self._use_fast_path = use_fast_path
        self._include_deltas = include_deltas
        self._use_summaries = use_summaries
        self.stats = {
            "fast_path_hits": 0,
            "streamed": 0,
            "summary_hits": 0,
            "summary_partial": 0,
        }
        # Query evaluation itself is stateless per call; this lock only
        # guards the path counters so concurrent executor workers can
        # share one engine without losing increments.
        self._stats_lock = threading.Lock()

    def refresh(self, backend) -> None:
        """Swap in a new backend (e.g. a reopened post-append store).

        The swap is a single reference assignment, and every public
        method reads ``self._backend`` exactly once on entry, so each
        answer is computed wholly against the old or wholly against the
        new state — never a mix.
        """
        self._backend = as_backend(backend)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the matrix being queried."""
        return self._backend.shape

    def execute(
        self,
        query: "CellQuery | AggregateQuery | tuple",
        plan: QueryPlan | None = None,
    ) -> QueryResult:
        """Answer any engine query object by dispatching on its type.

        The single entry point the executors (thread- and process-based)
        and the CLI batch runner share: :class:`CellQuery` and ``(row,
        col)`` tuples go to :meth:`cell`, :class:`AggregateQuery` to
        :meth:`aggregate` (with ``plan``, when the caller holds this
        query's already; cells are not planned).
        """
        if isinstance(query, (CellQuery, tuple)):
            return self.cell(query)
        if isinstance(query, AggregateQuery):
            return self.aggregate(query, plan=plan)
        raise QueryError(
            f"unsupported query type {type(query).__name__}: expected "
            "CellQuery, AggregateQuery, or (row, col)"
        )

    def cell(self, query: CellQuery | tuple[int, int]) -> QueryResult:
        """Answer a single-cell query.

        While telemetry is enabled the result carries a
        :class:`~repro.obs.profile.QueryProfile` measuring the probe's
        page accesses and wall time.
        """
        # The common probe, a pair of ints, needs no CellQuery.
        row, col = query if type(query) is tuple and len(query) == 2 else (None, None)
        if type(row) is not int or type(col) is not int:
            query = _as_cell_query(query)
            row, col = query.row, query.col
        backend = self._backend
        rows, cols = backend.shape
        if not 0 <= row < rows:
            raise QueryError(f"row {row} out of range [0, {rows})")
        if not 0 <= col < cols:
            raise QueryError(f"col {col} out of range [0, {cols})")
        probe = backend.cell
        if not self._include_deltas and backend.svd_cell is not None:
            probe = backend.svd_cell
        if not _obs.enabled:
            return QueryResult(float(probe(row, col)), 1, 1)
        capture = StatDelta(backend)
        start = time.perf_counter_ns()
        with _span("query.cell", row=row, col=col) as root:
            value = float(probe(row, col))
        profile = QueryProfile(
            "cell",
            None,
            1,
            1,
            *capture.collect(),
            total_ns=time.perf_counter_ns() - start,
            backend=backend.name,
            trace_id=root.trace_id or "",
        )
        _slowlog.maybe_record(query, profile, root)
        return QueryResult(value, 1, 1, profile)

    def cells(self, queries) -> list[QueryResult]:
        """Answer a batch of cell queries in one vectorized pass.

        ``queries`` is a sequence of :class:`CellQuery` or ``(row, col)``
        tuples.  Backends with a batch form (``CompressedMatrix.cells``,
        the models' ``reconstruct_cells``, ndarray fancy indexing)
        answer the whole batch with one coalesced gather; per-query
        accounting stays exact — each result reports its own single cell
        and row fetch, matching :meth:`cell`.
        """
        coerced = [_as_cell_query(query) for query in queries]
        if not coerced:
            return []
        backend = self._backend
        num_rows, num_cols = backend.shape
        try:
            rows = np.asarray([query.row for query in coerced], dtype=np.int64)
            cols = np.asarray([query.col for query in coerced], dtype=np.int64)
        except OverflowError:
            raise QueryError(
                f"cell selection outside [0, {num_rows}) x [0, {num_cols})"
            ) from None
        if rows.min() < 0 or rows.max() >= num_rows:
            raise QueryError(f"row selection outside [0, {num_rows})")
        if cols.min() < 0 or cols.max() >= num_cols:
            raise QueryError(f"col selection outside [0, {num_cols})")
        values = backend.cells(rows, cols)
        return [
            QueryResult(value=float(value), cells_touched=1, rows_fetched=1)
            for value in values
        ]

    def plan(
        self, query: AggregateQuery, *, max_rmspe: float | None = None
    ) -> QueryPlan:
        """The planner's decision for ``query``, without executing it.

        ``max_rmspe`` overrides the query's own budget when given.
        This is exactly the plan :meth:`aggregate` would execute — one
        shared :func:`repro.plan.plan_aggregate` call sits behind both.

        Raises :class:`~repro.exceptions.RouteUnavailableError` when no
        admissible route satisfies the budget (so explain and execute
        fail identically too).
        """
        return self._plan(query, self._backend, max_rmspe)

    def _plan(self, query: AggregateQuery, backend: Backend, max_rmspe) -> QueryPlan:
        """Resolve the selection and route it through the planner."""
        budget = (
            validate_max_rmspe(max_rmspe)
            if max_rmspe is not None
            else query.max_rmspe
        )
        row_idx, col_idx = query.selection.resolve(backend.shape)
        if row_idx.size == 0 or col_idx.size == 0:
            raise QueryError("aggregate over an empty selection")
        return plan_aggregate(
            backend,
            query.function,
            row_idx,
            col_idx,
            use_fast_path=self._use_fast_path,
            include_deltas=self._include_deltas,
            use_summaries=self._use_summaries,
            max_rmspe=budget,
        )

    def aggregate(
        self,
        query: AggregateQuery,
        *,
        max_rmspe: float | None = None,
        plan: QueryPlan | None = None,
    ) -> QueryResult:
        """Answer an aggregate query along its planned route.

        The route comes from :func:`repro.plan.plan_aggregate` — the
        cheapest admissible one under the query's ``max_rmspe`` budget
        (overridable per call) — and ``rows_fetched`` reports the true
        number of backend row fetches the evaluation performed (0 for
        purely in-memory factor math).  ``QueryResult.route`` and
        ``QueryResult.error_bound`` record the route taken and its
        achieved bound.  While telemetry is enabled the result also
        carries a :class:`~repro.obs.profile.QueryProfile` with the
        path taken, page accesses (measured *and* planner-predicted),
        pool hit rate, and phase timings.

        ``plan`` hands back what :meth:`plan` returned for this very
        query, so a caller that planned in order to route (the serving
        tier) pays for no second plan.  It is executed as is while its
        backend is still this engine's; after a :meth:`refresh` the
        query is re-planned under the same budget, never answered from
        a mix of the two.
        """
        backend = self._backend
        if plan is None:
            plan = self._plan(query, backend, max_rmspe)
        elif plan.backend is not backend:
            plan = self._plan(query, backend, plan.max_rmspe)
        if not _obs.enabled:
            return self._execute_plan(query, plan)
        _obs.counter(f"planner.route.{plan.route.name}").inc()
        capture = StatDelta(backend)
        start = time.perf_counter_ns()
        with _span("query.aggregate", function=query.function) as root:
            result = self._execute_plan(query, plan)
        profile = QueryProfile(
            result.route,
            query.function,
            result.cells_touched,
            result.rows_fetched,
            *capture.collect(),
            total_ns=time.perf_counter_ns() - start,
            gather_ns=root.total_ns("query.factor.gather"),
            gemm_ns=root.total_ns("query.factor.gemm"),
            delta_ns=root.total_ns("query.factor.delta"),
            stream_ns=root.total_ns("query.stream.scan"),
            backend=backend.name,
            trace_id=root.trace_id or "",
            error_bound=result.error_bound,
            predicted_pages=plan.route.pages,
        )
        _slowlog.maybe_record(query, profile, root)
        return replace(result, profile=profile)

    def _execute_plan(self, query: AggregateQuery, plan: QueryPlan) -> QueryResult:
        """Execute the planner's chosen route against one snapshot.

        ``plan.backend`` is the one reference the plan was made
        against, so the whole evaluation — planning, fast path, and
        every streamed chunk — sees a single backend even if
        :meth:`refresh` swaps the engine's backend mid-query.
        """
        backend, row_idx, col_idx = plan.backend, plan.row_idx, plan.col_idx
        route = plan.route.name
        if route in (ROUTE_SUMMARY, ROUTE_SUMMARY_FACTOR):
            return self._run_summary(query.function, plan, backend)
        if route in (ROUTE_FACTOR, ROUTE_SVD):
            # The planner admitted this route on the same immutable
            # backend, so its factor form cannot have gone away.
            value, rows_fetched = factor_aggregate(
                backend,
                row_idx,
                col_idx,
                query.function,
                include_deltas=route == ROUTE_FACTOR,
            )
            with self._stats_lock:
                self.stats["fast_path_hits"] += 1
            return QueryResult(
                value=value,
                cells_touched=plan.cells,
                rows_fetched=rows_fetched,
                route=route,
                error_bound=plan.route.error_bound,
            )
        return self._run_stream(query.function, row_idx, col_idx, backend)

    def _run_summary(
        self, function: str, plan: QueryPlan, backend: Backend
    ) -> QueryResult:
        """Serve a summary full or partial hit chosen by the planner.

        A full hit touches no ``u.mat`` pages at all; a partial hit
        ("summary+factor") streams only the residual rectangles the
        rollups do not cover and merges components — exact either way.
        """
        summary = plan.summary_plan
        comps = summary.core
        rows_fetched = 0
        if summary.residuals:
            with _span(
                "query.stream.scan",
                rows=sum(int(rows.size) for rows, _cols in summary.residuals),
            ):
                for rows, cols in summary.residuals:
                    comps = comps.merge(
                        stream_components(backend, rows, cols, function)
                    )
                    rows_fetched += int(rows.size)
        value = _finalize_components(function, comps)
        route = plan.route.name
        with self._stats_lock:
            self.stats[
                "summary_hits" if summary.full_hit else "summary_partial"
            ] += 1
        if _obs.enabled:
            _obs.counter(f"query.path.{route}").inc()
        return QueryResult(
            value=value,
            cells_touched=comps.count,
            rows_fetched=rows_fetched,
            route=route,
            error_bound=0.0,
        )

    def _run_stream(
        self,
        function: str,
        row_idx: np.ndarray,
        col_idx: np.ndarray,
        backend: Backend,
    ) -> QueryResult:
        """Stream the selected rows in vectorized blocks (exact)."""
        with self._stats_lock:
            self.stats["streamed"] += 1
        with _span("query.stream.scan", rows=int(row_idx.size)):
            comps = stream_components(backend, row_idx, col_idx, function)
        value = _finalize_components(function, comps)
        return QueryResult(
            value=value,
            cells_touched=comps.count,
            rows_fetched=int(row_idx.size),
            route=ROUTE_STREAM,
            error_bound=0.0,
        )

    def try_summary(self, query) -> QueryResult | None:
        """Answer an aggregate *entirely* from the summary store.

        Returns None unless the store fully covers the selection — no
        residual streaming, no factor math, zero page reads.  Works
        regardless of ``include_deltas``: the rollups fold the deltas
        in at materialization time, so even the brownout (SVD-only)
        engine can hand out these answers as exact.  That is how the
        dispatcher un-sheds min/max during brownout.
        """
        if not isinstance(query, AggregateQuery) or not self._use_summaries:
            return None
        backend = self._backend
        store = backend.summaries
        if store is None:
            return None
        try:
            row_idx, col_idx = query.selection.resolve(backend.shape)
        except QueryError:
            return None
        plan = store.plan(row_idx, col_idx)
        if plan is None or not plan.full_hit:
            return None
        value = _finalize_components(query.function, plan.core)
        with self._stats_lock:
            self.stats["summary_hits"] += 1
        profile = None
        if _obs.enabled:
            _obs.counter("query.path.summary").inc()
            profile = QueryProfile(
                path="summary",
                function=query.function,
                cells=plan.core.count,
                rows_fetched=0,
                pages_read=0,
                backend=backend.name,
            )
        return QueryResult(
            value=value,
            cells_touched=plan.core.count,
            rows_fetched=0,
            profile=profile,
            route="summary",
            error_bound=0.0,
        )

    def explain(
        self,
        query: "AggregateQuery | CellQuery",
        *,
        max_rmspe: float | None = None,
    ) -> dict:
        """Describe how a query would execute, without executing it.

        For aggregates this is :meth:`plan` serialized: ``path`` is the
        route :meth:`aggregate` will take (same planner, same inputs),
        plus the selection's cell count, the chosen route's estimated
        row fetches / pages / cost, its error bound, and every other
        candidate and rejected route.  Planning reads no pages and
        changes no backend state.

        Raises :class:`~repro.exceptions.RouteUnavailableError` exactly
        when :meth:`aggregate` would — an unanswerable query explains
        as unanswerable instead of inventing a route.
        """
        if isinstance(query, (CellQuery, tuple)):
            _as_cell_query(query)  # arity/type validation only
            return {"path": "cell", "cells": 1, "estimated_row_fetches": 1}
        return self._plan(query, self._backend, max_rmspe).to_dict()
