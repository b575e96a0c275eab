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
import os
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from repro.exceptions import QueryError
from repro.obs.profile import QueryProfile, counters
from repro.obs.registry import registry as _obs
from repro.obs.slowlog import slow_query_log as _slowlog
from repro.obs.tracing import span as _span
from repro.plan.planner import (
    ROUTE_FACTOR,
    ROUTE_STREAM,
    ROUTE_SUMMARY,
    ROUTE_SVD,
    ROUTES,
    QueryPlan,
    plan_aggregate,
    validate_max_rmspe,
)
from repro.query.backend import Backend, as_backend
from repro.query.components import finalize as _finalize_components
from repro.query.components import stream_components
from repro.query.fastpath import factor_aggregate
from repro.query.selection import Selection
from repro.storage.matrix_store import Ascending

#: Aggregate functions supported by :class:`AggregateQuery` (Section 5.2
#: names sum, avg, stddev as examples; count/min/max round out the set).
AGGREGATES = ("sum", "avg", "count", "min", "max", "stddev")

#: ``planner.route.<route>``, bound once: an executed plan counts here.
_ROUTED = {route: _obs.bind_counter(f"planner.route.{route}") for route in ROUTES}
_SUMMARY_PATH = _obs.bind_counter(f"query.path.{ROUTE_SUMMARY}")
_sub = operator.sub


@dataclass(frozen=True)
class CellQuery:
    """'What was the value for customer ``row`` on day ``col``?'"""

    row: int
    col: int


@dataclass(frozen=True)
class AggregateQuery:
    """An aggregate ``function`` over the cells of ``selection``.

    ``max_rmspe`` is the per-query error budget handed to the planner:
    None means exact only; ``0.0`` demands exactness outright; a
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
        if self.max_rmspe is not None:
            object.__setattr__(self, "max_rmspe", validate_max_rmspe(self.max_rmspe))


class QueryResult:
    """An answered query: the value plus execution accounting.

    ``route`` names the planner route that produced the value (empty
    for an unplanned cell probe, ``svd`` if its store lost its deltas);
    ``error_bound`` is the achieved bound — 0.0 for every exact route,
    the stored RMSPE estimate (or None) for an ``svd`` answer.  ``profile``
    carries the per-query :class:`~repro.obs.profile.QueryProfile` (path
    taken, page reads, pool hit rate, phase timings) while the process-wide
    telemetry registry is enabled; it is None on unprofiled runs.

    Immutable, as a frozen dataclass is: assigning or deleting a field
    raises :class:`dataclasses.FrozenInstanceError`, and ``==`` and
    ``hash`` read ``(value, cells_touched, rows_fetched)`` only.  Its
    slots are filled through their descriptors: every cell probe builds
    one, and a frozen dataclass's ``__init__`` costs about twice as much.
    """

    __slots__ = ("value", "cells_touched", "rows_fetched", "profile", "route", "error_bound")

    def __init__(
        self,
        value: float,
        cells_touched: int,
        rows_fetched: int,
        profile: QueryProfile | None = None,
        route: str = "",
        error_bound: float | None = 0.0,
    ) -> None:
        _set_value(self, value)
        _set_cells_touched(self, cells_touched)
        _set_rows_fetched(self, rows_fetched)
        _set_profile(self, profile)
        _set_route(self, route)
        _set_error_bound(self, error_bound)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.value, self.cells_touched, self.rows_fetched)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))


(
    _set_value,
    _set_cells_touched,
    _set_rows_fetched,
    _set_profile,
    _set_route,
    _set_error_bound,
) = (getattr(QueryResult, name).__set__ for name in QueryResult.__slots__)


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


def coerce_query(query) -> "CellQuery | AggregateQuery":
    """Normalize the accepted query forms to engine query objects.

    The front door of ``repro batch`` and the serving dispatcher: an
    :class:`AggregateQuery` passes through, query text goes through
    :func:`~repro.query.parser.parse_query`, and a :class:`CellQuery`
    or ``(row, col)`` tuple through :func:`_as_cell_query`.
    """
    if isinstance(query, AggregateQuery):
        return query
    if isinstance(query, str):
        from repro.query.parser import parse_query  # the parser imports this module

        return parse_query(query)
    if isinstance(query, (CellQuery, tuple)):
        return _as_cell_query(query)
    raise QueryError(
        f"unsupported query form {type(query).__name__}: expected "
        "CellQuery, AggregateQuery, (row, col), or query text"
    )


def usable_cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (a pinned container's ``os.cpu_count()`` reports the whole
    machine), else ``os.cpu_count()``."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


def _check_cell(row: int, col: int, shape: tuple[int, int]) -> None:
    """Raise :class:`QueryError` unless ``(row, col)`` lies in ``shape``:
    the range check :meth:`QueryEngine.cell` and
    :meth:`QueryEngine.explain` share."""
    rows, cols = shape
    if not 0 <= row < rows:
        raise QueryError(f"row {row} out of range [0, {rows})")
    if not 0 <= col < cols:
        raise QueryError(f"col {col} out of range [0, {cols})")


class QueryEngine:
    """Executes cell and aggregate queries against one backend.

    Args:
        backend: the data source (see module docstring).

    Every aggregate is routed by :func:`repro.plan.plan_aggregate`
    under the query's ``max_rmspe`` budget; :meth:`explain` and
    :meth:`aggregate` call the same planner with the same inputs.  A
    caller that wants another admissible route hands :meth:`execute`
    the plan with that candidate as its ``route``.
    """

    def __init__(self, backend) -> None:
        self.refresh(backend)

    def refresh(self, backend) -> None:
        """Swap in a new backend (e.g. a reopened post-append store).

        Each swap is a single reference assignment, and every public
        method reads one (``_cells`` or ``_backend``) exactly once on
        entry, so no answer mixes the old and the new state.
        """
        backend = as_backend(backend)
        # Cells of a store that lost its deltas are ``svd`` answers.
        svd = (ROUTE_SVD, backend.rmspe_estimate) if backend.deltas_lost else ("", 0.0)
        self._cells = (backend, *svd)
        self._backend = backend

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

        The single entry point ``repro batch`` and the serving
        dispatcher share: :class:`CellQuery` and ``(row, col)`` tuples
        go to :meth:`cell`, :class:`AggregateQuery` to
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
        # The common probes, a CellQuery or a pair of ints, are read as
        # they are.
        if type(query) is CellQuery:
            row, col = query.row, query.col
        else:
            row, col = query if type(query) is tuple and len(query) == 2 else (None, None)
        if type(row) is not int or type(col) is not int:
            query = _as_cell_query(query)
            row, col = query.row, query.col
        backend, route, bound = self._cells
        rows, cols = backend.shape
        # Tested inline so an in-range probe pays for no call.
        if not (0 <= row < rows and 0 <= col < cols):
            _check_cell(row, col, (rows, cols))
        if not _obs.enabled:
            return QueryResult(float(backend.cell(row, col)), 1, 1, None, route, bound)
        sources = backend.counters
        before = counters(sources)
        with _span("query.cell", row=row, col=col) as root:
            value = float(backend.cell(row, col))
        profile = QueryProfile(
            "cell",
            None,
            1,
            1,
            *map(_sub, counters(sources), before),
            total_ns=root.end_ns - root.start_ns,
            backend=backend.name,
            trace_id=root.trace_id or "",
        )
        if _slowlog.threshold_ns is not None:
            _slowlog.maybe_record(query, profile, root)
        return QueryResult(value, 1, 1, profile, route, bound)

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
        # Checked once, here: every layer below reads what resolve proved.
        row_idx, col_idx = map(Ascending, query.selection.resolve(backend.shape))
        return plan_aggregate(
            backend,
            query.function,
            row_idx,
            col_idx,
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
        function = query.function
        if not _obs.enabled:
            value, cells, rows_fetched, route, bound = self._answer(function, plan)
            return QueryResult(value, cells, rows_fetched, None, route, bound)
        _ROUTED[plan.route.name].inc()
        sources = backend.counters
        before = counters(sources)
        with _span("query.aggregate", function=function) as root:
            value, cells, rows_fetched, route, bound = self._answer(function, plan)
        phases = root.totals
        profile = QueryProfile(
            route,
            function,
            cells,
            rows_fetched,
            *map(_sub, counters(sources), before),
            total_ns=root.end_ns - root.start_ns,
            gather_ns=phases.get("query.factor.gather", 0),
            gemm_ns=phases.get("query.factor.gemm", 0),
            delta_ns=phases.get("query.factor.delta", 0),
            stream_ns=phases.get("query.stream.scan", 0),
            backend=backend.name,
            trace_id=root.trace_id or "",
            error_bound=bound,
            predicted_pages=plan.route.pages,
        )
        if _slowlog.threshold_ns is not None:
            _slowlog.maybe_record(query, profile, root)
        return QueryResult(value, cells, rows_fetched, profile, route, bound)

    def _answer(self, function: str, plan: QueryPlan) -> tuple:
        """Execute the planner's chosen route against one snapshot:
        ``(value, cells_touched, rows_fetched, route, error_bound)``,
        the fields of the :class:`QueryResult` the caller builds once.

        ``plan.backend`` is the one reference the plan was made
        against, so the whole evaluation — planning, fast path, and
        every streamed chunk — sees a single backend even if
        :meth:`refresh` swaps the engine's backend mid-query.
        """
        backend, row_idx, col_idx = plan.backend, plan.row_idx, plan.col_idx
        route = plan.route.name
        if route == ROUTE_SUMMARY:
            # A summary hit: no ``u.mat`` pages.
            comps = plan.summary_plan
            if _obs.enabled:
                _SUMMARY_PATH.inc()
            return _finalize_components(function, comps), comps.count, 0, route, 0.0
        if route in (ROUTE_FACTOR, ROUTE_SVD):
            # The planner admitted this route on the same immutable
            # backend, so its factor form cannot have gone away.
            value, rows_fetched = factor_aggregate(
                backend, row_idx, col_idx, function, fold_deltas=route == ROUTE_FACTOR
            )
            return value, plan.cells, rows_fetched, route, plan.route.error_bound
        # Stream the selected rows in vectorized blocks (exact).
        if _obs.enabled:
            with _span("query.stream.scan", rows=int(row_idx.size)):
                comps = stream_components(backend, row_idx, col_idx, function)
        else:
            comps = stream_components(backend, row_idx, col_idx, function)
        value = _finalize_components(function, comps)
        return value, comps.count, int(row_idx.size), ROUTE_STREAM, 0.0

    def try_summary(self, query) -> QueryResult | None:
        """Answer an aggregate *entirely* from the summary store.

        Returns None unless the store can answer it (a ``sum``/``avg``/
        ``count``/``stddev`` over every row) — no factor math, zero page
        reads.  The planner's
        ``summary`` route answers the same selections; no product code
        calls this any more.  The benchmark harness's traced loop
        (``benchmarks/harness/trace.py``) does, so it goes when that
        loop does.
        """
        if not isinstance(query, AggregateQuery):
            return None
        backend = self._backend
        store = backend.summaries
        if store is None:
            return None
        try:
            row_idx, col_idx = query.selection.resolve(backend.shape)
        except QueryError:
            return None
        comps = store.plan(row_idx, col_idx, query.function)
        if comps is None:
            return None
        value = _finalize_components(query.function, comps)
        profile = None
        if _obs.enabled:
            _SUMMARY_PATH.inc()
            profile = QueryProfile(
                path="summary",
                function=query.function,
                cells=comps.count,
                rows_fetched=0,
                pages_read=0,
                backend=backend.name,
            )
        return QueryResult(
            value=value,
            cells_touched=comps.count,
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
        as unanswerable instead of inventing a route — and
        :class:`~repro.exceptions.QueryError` for a cell :meth:`cell`
        would refuse.
        """
        if isinstance(query, (CellQuery, tuple)):
            cell = _as_cell_query(query)
            _check_cell(cell.row, cell.col, self._backend.shape)
            return {"path": "cell", "cells": 1, "estimated_row_fetches": 1}
        return self._plan(query, self._backend, max_rmspe).to_dict()
