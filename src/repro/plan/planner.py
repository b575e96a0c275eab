"""Route enumeration and selection for aggregate queries.

:func:`plan_aggregate` is the single planning entry point shared by
``QueryEngine.aggregate``, ``QueryEngine.explain``, the serving tier's
dispatch (healthy and brownout alike), and the CLI — the structural
fix for the explain/execute divergences that hard-coded call sites
accumulated.

The route lattice for one ``AggregateQuery`` over ``R x S`` cells:

==================  =====================================  ===========
route               needs                                  error bound
==================  =====================================  ===========
``summary``         per-day profile, every row selected,
                    sum/avg/count/stddev                   0.0 (exact)
``factor``          factor form, sum/avg/count/stddev,
                    delta fold available                   0.0 (exact)
``stream``          per-cell values (delta-corrected)      0.0 (exact)
``svd``             factor form, sum/avg/count/stddev      stored RMSPE
==================  =====================================  ===========

Admissibility is decided from backend capabilities (a store whose open
lost its deltas, ``Backend.deltas_lost``, has no delta fold and no
delta-corrected rows, so ``factor`` and ``stream`` drop out); a price
is CPU alone, a floor plus operation counts at :data:`NS_PER_CELL` and
:data:`NS_PER_FACTOR_TERM` nanoseconds (every open gathers rows from a
mmap view or memory, so pages are counted, never priced); the cheapest
route whose error bound fits the caller's ``max_rmspe`` budget wins,
with exact routes preferred on cost ties.  ``max_rmspe=None`` means exact only, and
``max_rmspe=0.0`` *provably* never selects ``svd``: the route is
rejected before pricing whenever the budget is not strictly positive.
Brownout is not a mode here: the serving tier passes the model's own
estimate as the budget.

Planning is side-effect free — no pages are read, no backend state
changes — so explain can call it as often as it likes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

import numpy as np

from repro.exceptions import QueryError, RouteUnavailableError
from repro.query.backend import Backend, as_backend
from repro.query.fastpath import FACTOR_FUNCTIONS

__all__ = [
    "ROUTES",
    "ROUTE_FACTOR",
    "ROUTE_STREAM",
    "ROUTE_SUMMARY",
    "ROUTE_SVD",
    "QueryPlan",
    "RejectedRoute",
    "RouteEstimate",
    "plan_aggregate",
]

ROUTE_SUMMARY = "summary"
ROUTE_FACTOR = "factor"
ROUTE_SVD = "svd"
ROUTE_STREAM = "stream"

#: Every route the planner knows, in tie-break preference order: on
#: equal predicted cost the earlier (more exact / more precomputed)
#: route wins, keeping plans deterministic.
ROUTES = (
    ROUTE_SUMMARY,
    ROUTE_FACTOR,
    ROUTE_SVD,
    ROUTE_STREAM,
)


@dataclass(frozen=True)
class RouteEstimate:
    """One admissible route, priced.

    ``error_bound`` is 0.0 for exact routes and the model's stored
    RMSPE estimate for ``svd`` (admitted only when there is one).
    """

    name: str
    cost_ms: float
    pages: int
    row_fetches: int
    error_bound: float

    def to_dict(self) -> dict:
        """JSON-ready form for the explain payload's candidate list."""
        return {
            "route": self.name,
            "cost_ms": round(self.cost_ms, 6),
            "pages": self.pages,
            "row_fetches": self.row_fetches,
            "error_bound": self.error_bound,
        }


@dataclass(frozen=True)
class RejectedRoute:
    """A route the planner considered and turned down, with the reason."""

    name: str
    reason: str

    def to_dict(self) -> dict:
        """JSON-ready form for the explain payload's rejected list."""
        return {"route": self.name, "reason": self.reason}


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one aggregate query.

    ``route`` is the winner; ``candidates`` every admissible route in
    cost order (winner first); ``rejected`` the inadmissible routes
    with reasons.  ``summary_plan`` carries the
    :class:`~repro.query.components.Components` the summary store
    answered during planning, so execution reuses them.
    ``row_idx`` / ``col_idx`` (the resolved selection) and ``backend``
    (the source it was priced against) travel with the decision, so
    :meth:`repro.query.engine.QueryEngine.execute` can be handed the
    plan and run exactly it — against that backend or not at all.
    """

    route: RouteEstimate
    candidates: tuple[RouteEstimate, ...]
    rejected: tuple[RejectedRoute, ...]
    cells: int
    max_rmspe: float | None
    summary_plan: object | None = field(default=None, repr=False)
    row_idx: np.ndarray | None = field(default=None, repr=False, compare=False)
    col_idx: np.ndarray | None = field(default=None, repr=False, compare=False)
    backend: object | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """The explain payload — superset of the pre-planner keys."""
        return {
            "path": self.route.name,
            "cells": self.cells,
            "estimated_row_fetches": self.route.row_fetches,
            "estimated_pages": self.route.pages,
            "estimated_cost_ms": round(self.route.cost_ms, 6),
            "error_bound": self.route.error_bound,
            "max_rmspe": self.max_rmspe,
            "candidates": [c.to_dict() for c in self.candidates],
            "rejected": [r.to_dict() for r in self.rejected],
        }


# -- pricing ---------------------------------------------------------------
#
# A route's price is what ``QueryEngine.execute`` takes to answer along
# it, profile and all: a floor for the per-query work every route does
# (plan, dispatch, profile, finalize) plus operation counts.  Counts
# follow "Tutorial: Complexity analysis of Singular Value Decomposition
# and its variants": ``|R| k`` multiply-adds for a factor sum, ``|R| k^2``
# more for a stddev Gram.  One fit to the benchmark harness's traced
# ``engine.execute`` times (phone 4,000 x 366 at a 10% budget, one BLAS
# thread, a 2-core x86-64 box; docs/ARCHITECTURE.md, "Pricing", names
# the fit's script and output) set each floor to 0.11 ms + 3.3x, and
# each rate to 3.3x, the values the planner priced with before
# (floors 0.001 / 0.002 / 0.01 ms, 1 ns a cell, 2 ns a term): every
# difference between two prices is the earlier one times 3.3, so every
# route and candidate order stays where it was.

#: Nanoseconds per value a vectorized kernel touches (a streamed
#: reconstruction's ``k + 1`` per cell, a rollup's row and column
#: totals, a delta the factor route folds).
NS_PER_CELL = 3.3
#: Nanoseconds per multiply-add of the factor GEMM.
NS_PER_FACTOR_TERM = 6.6
#: Fixed cost of a summary answer: the per-query work alone, since the
#: rollups are in memory.
SUMMARY_FLOOR_MS = 0.1133
#: Fixed cost of the factor path: two small GEMM dispatches more.
FACTOR_FLOOR_MS = 0.1166
#: Fixed cost of the blocked streaming path, the largest: its block loop
#: pays interpreter overhead the one-shot GEMM routes do not.  The
#: floors keep the small-query order summary < factor < stream.
STREAM_FLOOR_MS = 0.143

# -- planning --------------------------------------------------------------

#: Rejections whose reason depends on no query: built once, not per plan.
_NO_SUMMARY_STORE = RejectedRoute(ROUTE_SUMMARY, "backend has no summary store")
_NOT_COVERED = RejectedRoute(
    ROUTE_SUMMARY, "the per-day profile answers sum/avg/count/stddev over every row"
)
# Without its deltas a store can fold none and stream none exactly.
_LOST = "the store's open lost its deltas; no exact fold exists"
_LOST_FACTOR = RejectedRoute(ROUTE_FACTOR, _LOST)
_LOST_STREAM = RejectedRoute(ROUTE_STREAM, _LOST)
_SVD_NO_BUDGET = RejectedRoute(
    ROUTE_SVD, "approximate route needs an explicit max_rmspe budget"
)
_SVD_EXACT = RejectedRoute(ROUTE_SVD, "max_rmspe=0 demands an exact answer")
_SVD_NO_ESTIMATE = RejectedRoute(
    ROUTE_SVD, "model carries no stored RMSPE estimate to check the budget against"
)
_by_cost = attrgetter("cost_ms")


@lru_cache(maxsize=8)
def _no_factor_routes(reason: str) -> tuple[RejectedRoute, RejectedRoute]:
    """Both factor-space routes, turned down for ``reason``."""
    return RejectedRoute(ROUTE_FACTOR, reason), RejectedRoute(ROUTE_SVD, reason)


def plan_aggregate(
    backend,
    function: str,
    row_idx: np.ndarray,
    col_idx: np.ndarray,
    *,
    max_rmspe: float | None = None,
) -> QueryPlan:
    """Enumerate, price, and choose a route for one aggregate.

    Args:
        backend: the engine's data source — raw, or already resolved
            by :func:`~repro.query.backend.as_backend`.
        function: one of the supported aggregates.
        row_idx / col_idx: the resolved selection (sorted index arrays
            from :meth:`Selection.resolve`, or the engine's ``Ascending``,
            which keeps the counts of its pages and delta key runs made
            here for the execution that follows).
        max_rmspe: the caller's error budget.  None and 0.0 both mean
            "exact only"; 0.0 is also the explicit demand.  A positive
            budget admits ``svd`` when the stored estimate fits it.

    Raises:
        RouteUnavailableError: no admissible route satisfies the
            budget.  The message names every rejected route and why, so
            explain and execute fail identically and diagnosably.
    """
    if not isinstance(backend, Backend):
        backend = as_backend(backend)
    counted_store, rank = backend.pricing
    num_rows, num_cols = int(row_idx.size), int(col_idx.size)
    cells = num_rows * num_cols
    candidates: list[RouteEstimate] = []
    rejected: list[RejectedRoute] = []
    summary_plan = None

    # The factor, svd and stream routes all gather the selected rows:
    # count their pages once.  The count is reported, not priced.
    row_pages = 0
    if counted_store is not None and num_rows:
        row_pages = counted_store.pages_for_rows(row_idx)

    # -- summary route: the per-day profile answers a selection of every row.
    sstore = backend.summaries
    if sstore is None:
        rejected.append(_NO_SUMMARY_STORE)
    elif (summary_plan := sstore.plan(row_idx, col_idx, function)) is None:
        rejected.append(_NOT_COVERED)
    else:
        candidates.append(
            RouteEstimate(
                ROUTE_SUMMARY,
                cost_ms=SUMMARY_FLOOR_MS + (num_rows + num_cols) * NS_PER_CELL / 1e6,
                pages=0,
                row_fetches=0,
                error_bound=0.0,
            )
        )

    # -- factor-space routes (exact and SVD-only) ----------------------
    if function not in FACTOR_FUNCTIONS:
        rejected.extend(
            _no_factor_routes(f"{function!r} needs per-cell values, not factor sums")
        )
    elif backend.factors is None:
        rejected.extend(_no_factor_routes("backend has no factor form"))
    else:
        if function == "count":
            fetches, pages = 0, 0
            base_flops = 0.0
        else:
            # Only a paged store's factor gather fetches rows.
            fetches = num_rows if backend.paged_store is not None else 0
            pages = row_pages
            base_flops = float(num_rows) * rank
            if function == "stddev":
                base_flops += float(num_rows) * rank**2
        base_cost = FACTOR_FLOOR_MS + base_flops * NS_PER_FACTOR_TERM / 1e6
        index = backend.delta_index
        if backend.deltas_lost:
            rejected.append(_LOST_FACTOR)
        else:
            cost_ms = base_cost
            if index is not None and function != "count":
                # The fold walks the selected rows' key runs, not the
                # index: price the deltas those rows hold.
                cost_ms += index.count_in_rows(row_idx) * NS_PER_CELL / 1e6
            candidates.append(RouteEstimate(ROUTE_FACTOR, cost_ms, pages, fetches, 0.0))

        if max_rmspe is None:
            rejected.append(_SVD_NO_BUDGET)
        elif max_rmspe <= 0.0:
            rejected.append(_SVD_EXACT)
        elif (bound := backend.rmspe_estimate) is None:
            rejected.append(_SVD_NO_ESTIMATE)
        elif bound > max_rmspe:
            rejected.append(
                RejectedRoute(
                    ROUTE_SVD,
                    f"estimated rmspe {bound:.6f} exceeds the max_rmspe={max_rmspe:g} budget",
                )
            )
        else:
            candidates.append(RouteEstimate(ROUTE_SVD, base_cost, pages, fetches, bound))

    # -- row streaming -------------------------------------------------
    if backend.deltas_lost:
        rejected.append(_LOST_STREAM)
    else:
        candidates.append(
            RouteEstimate(
                ROUTE_STREAM,
                cost_ms=STREAM_FLOOR_MS + cells * (rank + 1) * NS_PER_CELL / 1e6,
                pages=row_pages,
                row_fetches=num_rows,
                error_bound=0.0,
            )
        )

    if not candidates:
        detail = "; ".join(f"{r.name}: {r.reason}" for r in rejected)
        raise RouteUnavailableError(
            f"no admissible route for aggregate {function!r} "
            f"(max_rmspe={max_rmspe!r}) — {detail}"
        )

    # Candidates arrive in ROUTES order, so a stable sort by cost breaks
    # ties by the route's preference.
    candidates.sort(key=_by_cost)
    return QueryPlan(
        route=candidates[0],
        candidates=tuple(candidates),
        rejected=tuple(rejected),
        cells=cells,
        max_rmspe=max_rmspe,
        summary_plan=summary_plan,
        row_idx=row_idx,
        col_idx=col_idx,
        backend=backend,
    )


def validate_max_rmspe(value) -> float | None:
    """Normalize a user-supplied error budget; QueryError when invalid."""
    if value is None:
        return None
    try:
        budget = float(value)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"max_rmspe must be a number, got {value!r}") from exc
    if not np.isfinite(budget) or budget < 0.0:
        raise QueryError(
            f"max_rmspe must be a finite non-negative fraction, got {budget!r}"
        )
    return budget
