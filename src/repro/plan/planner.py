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
``summary``         rollups covering the full selection    0.0 (exact)
``factor``          factor form, sum/avg/count/stddev,
                    delta fold available                   0.0 (exact)
``stream``          per-cell values (delta-corrected)      0.0 (exact)
``svd``             factor form, sum/avg/count/stddev      stored RMSPE
==================  =====================================  ===========

Admissibility is decided from backend capabilities (a store whose open
lost its deltas, ``Backend.deltas_lost``, has no delta fold and no
delta-corrected rows, so ``factor`` and ``stream`` drop out); pricing
comes from :mod:`repro.plan.cost`; the cheapest route whose error bound
fits the caller's ``max_rmspe`` budget wins, with exact routes
preferred on cost ties.  ``max_rmspe=None`` means exact only, and
``max_rmspe=0.0`` *provably* never selects ``svd``: the route is
rejected before pricing whenever the budget is not strictly positive.
Brownout is not a mode here: the serving tier passes the model's own
estimate as the budget.

Planning is side-effect free — no pages are read, no backend state
changes — so explain can call it as often as it likes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import QueryError, RouteUnavailableError
from repro.plan.cost import CostParams, flops_ms, page_read_ms
from repro.query.backend import as_backend
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


# -- planning --------------------------------------------------------------


def plan_aggregate(
    backend,
    function: str,
    row_idx: np.ndarray,
    col_idx: np.ndarray,
    *,
    max_rmspe: float | None = None,
    params: CostParams | None = None,
) -> QueryPlan:
    """Enumerate, price, and choose a route for one aggregate.

    Args:
        backend: the engine's data source — raw, or already resolved
            by :func:`~repro.query.backend.as_backend`.
        function: one of the supported aggregates.
        row_idx / col_idx: the resolved selection (sorted index arrays
            from :meth:`Selection.resolve`, or the engine's ``Ascending``).
        max_rmspe: the caller's error budget.  None and 0.0 both mean
            "exact only"; 0.0 is also the explicit demand.  A positive
            budget admits ``svd`` when the stored estimate fits it.
        params: pricing overrides (defaults derived from the backend).

    Raises:
        RouteUnavailableError: no admissible route satisfies the
            budget.  The message names every rejected route and why, so
            explain and execute fail identically and diagnosably.
    """
    backend = as_backend(backend)
    cells = int(row_idx.size) * int(col_idx.size)
    if params is None:
        params = CostParams.for_backend(backend.memory_resident)
    rank = backend.rank
    candidates: list[RouteEstimate] = []
    rejected: list[RejectedRoute] = []
    summary_plan = None

    def reject(name: str, reason: str) -> None:
        rejected.append(RejectedRoute(name, reason))

    # The factor, svd and stream routes all gather the selected rows:
    # count and price their pages once.  A mapped store's "pages" are
    # logical only — they never seek.
    row_pages, gather_ms = 0, 0.0
    priced_store = None if backend.memory_resident else backend.paged_store
    if priced_store is not None and row_idx.size:
        row_pages = priced_store.pages_for_rows(row_idx)
        gather_ms = page_read_ms(params, row_pages, priced_store.page_size)

    # -- summary route -------------------------------------------------
    sstore = backend.summaries
    if sstore is None:
        reject(ROUTE_SUMMARY, "backend has no summary store")
    else:
        summary_plan = sstore.plan(row_idx, col_idx)
        if summary_plan is None:
            reject(
                ROUTE_SUMMARY,
                "selection does not span a full axis of the rollups",
            )
        else:
            touched = int(row_idx.size) + int(col_idx.size)
            candidates.append(
                RouteEstimate(
                    ROUTE_SUMMARY,
                    cost_ms=params.summary_floor_ms
                    + flops_ms(touched, params.ns_per_cell),
                    pages=0,
                    row_fetches=0,
                    error_bound=0.0,
                )
            )

    # -- factor-space routes (exact and SVD-only) ----------------------
    factor_capable = True
    if function not in FACTOR_FUNCTIONS:
        factor_capable = False
        reason = f"{function!r} needs per-cell values, not factor sums"
        reject(ROUTE_FACTOR, reason)
        reject(ROUTE_SVD, reason)
    elif backend.factors is None:
        factor_capable = False
        reason = "backend has no factor form"
        reject(ROUTE_FACTOR, reason)
        reject(ROUTE_SVD, reason)

    # Without its deltas a store can fold none and stream none exactly.
    lost = "the store's open lost its deltas; no exact fold exists"
    if factor_capable:
        if function == "count":
            fetches, pages, read_ms = 0, 0, 0.0
            base_flops = 0.0
        else:
            # Only a paged store's factor gather fetches rows.
            fetches = int(row_idx.size) if backend.paged_store is not None else 0
            pages, read_ms = row_pages, gather_ms
            base_flops = float(row_idx.size) * max(rank, 1)
            if function == "stddev":
                base_flops += float(row_idx.size) * max(rank, 1) ** 2
        base_cost = (
            params.factor_floor_ms
            + read_ms
            + flops_ms(base_flops, params.ns_per_factor_term)
        )

        def factor_route(name: str, cost_ms: float, bound: float) -> None:
            candidates.append(RouteEstimate(name, cost_ms, pages, fetches, bound))

        index = backend.delta_index
        if backend.deltas_lost:
            reject(ROUTE_FACTOR, lost)
        elif index is None or function == "count":  # nothing to fold
            factor_route(ROUTE_FACTOR, base_cost, 0.0)
        else:
            # The fold walks the selected rows' key runs, not the index:
            # price the deltas those rows hold.
            fold_ms = flops_ms(index.count_in_rows(row_idx), params.ns_per_cell)
            factor_route(ROUTE_FACTOR, base_cost + fold_ms, 0.0)

        if max_rmspe is None:
            reject(ROUTE_SVD, "approximate route needs an explicit max_rmspe budget")
        elif max_rmspe <= 0.0:
            reject(ROUTE_SVD, "max_rmspe=0 demands an exact answer")
        elif (bound := backend.rmspe_estimate) is None:
            reject(
                ROUTE_SVD,
                "model carries no stored RMSPE estimate to check the budget against",
            )
        elif bound > max_rmspe:
            reject(
                ROUTE_SVD,
                f"estimated rmspe {bound:.6f} exceeds the max_rmspe={max_rmspe:g} budget",
            )
        else:
            factor_route(ROUTE_SVD, base_cost, bound)

    # -- row streaming -------------------------------------------------
    if backend.deltas_lost:
        reject(ROUTE_STREAM, lost)
    else:
        candidates.append(
            RouteEstimate(
                ROUTE_STREAM,
                cost_ms=params.stream_floor_ms
                + gather_ms
                + flops_ms(cells * (max(rank, 1) + 1), params.ns_per_cell),
                pages=row_pages,
                row_fetches=int(row_idx.size),
                error_bound=0.0,
            )
        )

    if not candidates:
        detail = "; ".join(f"{r.name}: {r.reason}" for r in rejected)
        raise RouteUnavailableError(
            f"no admissible route for aggregate {function!r} "
            f"(max_rmspe={max_rmspe!r}) — {detail}"
        )

    candidates.sort(key=lambda c: (c.cost_ms, ROUTES.index(c.name)))
    chosen = candidates[0]
    return QueryPlan(
        route=chosen,
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
