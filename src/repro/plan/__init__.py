"""Cost-based query planning.

The compressed store admits *multiple* ways to answer the same ad hoc
aggregate — materialized rollups, factor-space math, delta-corrected
row streaming, or the bare rank-k approximation — which is the paper's
own framing ("1 or 2 disk accesses versus 1 disk access").  This
package turns that observation into a runtime planner:
:func:`plan_aggregate` enumerates the routes a query admits against a
live backend, prices each one by the CPU work it does (a floor plus
operation counts at fixed nanosecond rates; the pages it touches are
counted, not priced), attaches a per-route error bound (0.0 for exact
routes, the model's stored RMSPE estimate for the SVD-only route), and
picks the cheapest route that satisfies the caller's ``max_rmspe``
error budget.

Every aggregate call site — :meth:`QueryEngine.aggregate`,
:meth:`QueryEngine.explain`, the serving tier's brownout dispatch, the
CLI's ``--explain`` — obtains its route from this one function, so the
explained plan *is* the executed plan by construction.
"""

from repro.plan.planner import (
    ROUTE_FACTOR,
    ROUTE_STREAM,
    ROUTE_SUMMARY,
    ROUTE_SVD,
    ROUTES,
    QueryPlan,
    RejectedRoute,
    RouteEstimate,
    plan_aggregate,
)

__all__ = [
    "QueryPlan",
    "RejectedRoute",
    "RouteEstimate",
    "ROUTES",
    "ROUTE_FACTOR",
    "ROUTE_STREAM",
    "ROUTE_SUMMARY",
    "ROUTE_SVD",
    "plan_aggregate",
]
