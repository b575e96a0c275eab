"""Figure 9: aggregate-query error vs space overhead (SVDD), with the
single-cell RMSPE series for comparison, plus the Section 5.2 sampling
baseline at matched budgets.

Workload: 50 'avg' queries over random row/column selections tuned to
cover ~10% of the cells (the paper's setup).  Expected shape: aggregate
error well below the single-cell RMSPE at every budget (errors cancel
on aggregation), under 0.5% even at ~2% space; uniform sampling is far
worse at the same space.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.core import SVDDCompressor
from repro.exceptions import QueryError
from repro.metrics import query_error, rmspe
from repro.query import QueryEngine
from repro.lab.sampling import UniformSamplingEstimator
from repro.lab.workload import random_aggregate_queries

BUDGETS = (0.02, 0.05, 0.10, 0.15, 0.20)


def _mean_query_error(answerer, exact: QueryEngine, queries) -> float:
    errors = []
    for query in queries:
        truth = exact.aggregate(query).value
        try:
            estimate = answerer.aggregate(query).value
        except QueryError:
            errors.append(1.0)  # unanswerable counts as a total miss
            continue
        errors.append(query_error(truth, estimate))
    return float(np.mean(errors))


def test_fig9_aggregate_error(phone2000, benchmark):
    exact = QueryEngine(phone2000)
    queries = random_aggregate_queries(phone2000.shape, count=50, target_fraction=0.10)
    rows = []
    aggregate_errors = []
    cell_errors = []
    for budget in BUDGETS:
        model = SVDDCompressor(budget_fraction=budget).fit(phone2000)
        engine = QueryEngine(model)
        agg_err = _mean_query_error(engine, exact, queries)
        cell_err = rmspe(phone2000, model.reconstruct())
        sampler = UniformSamplingEstimator(phone2000, budget)
        sample_err = _mean_query_error(sampler, exact, queries)
        aggregate_errors.append(agg_err)
        cell_errors.append(cell_err)
        rows.append(
            [
                f"{budget:.0%}",
                f"{agg_err:.5f}",
                f"{cell_err:.4f}",
                f"{sample_err:.4f}",
            ]
        )
    lines = format_table(
        "Figure 9: aggregate (avg) query error vs space (phone2000, 50 queries)",
        ["s%", "SVDD Qerr", "cell RMSPE", "sampling Qerr"],
        rows,
    )
    emit("fig9_aggregate", lines)

    # Aggregation cancels errors: Qerr well below single-cell RMSPE everywhere.
    assert all(a < c for a, c in zip(aggregate_errors, cell_errors))
    # The paper's headline: < 0.5% error at ~2% space.
    assert aggregate_errors[0] < 0.005

    model = SVDDCompressor(budget_fraction=0.10).fit(phone2000)
    engine = QueryEngine(model)
    benchmark(lambda: engine.aggregate(queries[0]))
