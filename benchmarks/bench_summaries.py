"""Summary store speedup: dashboard aggregates without touching u.mat.

The whole point of materializing time-hierarchy rollups is that the
decision-support queries the paper motivates ('total volume per month',
'who are our biggest customers') stop paying O(N) factor work per
query.  This bench builds the phone model at scale-up size, measures a
covered aggregate on the summary route vs the factor route, asserts
the >=10x speedup and the zero-page property, and checks that the
store an append builds is byte-identical to a ``summarize --rebuild``
of the same model.
"""

from __future__ import annotations

import dataclasses
import shutil
import time

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.core import CompressedMatrix, build_compressed
from repro.core.update import append_columns
from repro.data import phone_matrix
from repro.obs import registry
from repro.query import AggregateQuery, QueryEngine, Selection, bucket_series
from repro.summaries import SUMMARY_FILES, summarize_directory

ROWS = 20_000
COLS = 366
NEW_DAYS = 7
BUDGET = 0.10
REPEATS = 25


def _time_aggregates(answer, queries, repeats=REPEATS) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        for query in queries:
            answer(query)
    return (time.perf_counter() - start) / (repeats * len(queries))


def _off_summary(engine):
    """Answer a query along its cheapest route that is not the rollups',
    planned on every call so the timing still includes planning."""

    def answer(query):
        plan = engine.plan(query)
        route = next(c for c in plan.candidates if c.name != "summary")
        return engine.execute(query, plan=dataclasses.replace(plan, route=route))

    return answer


def test_summary_vs_factor_path(tmp_path_factory, benchmark):
    root = tmp_path_factory.mktemp("summaries")
    data = phone_matrix(ROWS)
    build_compressed(data, root / "model", BUDGET).close()

    # The dashboard workload: aggregates over every customer and a day range.
    queries = [
        AggregateQuery("sum", Selection(cols=range(0, 28))),
        AggregateQuery("avg", Selection(cols=range(28, 120))),
        AggregateQuery("sum", Selection()),
        AggregateQuery("stddev", Selection(cols=range(0, COLS, 2))),
    ]
    full_max = AggregateQuery("max", Selection())

    registry.enable()
    try:
        with CompressedMatrix.open(root / "model") as store:
            summary_engine = QueryEngine(store)

            # Covered queries must plan and execute as path=summary with
            # zero pages read — the acceptance property.
            for query in queries:
                plan = summary_engine.explain(query)
                assert plan["path"] == "summary", plan
            # The store keeps sums: a max over every cell streams, and it
            # is the dense reconstruction's.
            assert summary_engine.explain(full_max)["path"] == "stream"
            dense_max = store.reconstruct_all().max()
            assert summary_engine.aggregate(full_max).value == dense_max
            store.u_pool_stats.reset()
            result = summary_engine.aggregate(queries[0])
            pages_read = store.u_pool_stats.accesses
            assert pages_read == 0, f"summary hit read {pages_read} u.mat pages"
            assert result.rows_fetched == 0

            summary_s = _time_aggregates(summary_engine.aggregate, queries)
            factor_s = _time_aggregates(
                _off_summary(summary_engine), queries, repeats=3
            )
            # The first call buckets the month level out of the column
            # profile; every later one reads the kept rollup.
            first_start = time.perf_counter()
            series = bucket_series(store, "month", "sum")
            first_groupby_s = time.perf_counter() - first_start
            assert series["path"] == "summary"
            groupby_s = _time_aggregates(
                lambda level: bucket_series(store, level, "sum"), ["month"]
            )
    finally:
        registry.disable()

    speedup = factor_s / summary_s

    # Append a week, then diff the summary files against a rebuild of
    # the same model — byte-identical.
    rng = np.random.default_rng(17)
    new_days = data[:, :NEW_DAYS] * (
        1.0 + 0.05 * rng.standard_normal((ROWS, NEW_DAYS))
    )
    # The same append with the refresh deferred, on a pre-append copy:
    # the difference isolates the append's summary build from the rest
    # of the append.
    norefresh = root / "norefresh"
    shutil.copytree(root / "model", norefresh)
    append_start = time.perf_counter()
    append_columns(root / "model", new_days)
    append_refresh_s = time.perf_counter() - append_start
    norefresh_start = time.perf_counter()
    append_columns(norefresh, new_days, refresh_summaries=False)
    append_norefresh_s = time.perf_counter() - norefresh_start
    refresh_s = append_refresh_s - append_norefresh_s
    cold = root / "cold"
    shutil.copytree(root / "model", cold)
    rebuild_start = time.perf_counter()
    summarize_directory(cold, rebuild=True)
    summarize_rebuild_s = time.perf_counter() - rebuild_start
    identical = all(
        (root / "model" / name).read_bytes() == (cold / name).read_bytes()
        for name in SUMMARY_FILES
    )
    assert identical, "post-append summaries differ from a cold rebuild"

    lines = format_table(
        f"Summary store vs factor path on phone{ROWS} ({COLS} days, "
        f"s={BUDGET:.0%})",
        ["route", "ms/query", "u.mat pages"],
        [
            ["summary", f"{summary_s * 1e3:.3f}", "0"],
            ["factor", f"{factor_s * 1e3:.3f}", f"~{ROWS}"],
        ],
    )
    lines.append(
        f"speedup: {speedup:.0f}x   first groupby(month): "
        f"{first_groupby_s * 1e3:.2f} ms   groupby(month): {groupby_s * 1e3:.3f} ms   "
        f"append+refresh: {append_refresh_s:.2f}s = append "
        f"{append_norefresh_s:.2f}s + refresh {refresh_s:.2f}s "
        f"(cold summarize {summarize_rebuild_s:.2f}s)   "
        f"post-append bit-identical: {identical}"
    )
    emit("summaries", lines)
    # Acceptance: the summary route is >=10x the factor route on
    # dashboard aggregates and never touches u.mat.
    assert speedup >= 10.0, f"summary speedup only {speedup:.1f}x"

    with CompressedMatrix.open(root / "model") as store:
        engine = QueryEngine(store)
        benchmark.pedantic(
            lambda: engine.aggregate(queries[0]), rounds=30, iterations=5
        )
