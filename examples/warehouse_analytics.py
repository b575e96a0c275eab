#!/usr/bin/env python3
"""A multi-dataset warehouse with calendar analytics and error auditing.

Puts the operational surface together:

1. a :class:`Warehouse` holding several compressed datasets with a
   persistent catalog;
2. calendar-phrased queries (the paper's 'week ending July 12' style)
   through the textual query language and calendar helpers;
3. error profiling: which customers/days approximate worst, do the
   deltas cover them, and does the certified bound hold.

Run:  python examples/warehouse_analytics.py
"""

from __future__ import annotations

import datetime
import tempfile

from repro import AggregateQuery, QueryEngine, Selection, query_error
from repro.data import phone_matrix, stocks_matrix
from repro.metrics import delta_coverage, error_profile
from repro.query import parse_query
from repro.lab.calendar import month_columns, week_columns, weekday_columns
from repro.lab.warehouse import Warehouse


def build(warehouse: Warehouse) -> None:
    print("=== ingesting datasets ===")
    for name, matrix, budget in (
        ("calls", phone_matrix(1500), 0.10),
        ("stocks", stocks_matrix(381), 0.10),
    ):
        entry = warehouse.ingest(name, matrix, budget_fraction=budget)
        print(
            f"  {name:7s} {entry.rows}x{entry.cols}  k={entry.cutoff}  "
            f"deltas={entry.num_deltas}  verified RMSPE={entry.verified_rmspe:.4f}"
        )
    print(f"  total model bytes: {warehouse.total_model_bytes() / 1e6:.2f} MB\n")


def calendar_queries(warehouse: Warehouse) -> None:
    print("=== calendar analytics on 'calls' (column 0 = 1996-01-01) ===")
    model = warehouse.open("calls")
    raw = warehouse.open_raw("calls")
    approx = QueryEngine(model)
    exact = QueryEngine(raw)
    start = datetime.date(1996, 1, 1)

    july12 = (datetime.date(1996, 7, 12) - start).days
    week = Selection(rows=range(200), cols=week_columns(july12, 366))
    query = AggregateQuery("sum", week)
    truth, estimate = exact.aggregate(query).value, approx.aggregate(query).value
    print(
        f"  week ending 1996-07-12, 200 accounts: exact {truth:.1f}, "
        f"approx {estimate:.1f} (err {query_error(truth, estimate):.3%})"
    )

    march = Selection(cols=month_columns(1996, 3, start, 366))
    query = AggregateQuery("avg", march)
    truth, estimate = exact.aggregate(query).value, approx.aggregate(query).value
    print(
        f"  March average volume: exact {truth:.4f}, approx {estimate:.4f} "
        f"(err {query_error(truth, estimate):.3%})"
    )

    weekdays = Selection(cols=weekday_columns(366))
    query = AggregateQuery("avg", weekdays)
    print(
        f"  weekday average: {approx.aggregate(query).value:.4f} "
        f"(factor-space fast path: {approx.stats['fast_path_hits']} hits)"
    )

    textual = parse_query("stddev() rows 0:500")
    print(
        f"  textual query 'stddev() rows 0:500' -> "
        f"{approx.aggregate(textual).value:.4f}\n"
    )
    model.close()
    raw.close()


def audit(warehouse: Warehouse) -> None:
    print("=== error audit on 'calls' ===")
    report = warehouse.verify("calls")
    print("  " + report.summary().replace("\n", "\n  "))

    model = warehouse.open("calls")
    raw = warehouse.open_raw("calls")
    profile = error_profile(raw.read_all(), model.reconstruct_all())
    print(
        f"  worst customers: {profile.worst_rows(5).tolist()}  "
        f"(top 1% of rows carry {profile.row_concentration(0.01):.1%} "
        "of squared error)"
    )
    model.close()
    raw.close()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        warehouse = Warehouse(tmp)
        build(warehouse)
        calendar_queries(warehouse)
        audit(warehouse)
    print("\ndone.")
