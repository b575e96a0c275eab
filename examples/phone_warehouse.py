#!/usr/bin/env python3
"""Decision support over a compressed calling-volume warehouse.

The paper's motivating scenario: a dataset of per-customer daily call
volumes too large to keep uncompressed, queried ad hoc by analysts.
This example builds the warehouse fully out-of-core:

1. stream customer rows to an on-disk MatrixStore (the raw warehouse);
2. run the 3-pass SVDD construction against the store — the matrix is
   never materialized in memory;
3. persist the compressed model and serve typical analyst queries,
   reporting both accuracy and disk-access counts.

Run:  python examples/phone_warehouse.py [num_customers]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    AggregateQuery,
    CompressedMatrix,
    QueryEngine,
    Selection,
    SVDDCompressor,
    query_error,
)
from repro.data.phone import iter_phone_rows
from repro.lab.workload import random_cell_queries
from repro.storage import MatrixStore


def build_warehouse(root: Path, num_customers: int) -> tuple[MatrixStore, CompressedMatrix]:
    print(f"streaming {num_customers} customers x 366 days to disk ...")
    raw = MatrixStore.create_from_rows(
        root / "warehouse.mat", iter_phone_rows(num_customers), num_cols=366
    )
    raw_bytes = root.joinpath("warehouse.mat").stat().st_size
    print(f"raw warehouse: {raw_bytes / 1e6:.1f} MB on disk")

    print("running the 3-pass SVDD construction (10% space budget) ...")
    model = SVDDCompressor(budget_fraction=0.10).fit(raw)
    print(
        f"  passes over the data: {raw.pass_count} (paper: 3)\n"
        f"  k_opt = {model.cutoff} principal components, "
        f"{model.num_deltas} outlier deltas"
    )
    compressed = CompressedMatrix.save(model, root / "compressed")
    comp_bytes = sum(f.stat().st_size for f in (root / "compressed").iterdir())
    print(
        f"compressed model: {comp_bytes / 1e6:.2f} MB on disk "
        f"({comp_bytes / raw_bytes:.1%} of raw)"
    )
    return raw, compressed


def analyst_session(raw: MatrixStore, compressed: CompressedMatrix) -> None:
    num_customers, num_days = raw.shape
    exact = QueryEngine(raw)
    approx = QueryEngine(compressed)

    print("\n--- analyst query 1: single cells (random access) ---")
    compressed.u_pool_stats.reset()
    queries = random_cell_queries(raw.shape, count=200, seed=8)
    errors = []
    for query in queries:
        truth = exact.cell(query).value
        estimate = approx.cell(query).value
        errors.append(abs(truth - estimate))
    print(
        f"200 random cells: mean abs error {np.mean(errors):.4f}, "
        f"max {np.max(errors):.4f}"
    )
    print(
        f"disk accesses for the 200 queries: "
        f"{compressed.u_pool_stats.misses} page misses "
        f"(~{compressed.u_pool_stats.misses / 200:.2f}/query)"
    )

    print("\n--- analyst query 2: weekly totals for key accounts ---")
    week = Selection(rows=range(0, 50), cols=range(7, 14))
    query = AggregateQuery("sum", week)
    truth = exact.aggregate(query).value
    estimate = approx.aggregate(query).value
    print(
        f"total volume, 50 accounts, week 2: exact {truth:.2f}, "
        f"approx {estimate:.2f} (error {query_error(truth, estimate):.4%})"
    )

    print("\n--- analyst query 3: quarter-over-quarter averages ---")
    for label, days in [("Q1", range(0, 91)), ("Q2", range(91, 182))]:
        query = AggregateQuery("avg", Selection(cols=days))
        truth = exact.aggregate(query).value
        estimate = approx.aggregate(query).value
        print(
            f"{label}: exact {truth:.4f}, approx {estimate:.4f} "
            f"(error {query_error(truth, estimate):.4%})"
        )


def main() -> None:
    num_customers = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    with tempfile.TemporaryDirectory() as tmp:
        raw, compressed = build_warehouse(Path(tmp), num_customers)
        analyst_session(raw, compressed)
        compressed.close()
        raw.close()
    print("\ndone.")


if __name__ == "__main__":
    main()
