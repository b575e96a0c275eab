#!/usr/bin/env python3
"""Quickstart: compress a time-sequence matrix with SVDD and query it.

Walks the paper's own toy example (Table 1) and then a realistic
synthetic workload end to end:

1. fit SVDD at a 10:1 compression target;
2. reconstruct individual cells (the 'ad hoc query' the paper enables);
3. run an aggregate query and compare with the exact answer;
4. persist the model to disk and reopen it.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import (
    AggregateQuery,
    QueryEngine,
    Selection,
    SVDCompressor,
    SVDDCompressor,
    query_error,
    rmspe,
)
from repro.core import build_compressed
from repro.data import TOY_COLUMNS, TOY_CUSTOMERS, phone_matrix, toy_matrix


def toy_example() -> None:
    """The paper's Table 1 matrix and its rank-2 SVD (Eq. 5)."""
    print("=== Table 1 toy matrix ===")
    matrix = toy_matrix()
    model = SVDCompressor(k=5).fit(matrix)
    print(f"shape: {matrix.shape}, detected rank: {model.cutoff}")
    print(f"eigenvalues: {np.round(model.eigenvalues, 2)}  (paper: [9.64 5.29])")
    # 'What was the amount of sales to GHI Inc. on Friday?'
    ghi, friday = TOY_CUSTOMERS.index("GHI Inc."), TOY_COLUMNS.index("Fr")
    print(
        f"GHI Inc. on Fr: actual {matrix[ghi, friday]:.2f}, "
        f"reconstructed {model.reconstruct_cell(ghi, friday):.2f}"
    )
    print()


def warehouse_example() -> None:
    """A 2000-customer calling-volume warehouse at 10:1 compression."""
    print("=== Synthetic warehouse (2000 customers x 366 days) ===")
    data = phone_matrix(2000)

    model = SVDDCompressor(budget_fraction=0.10).fit(data)
    print(
        f"SVDD kept k={model.cutoff} principal components and "
        f"{model.num_deltas} outlier deltas "
        f"({model.space_fraction():.1%} of original space)"
    )
    print(f"overall RMSPE: {rmspe(data, model.reconstruct()):.2%}")

    # Single-cell ad hoc query.
    customer, day = 1234, 200
    print(
        f"cell ({customer}, {day}): actual {data[customer, day]:.3f}, "
        f"reconstructed {model.reconstruct_cell(customer, day):.3f}"
    )

    # Aggregate query: average volume of 100 customers over one month.
    query = AggregateQuery(
        "avg", Selection(rows=range(100, 200), cols=range(30, 60))
    )
    exact = QueryEngine(data).aggregate(query).value
    approx = QueryEngine(model).aggregate(query).value
    print(
        f"aggregate avg: exact {exact:.4f}, approximate {approx:.4f} "
        f"(error {query_error(exact, approx):.4%})"
    )

    # Build the model directory (the same compressor, U streamed to
    # disk): V/Lambda/deltas pinned in memory, U paged on disk.
    with tempfile.TemporaryDirectory() as tmp:
        store = build_compressed(data, tmp + "/model", budget_fraction=0.10)
        print(
            f"persisted model: cell (0, 0) -> {store.cell(0, 0):.3f} "
            f"in {store.u_pool_stats.misses} disk access(es)"
        )
        store.close()
    print()


if __name__ == "__main__":
    toy_example()
    warehouse_example()
    print("done.")
