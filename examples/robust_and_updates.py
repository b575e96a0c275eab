#!/usr/bin/env python3
"""Extensions walkthrough: robust axes, batched updates, fast aggregates.

Covers the features beyond the paper's core evaluation:

1. **Robust SVD** (future-work item b): a whale customer tilts plain
   SVD's axes; winsorized axes fix the bulk and hand the whale to the
   delta table.
2. **Batched off-line updates** (the paper's update model): patch cells,
   append customers, rebuild in one scan.
3. **Factor-space aggregates**: the same answer as row streaming,
   computed straight from U, Lambda, V.

Run:  python examples/robust_and_updates.py
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import QueryEngine, AggregateQuery, Selection, rmspe
from repro.core import SVDCompressor, SVDDCompressor
from repro.lab.robust import RobustSVDCompressor
from repro.lab.updates import BatchUpdater
from repro.data import phone_matrix
from repro.storage import MatrixStore


def robust_demo() -> None:
    print("=== 1. robust axes vs the whale customer ===")
    data = phone_matrix(1000).copy()
    rng = np.random.default_rng(3)
    data[13] = rng.random(data.shape[1]) * data.max() * 50  # the whale
    bulk = np.ones(1000, dtype=bool)
    bulk[13] = False

    plain = SVDCompressor(k=2).fit(data)
    robust = RobustSVDCompressor(k=2, clip_percentile=99).fit(data)
    print(
        f"  bulk RMSPE at k=2: plain {rmspe(data[bulk], plain.reconstruct()[bulk]):.4f} "
        f"vs robust {rmspe(data[bulk], robust.reconstruct()[bulk]):.4f}"
    )
    print("  (the whale stops tilting the axes; SVDD deltas store it exactly)\n")


def updates_demo() -> None:
    print("=== 2. batched off-line updates ===")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = MatrixStore.create(root / "v1.mat", phone_matrix(800))
        updater = BatchUpdater(store)
        updater.update_cell(5, 100, 999.0)  # a correction
        new_customer = np.abs(np.random.default_rng(9).random(366) * 20)
        new_index = updater.append_row(new_customer)
        new_store, model = updater.rebuild(
            root / "v2.mat", compressor=SVDDCompressor(budget_fraction=0.10)
        )
        print(
            f"  rebuilt in {store.pass_count} scan(s) of the old store; "
            f"new shape {new_store.shape}"
        )
        print(
            f"  corrected cell now reconstructs to "
            f"{model.reconstruct_cell(5, 100):.1f} (target 999.0)"
        )
        print(f"  appended customer lives at row {new_index}\n")
        new_store.close()
        store.close()


def fastpath_demo() -> None:
    print("=== 3. factor-space aggregates ===")
    data = phone_matrix(2000)
    model = SVDDCompressor(budget_fraction=0.10).fit(data)
    query = AggregateQuery("avg", Selection(rows=range(0, 1500), cols=range(50, 200)))

    engine = QueryEngine(model)
    t0 = time.perf_counter()
    fast_value = engine.aggregate(query).value  # the planner picks factor
    t1 = time.perf_counter()
    # The streamed reference: the same plan, forced onto its stream route.
    plan = engine.plan(query)
    (stream,) = [c for c in plan.candidates if c.name == "stream"]
    forced = dataclasses.replace(plan, route=stream)
    slow_value = engine.execute(query, plan=forced).value
    t2 = time.perf_counter()
    print(f"  factor space : {fast_value:.6f} in {(t1 - t0) * 1e3:.2f} ms")
    print(f"  row streaming: {slow_value:.6f} in {(t2 - t1) * 1e3:.2f} ms")
    print(f"  speedup: {(t2 - t1) / max(t1 - t0, 1e-9):.0f}x, identical answers\n")


if __name__ == "__main__":
    robust_demo()
    updates_demo()
    fastpath_demo()
    print("done.")
