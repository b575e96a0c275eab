#!/usr/bin/env python3
"""Extensions walkthrough: robust axes, appends, fast aggregates.

Covers the features beyond the paper's core evaluation:

1. **Robust SVD** (future-work item b): a whale customer tilts plain
   SVD's axes; winsorized axes fix the bulk and hand the whale to the
   delta table.
2. **Appends** (beyond the paper's off-line rebuild): fold new days
   and new customers into a model directory in place, and watch the
   drift that says when a rebuild is due.
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
from repro.core import CompressedMatrix, SVDCompressor, SVDDCompressor, build_compressed
from repro.core.update import append_columns, append_rows
from repro.lab.robust import RobustSVDCompressor
from repro.data import phone_matrix


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
    print("=== 2. appends to a model directory ===")
    data = phone_matrix(800)
    rng = np.random.default_rng(9)
    with tempfile.TemporaryDirectory() as tmp:
        model_dir = Path(tmp) / "model"
        build_compressed(data[:, :359], model_dir, budget_fraction=0.10).close()
        week = append_columns(model_dir, data[:, 359:])  # a new week of days
        newcomers = data[rng.integers(0, 800, 20)] * rng.lognormal(0.0, 0.25, (20, 366))
        customers = append_rows(model_dir, newcomers)
        for result in (week, customers):
            print(
                f"  appended {result.appended} {result.kind}: shape "
                f"{result.rows}x{result.cols}, drift {result.drift:.2e}, "
                f"rebuild_recommended {result.rebuild_recommended}"
            )
        with CompressedMatrix.open(model_dir) as store:
            print(
                f"  stated RMSPE {store.rmspe_estimate:.4f}; a rebuild is "
                f"build_compressed over the grown data\n"
            )


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
