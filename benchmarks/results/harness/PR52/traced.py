"""Median (q1-q3) of per-layer metrics over traced runs, per side.

Reads the traced records ``pairs.py`` wrote under ``OUT/parent`` and
``OUT/change`` and prints, per workload, each metric named below as
the parent's and the change's median with quartiles, and the same
divided by each run's ``harness.speed_factor``::

    python traced.py OUT
"""

from __future__ import annotations

import collections
import json
import statistics
import sys
from pathlib import Path

METRICS = {
    "http_mix": (
        "serve.server.http_ms_p50",
        "serve.server.http_overhead_us_p50",
        "serve.robust.dispatch_overhead_us_p50",
        "query.engine.execute_ms_p50",
        "serve.server.latency_p95_ms",
        "obs.trace_overhead_share",
    ),
    "adhoc_agg": ("obs.trace_overhead_share", "query.engine.execute_ms_p50", "plan.planner.plan_us_p50"),
    "point_zipf": ("obs.trace_overhead_share", "query.engine.cell_us_p50", "core.store.cell_us_p50"),
}


def _line(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} ({q1:.4g}-{q3:.4g})"


def main(argv: list[str]) -> None:
    out = Path(argv[0])
    runs = collections.defaultdict(list)
    for side in ("parent", "change"):
        for path in sorted((out / side).glob("*-trace-*.json")):
            record = json.loads(path.read_text())
            runs[record["workload"], side].append(record["metrics"])
    for workload, names in METRICS.items():
        parent, change = runs[workload, "parent"], runs[workload, "change"]
        if not parent or not change:
            continue
        print(f"{workload}: {len(parent)} parent / {len(change)} change traced runs")
        for name in names + ("harness.speed_factor",):
            old = [m[name]["value"] for m in parent]
            new = [m[name]["value"] for m in change]
            print(f"  {name:40} parent {_line(old):28} change {_line(new)}")
            if name in ("serve.server.http_ms_p50",):
                old_c = [m[name]["value"] / m["harness.speed_factor"]["value"] for m in parent]
                new_c = [m[name]["value"] / m["harness.speed_factor"]["value"] for m in change]
                print(f"  {name + ' / speed_factor':40} parent {_line(old_c):28} change {_line(new_c)}")


if __name__ == "__main__":
    main(sys.argv[1:])
