"""The traced records of ``at_scale/``: cost ratio, and what else moved.

For each workload and model size, prints each side's
``plan.planner.cost_ratio_p50`` (median and every run) and, across every
parent and change run, the counted per-layer metrics that differ: a
metric is counted when its unit is no time and no timed share (the
list below).  Counted metrics must repeat run to run on one side and
between the sides.

    python benchmarks/results/harness/PR54/summarize.py AT_SCALE_DIR
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

#: Per-layer metrics that are timed although their unit is not a time.
TIMED = {
    "plan.planner.cost_ratio_p50", "harness.speed_factor", "core.build.rows_per_s",
    "query.fastpath.gather_share", "query.fastpath.gemm_share", "query.fastpath.delta_share",
    "query.engine.unattributed_share", "obs.trace_overhead_share",
    "serve.admission.shed_share", "serve.admission.queue_depth_max",
}
TIME_UNITS = {"s", "ms", "us", "ns"}


def main(argv: list[str]) -> int:
    root = Path(argv[0])
    runs = defaultdict(lambda: defaultdict(list))
    for side in ("parent", "change"):
        for path in sorted((root / side).glob("*-trace-*.json")):
            record = json.loads(path.read_text())
            rows = int(record["facts"]["model"].split()[1].split("x")[0])
            runs[(record["workload"], rows)][side].append(record)
    moved_any = False
    for (workload, rows), sides in sorted(runs.items()):
        print(f"{workload} at {rows:,} rows")
        for side in ("parent", "change"):
            ratios = [r["metrics"]["plan.planner.cost_ratio_p50"]["value"] for r in sides[side]]
            failed = sum(r["failed"] for r in sides[side])
            print(f"  {side:6} cost_ratio_p50 {statistics.median(ratios):10.4g}  "
                  f"runs {[float(f'{x:.4g}') for x in ratios]}  failed {failed}")
        every = sides["parent"] + sides["change"]
        counted = [
            name for name, metric in every[0]["metrics"].items()
            if metric["unit"] not in TIME_UNITS and name not in TIMED
        ]
        moved = [
            name for name in counted
            if len({r["metrics"][name]["value"] for r in every}) > 1
        ]
        moved_any = moved_any or bool(moved)
        print(f"  {len(counted)} counted metrics over {len(every)} runs; differ: {moved or 'none'}")
    return 1 if moved_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
