"""The harness's workloads at another model size, with traced medians.

The harness builds one model, phone 4,000 x 366.  This script runs one
of its workloads on phone ``--rows`` x 366 through the harness's own
entry point, ``benchmarks.harness.cli.run_workload(name, seed, seconds,
traced, scale=Scale(rows=N))``, and writes each record as the
harness's ``--out`` does (the same JSON, whose ``facts.model`` names
the size).  After the traced runs (``--traced``, 3 or more) it prints
each timed per-layer metric as its median and interquartile range:
a report beside ``compare``, not a verdict.

    python3 -m benchmarks.at_scale --workload adhoc_agg --rows 100000 \\
        --plain 1 --traced 3 --out DIR

Run from the repository root.  Like the harness it pins BLAS to one
thread and finds ``src/`` itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from benchmarks.harness import cli, model, spec  # noqa: E402

#: Per-layer metrics that are times (the rest are counts and shares).
TIMED = tuple(m.name for m in spec.PER_LAYER if m.unit in ("s", "ms", "us", "ns"))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.at_scale")
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--plain", type=int, default=1, help="plain runs")
    parser.add_argument("--traced", type=int, default=3, help="traced runs")
    parser.add_argument("--out", type=Path, required=True, help="directory for the records")
    return parser


def quartiles(values: list[float]) -> str:
    """``median (q1-q3)``; the median alone below three values."""
    if len(values) < 3:
        return f"{statistics.median(values):.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} ({q1:.4g}-{q3:.4g})"


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    scale = model.Scale(rows=args.rows)
    traced_runs, correct = [], True
    for traced in [False] * args.plain + [True] * args.traced:
        span_path = model.HARNESS_DIR / "out" / f"spans-{stem}.jsonl" if traced else None
        record = cli.run_workload(
            args.workload, args.seed, args.seconds, traced, scale=scale, span_path=span_path
        )
        kind = "trace" if traced else "plain"
        path = args.out / f"{stem}-{kind}-{time.time_ns()}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"{path.name}: {record['facts']['model']}, correct {record['correct']}, "
              f"{record['failed']}/{record['attempted']} failed")
        correct = correct and record["correct"]
        if traced:
            traced_runs.append(record["metrics"])
    for name in TIMED:
        values = [metrics[name]["value"] for metrics in traced_runs if name in metrics]
        if any(values):  # a workload leaves the layers it does not run at 0
            print(f"  {name:44} {quartiles(values)} {traced_runs[0][name]['unit']}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
