"""Command line: one run of one workload, or ``compare A B``."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import sys
import time
from pathlib import Path

import numpy as np

from repro.obs.bench import git_sha
from repro.query.executor import usable_cpu_count

from . import compare, model, spec, trace, workloads


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: model.Scale = model.FULL,
    span_path: Path | None = None,
) -> dict:
    """One run; the record ``main`` prints and ``--out`` stores."""
    raw = model.raw_matrix(scale)
    with model.scratch_dir() as scratch:
        run = workloads.Run(
            scale=scale, seed=seed, raw=raw, scratch=scratch,
            sensitivity=spec.workload(name).speed_sensitivity,
        )
        try:
            if traced:
                values = trace.PHASES[name](run, span_path)
            else:
                workloads.PHASES[name](run, seconds)
                values = run.metrics()
        finally:
            workloads.stop_child(run)
    exits = run.child_exit_codes
    finite = all(math.isfinite(value) for value in values.values())
    return {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "facts": {
            "git_sha": git_sha(model.REPO_ROOT),
            "nproc": os.cpu_count(),
            "usable_cpus": usable_cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "model": f"phone {scale.rows}x{scale.cols} budget {spec.BUDGET_FRACTION}",
            "client_threads": spec.CLIENT_THREADS,
            "serve_workers": spec.SERVE_WORKERS,
            "seconds": seconds,
            "passes": run.extra.get("passes", 0),
            "samples": run.samples,
            "serve_exit_codes": exits,
            **{
                key: value for key, value in run.extra.items()
                if key.startswith(("raw_", "speed_", "steal_", "stolen_"))
            },
        },
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "correct": run.failed == 0 and finite and not any(exits),
        "metrics": {
            key: {"value": value, "unit": spec.UNITS[key]} for key, value in values.items()
        },
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.harness")
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: replay a sample under spans and print the per-layer metrics",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory for the result record (and the traced run's spans; "
        "those default to benchmarks/harness/out/)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    args = _parser().parse_args(argv)
    # A terminated run must still stop its serve child and remove its
    # scratch directory: turn SIGTERM into an exit that unwinds.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = args.out or model.HARNESS_DIR / "out"
    stem = f"{args.workload}-seed{args.seed}"
    span_path = out / f"spans-{stem}.jsonl" if args.trace else None
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), span_path=span_path
    )
    for key, value in record["facts"].items():
        print(f"# {key}: {value}")
    for key, metric in record["metrics"].items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        kind = "trace" if args.trace else "plain"
        path = args.out / f"{stem}-{kind}-{time.time_ns()}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if record["correct"] else 1
