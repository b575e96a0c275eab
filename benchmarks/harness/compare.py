"""``compare A B``: did B get worse than A, by the benchmark's own bounds?

``A`` and ``B`` are directories of result records (runs made with
``--out``), each holding at least ``MIN_RUNS`` plain runs per workload.
For every workload x end-to-end metric it prints both medians and
quartiles, how much worse B's median is, the bound, and a verdict:

- ``same`` — B's median is no worse than A's by more than the bound;
- ``worse`` — it is, and the spread does not explain it;
- ``unresolved`` — the run-to-run spread of either side is wider than
  the bound, and the sides' runs overlap.

Metrics that repeat exactly for a seed (``answer_err_mean``,
``space_ratio``, and the counted per-layer metrics of traced runs) must
be identical; theirs is ``same`` or ``differs``.  Exits 1 on any
``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from . import spec

MIN_RUNS = 3


def load(directory: Path) -> tuple[dict, dict]:
    """``{(workload, trace): {metric: [values...]}}`` and the seeds per key."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    seeds: dict = defaultdict(set)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"], record["trace"])
        seeds[key].add(record["seed"])
        for name, metric in record["metrics"].items():
            runs[key][name].append(metric["value"])
    return runs, seeds


def _quartiles(values) -> tuple[float, float, float]:
    # Inclusive: with as few as three runs the default method places
    # the quartiles outside the data.
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric: spec.Metric, a: list, b: list) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread)`` for one bounded metric."""
    sign = 1.0 if metric.better == "lower" else -1.0
    a_q1, a_med, a_q3 = _quartiles(a)
    b_q1, b_med, b_q3 = _quartiles(b)
    worse_by = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    # "Every run of one side beats every run of the other" settles a
    # comparison even when the spread is wide.
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if worse_by > metric.bound and (spread <= metric.bound or all_worse):
        return "worse", worse_by, spread
    if spread > metric.bound and not all_better and not all_worse:
        return "unresolved", worse_by, spread
    return "same", worse_by, spread


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m benchmarks.harness compare A B", file=sys.stderr)
        return 2
    (a_runs, a_seeds), (b_runs, b_seeds) = load(Path(argv[0])), load(Path(argv[1]))
    bad = 0
    for name in spec.WORKLOAD_NAMES:
        key = (name, 0)
        a, b = a_runs.get(key), b_runs.get(key)
        if not a or not b or min(len(a["setup_s"]), len(b["setup_s"])) < MIN_RUNS:
            print(f"{name}: needs >= {MIN_RUNS} plain runs in both sets", file=sys.stderr)
            return 2
        same_seeds = a_seeds[key] == b_seeds[key] and len(a_seeds[key]) == 1
        print(f"\n{name}  (A: {len(a['setup_s'])} runs, B: {len(b['setup_s'])} runs)")
        print(
            f"  {'metric':<16}{'A q1/med/q3':>34}{'B q1/med/q3':>34}"
            f"{'worse by':>10}{'bound':>7}  verdict"
        )
        for metric in spec.END_TO_END:
            av, bv = a[metric.name], b[metric.name]
            if metric.exact and same_seeds:
                result = "same" if set(av) == set(bv) and len(set(av)) == 1 else "differs"
                worse_by = 0.0
            else:
                result, worse_by, _spread = verdict(metric, av, bv)
            bad += result in ("worse", "differs")
            a_text = "/".join(f"{v:.4g}" for v in _quartiles(av))
            b_text = "/".join(f"{v:.4g}" for v in _quartiles(bv))
            print(
                f"  {metric.name:<16}{a_text:>34}{b_text:>34}"
                f"{worse_by:>+10.1%}{metric.bound:>7.0%}  {result}"
            )
        # Counted per-layer metrics, when both sets hold traced runs.
        ta, tb = a_runs.get((name, 1)), b_runs.get((name, 1))
        if ta and tb and name != "http_mix" and a_seeds[(name, 1)] == b_seeds[(name, 1)]:
            differing = [
                m.name for m in spec.PER_LAYER
                if m.exact and set(ta[m.name]) != set(tb[m.name])
            ]
            bad += bool(differing)
            summary = "differs: " + ", ".join(differing) if differing else "same"
            print(f"  counted per-layer metrics: {summary}")
    return 1 if bad else 0
