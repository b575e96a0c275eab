"""Quartiles, ratio of medians and wins for alternating pairs.

Reads the records ``pairs.py`` wrote under ``OUT/parent[-SEED]`` and
``OUT/change[-SEED]``, pairs them in run order, and prints, per
workload, seed and trace mode, each end-to-end metric's parent and
change quartiles (q1/median/q3), the parent's IQR, the ratio of
medians, how many pairs the change won and every run's value::

    python summarize.py OUT
"""

from __future__ import annotations

import collections
import json
import statistics
import sys
from pathlib import Path

METRICS = {
    "ops_per_s": "higher",
    "latency_p50_ms": "lower",
    "setup_s": "lower",
    "peak_rss_mb": "lower",
    "answer_err_mean": "lower",
    "space_ratio": "lower",
}


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str]) -> None:
    out = Path(argv[0])
    runs = collections.defaultdict(lambda: {"parent": [], "change": []})
    for side in ("parent", "change"):
        for directory in sorted(out.glob(f"{side}*")):
            for path in sorted(directory.glob("*.json"), key=lambda p: int(p.stem.rsplit("-", 1)[1])):
                record = json.loads(path.read_text())
                key = (record["workload"], record["seed"], record["trace"])
                runs[key][side].append(record)
    for (workload, seed, trace), sides in sorted(runs.items()):
        parent, change = sides["parent"], sides["change"]
        print(f"{workload} seed {seed} trace {trace}: {len(parent)} parent / {len(change)} change runs")
        failed = [r["failed"] for r in parent + change]
        print(f"  failed {sum(failed)}  correct {all(r['correct'] for r in parent + change)}")
        if trace or len(parent) < 2 or len(change) < 2:
            continue
        for name, better in METRICS.items():
            old = [r["metrics"][name]["value"] for r in parent]
            new = [r["metrics"][name]["value"] for r in change]
            p1, pm, p3 = _quartiles(old)
            c1, cm, c3 = _quartiles(new)
            wins = sum(
                (n > o) if better == "higher" else (n < o) for o, n in zip(old, new)
            )
            ratio = cm / pm if pm else float("nan")
            print(
                f"  {name:16} parent {p1:.6g}/{pm:.6g}/{p3:.6g} (IQR {p3 - p1:.4g})  "
                f"change {c1:.6g}/{cm:.6g}/{c3:.6g}  ratio {ratio:.4f}  "
                f"change wins {wins}/{min(len(old), len(new))}  |dmed| {abs(cm - pm):.4g}"
            )
            if name in ("ops_per_s", "setup_s", "peak_rss_mb", "latency_p50_ms"):
                print("    parent runs: " + " ".join(f"{v:.6g}" for v in old))
                print("    change runs: " + " ".join(f"{v:.6g}" for v in new))
        print(
            "  passes parent", [r["facts"]["passes"] for r in parent],
            "change", [r["facts"]["passes"] for r in change],
        )


if __name__ == "__main__":
    main(sys.argv[1:])
