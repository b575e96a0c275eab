"""Alternating parent/change pairs of one harness workload.

Runs ``python3 -m benchmarks.harness --workload W --seed S --seconds T
--trace X --out OUT/<side>`` in each of two checkouts, one run at a
time, alternating which side goes first (odd pairs the parent).  Every
run's output is kept as ``OUT/logs/<side>-<workload>-s<seed>-t<trace>-<pair>.log``,
whether or not it wrote a record.  Usage::

    python pairs.py PARENT_DIR CHANGE_DIR OUT WORKLOAD SEED PAIRS [SECONDS [TRACE]]
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path


def main(argv: list[str]) -> None:
    parent, change, out, workload, seed, pairs = argv[:6]
    seconds = argv[6] if len(argv) > 6 else "15"
    trace = argv[7] if len(argv) > 7 else "0"
    suffix = "" if seed == "1997" else f"-{seed}"
    logs = Path(out) / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    for pair in range(1, int(pairs) + 1):
        sides = [("parent", parent), ("change", change)]
        if pair % 2 == 0:
            sides.reverse()
        for side, tree in sides:
            command = [
                sys.executable, "-m", "benchmarks.harness", "--workload", workload,
                "--seed", seed, "--seconds", seconds, "--trace", trace,
                "--out", str(Path(out).resolve() / f"{side}{suffix}"),
            ]
            log = logs / f"{side}-{workload}-s{seed}-t{trace}-{pair}.log"
            with open(log, "w") as sink:
                code = subprocess.call(
                    command, cwd=tree, stdout=sink, stderr=subprocess.STDOUT
                )
            print(f"pair {pair} {side} {workload} seed {seed}: exit {code}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
