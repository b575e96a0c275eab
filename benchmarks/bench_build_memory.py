"""Peak resident memory of a build, phase by phase.

Each model size runs in a fresh child process, which records its
``ru_maxrss`` high-water mark after each phase: the imports, the data
(``phone_matrix``), ``build_compressed`` at s = 10% (timed: ``build_s``),
``CompressedMatrix.open`` and a dense ``reconstruct_all``.  The mark
only rises, so a phase that adds nothing to it did not set it; "build
adds" is the build's mark over the data's (pass 2's histograms hold a
few hundred kilobytes: what grows with N is k_opt's deltas, in pass 3
and as the model writes them).  Three children per size; the table
prints each phase's median mark and the fastest build.

    PYTHONPATH=src:. python benchmarks/bench_build_memory.py [ROWS ...]

Rows default to 4000 (the harness model's 4000 x 366), 20000 and
100000 (the paper's N).  One BLAS thread.  Writes
``benchmarks/results/build_memory.txt``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

COLS = 366
BUDGET = 0.10
RUNS = 3
PHASES = ("imports", "data", "build", "open", "reconstruct")


def _mark_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(rows: int) -> dict:
    """One size's phases in this (fresh) process."""
    marks = {}
    from repro.core import CompressedMatrix
    from repro.core.build import build_compressed
    from repro.data.phone import PhoneConfig, phone_matrix

    marks["imports"] = _mark_mb()
    raw = phone_matrix(rows, PhoneConfig(num_days=COLS))
    marks["data"] = _mark_mb()
    with tempfile.TemporaryDirectory() as work:
        directory = Path(work) / "m"
        start = time.perf_counter()
        build_compressed(raw, directory, budget_fraction=BUDGET).close()
        build_s = time.perf_counter() - start
        marks["build"] = _mark_mb()
        with CompressedMatrix.open(directory) as store:
            marks["open"] = _mark_mb()
            store.reconstruct_all()
            marks["reconstruct"] = _mark_mb()
    return {"marks": marks, "build_s": build_s}


def run(rows: int) -> list[dict]:
    """``RUNS`` children of one size."""
    results = []
    for _ in range(RUNS):
        out = subprocess.run(
            [sys.executable, __file__, "--child", str(rows)],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        results.append(json.loads(out))
    return results


def main() -> None:
    from statistics import median

    from benchmarks.conftest import emit

    sizes = [int(arg) for arg in sys.argv[1:]] or [4000, 20000, 100000]
    lines = [
        f"ru_maxrss (MB, median of {RUNS} fresh processes) after each phase; "
        f"s = {BUDGET:.0%}, one BLAS thread",
        "",
        "| model | " + " | ".join(PHASES) + " | build adds | build_s (min) |",
        "|---" * (len(PHASES) + 3) + "|",
    ]
    for rows in sizes:
        results = run(rows)
        marks = {p: median(r["marks"][p] for r in results) for p in PHASES}
        adds = median(r["marks"]["build"] - r["marks"]["data"] for r in results)
        build_s = min(r["build_s"] for r in results)
        cells = " | ".join(f"{marks[p]:.1f}" for p in PHASES)
        lines.append(f"| {rows:,} x {COLS} | {cells} | +{adds:.1f} | {build_s:.3f} |")
    emit("build_memory", lines)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(child(int(sys.argv[2]))))
    else:
        main()
