"""Interleaved A/B of the ``adhoc_agg`` query path: two persistent workers.

Harness runs made minutes apart on a shared machine can differ by 20%,
more than the change being measured.  This trial removes the drift: one
worker process per source tree (``parent``, ``change``) builds the
harness model once, then the two take turns answering the same 1,000
ops — the five seed-1997 ``adhoc_agg`` op lists — one batch each per
round, the order flipping every round.  Each round gives one ratio,
parent us/op over change us/op; the trial prints their median and
quartiles, and checks that both sides answered every op with the same
bits.

Run from the repository root:

    python3 benchmarks/results/harness/PR38/ab_trial.py PARENT_TREE CHANGE_TREE [ROUNDS]

where each tree is a checkout (its ``src/`` and ``benchmarks/`` are
imported by that side's worker).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKER = r"""
import sys, time, hashlib
from pathlib import Path
import numpy as np
from benchmarks.harness import model, ops
from repro.core.store import CompressedMatrix
from repro.query.engine import QueryEngine

directory = Path(sys.argv[1])
raw = model.raw_matrix(model.FULL)
model.build(raw, directory)
store = CompressedMatrix.open(directory, 64)
engine = QueryEngine(store)
queries = [op.query() for i in range(5) for op in ops.agg_ops(1997, raw.shape, 200, i)]
values = np.array([engine.aggregate(q).value for q in queries])  # warm-up
print(hashlib.sha256(values.tobytes()).hexdigest(), flush=True)
for _line in sys.stdin:
    start = time.perf_counter_ns()
    for q in queries:
        engine.aggregate(q)
    print((time.perf_counter_ns() - start) / len(queries) / 1e3, flush=True)
store.close()
"""


def start(tree: Path, scratch: Path) -> subprocess.Popen:
    # One BLAS thread, as the harness pins it.
    env = dict(os.environ, PYTHONPATH=f"{tree / 'src'}:{tree}")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, "-c", WORKER, str(scratch)],
        cwd=tree,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def batch(worker: subprocess.Popen) -> float:
    worker.stdin.write("go\n")
    worker.stdin.flush()
    return float(worker.stdout.readline())


def main(argv: list[str]) -> int:
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    rounds = int(argv[2]) if len(argv) > 2 else 40
    with tempfile.TemporaryDirectory() as scratch:
        sides = {
            name: start(tree, Path(scratch) / name)
            for name, tree in (("parent", parent), ("change", change))
        }
        digests = {name: w.stdout.readline().strip() for name, w in sides.items()}
        same = digests["parent"] == digests["change"]
        print(f"answers bit-identical over 1000 ops: {same}")
        times = {"parent": [], "change": []}
        began = time.time()
        for r in range(rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for name in order:
                times[name].append(batch(sides[name]))
        for w in sides.values():
            w.stdin.close()
            w.wait()
    p, c = np.array(times["parent"]), np.array(times["change"])
    ratio = p / c
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    print(f"rounds {rounds} of 1000 ops a side, {time.time() - began:.0f} s")
    for name, t in (("parent", p), ("change", c)):
        a, m, b = np.percentile(t, [25, 50, 75])
        print(f"{name:7s} us/op q1/med/q3: {a:.1f} / {m:.1f} / {b:.1f}")
    print(f"ratio parent/change q1/med/q3: {q1:.3f} / {med:.3f} / {q3:.3f}")
    print(f"change faster in {int((ratio > 1).sum())} of {rounds} rounds")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
