"""How early could pass 2 retire a candidate rank by exact bounds?

Pass 2 of the SVDD build (``SVDDCompressor.select_cutoff``) offers every
128-row chunk's rank-k errors to the queue of every candidate
``k = 1 .. k_max`` until the scan ends.  Candidate j's final error is
``E_j - top_j``: ``E_j`` (total energy minus the first j squared
singular values) is known after pass 1, and ``top_j``, the energy its
queue retains, only grows.  So, after each chunk,

- ``E_j - top_j(now)`` bounds j's final error from above, and
- once k's queue holds ``gamma_k`` cells, ``sse_k(now) - top_k(now)``
  (the error it has already shed) bounds k's final error from below.

A rank whose lower bound exceeds some rank's upper bound can never be
``k_opt`` and could stop being offered cells.  This script replays pass
2 with the product's own pieces (row chunks, floors, queues), retires
ranks by that rule, and prints the share of (candidate, chunk) offers a
build would still make ("work kept"), with pass 2's share of one
``build_compressed`` for scale.  The rule would be worth building only
if it dropped at least 30% of the offers.

    PYTHONPATH=src:. python benchmarks/pass2_retirement.py [ROWS ...]

Rows default to 4000 (the harness model) and 20000; each shape runs at
s = 10%, 5% and 2% for 4000 rows and at 10% otherwise.  One BLAS
thread.  Output is one table row per (shape, s).
"""

import os
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from repro.core.build import build_compressed
from repro.core.svd import _row_chunks, compute_gram, spectrum_from_gram
from repro.core.svdd import SVDDCompressor, _rank_errors, _sample_floors, sketch_rows
from repro.data.phone import PhoneConfig, phone_matrix
from repro.obs import registry
from repro.obs.tracing import span
from repro.structures.topk import TopKBuffer

COLS = 366


def work_kept(raw: np.ndarray, budget: float) -> tuple[int, float]:
    """``(k_max, share of candidate-chunk offers made before retirement)``."""
    num_rows, num_cols = raw.shape
    compressor = SVDDCompressor(budget)
    k_max = compressor.candidate_cutoffs(num_rows, num_cols)
    gram = compute_gram(raw)
    total = float(np.trace(gram))
    spectrum, vectors = spectrum_from_gram(gram, sketch_rows(k_max, num_cols))
    k_max = min(k_max, spectrum.shape[0])
    v = vectors[:, :k_max]
    gammas = [compressor._gamma(num_rows, num_cols, k) for k in range(1, k_max + 1)]
    energy_left = total - np.cumsum(spectrum[:k_max] ** 2)  # E_j
    queues = [TopKBuffer(g, f) for g, f in zip(gammas, _sample_floors(raw, v, gammas))]
    sse = np.zeros(k_max)
    live = np.ones(k_max, dtype=bool)
    offers = chunks = 0
    for block in _row_chunks(raw):
        chunks += 1
        for ki, deltas in enumerate(_rank_errors(block, v, k_max)):
            if live[ki]:
                offers += 1
                sse[ki] += np.dot(deltas, deltas)
                queues[ki].offer(deltas)
        top = np.array([q.retained_score_sq_sum() for q in queues])
        full = np.array([len(q) >= q.capacity for q in queues])
        lower = np.where(full, sse - top, 0.0)
        live &= ~(lower > (energy_left - top).min())
    return k_max, offers / (k_max * chunks)


def pass2_share(raw: np.ndarray) -> tuple[float, float]:
    """``(pass 2 seconds, build seconds)`` of one ``build_compressed`` at s = 10%."""
    registry.enable()
    try:
        with tempfile.TemporaryDirectory() as work:
            start = time.perf_counter()
            with span("build") as root:
                build_compressed(raw, Path(work) / "m", budget_fraction=0.10).close()
            build_s = time.perf_counter() - start
        return root.total_ns("build.pass2") / 1e9, build_s
    finally:
        registry.disable()


def main() -> None:
    sizes = [int(arg) for arg in sys.argv[1:]] or [4000, 20000]
    print("| model | s | k_max | work kept | pass 2 / build (s = 10%) |")
    print("|---|---|---|---|---|")
    for rows in sizes:
        raw = phone_matrix(rows, PhoneConfig(num_days=COLS))
        pass2_s, build_s = pass2_share(raw)
        for budget in (0.10, 0.05, 0.02) if rows == 4000 else (0.10,):
            k_max, kept = work_kept(raw, budget)
            share = f"{pass2_s:.2f} / {build_s:.2f} s" if budget == 0.10 else ""
            print(f"| {rows:,} x {COLS} | {budget:.0%} | {k_max} | {kept:.0%} | {share} |")


if __name__ == "__main__":
    main()
