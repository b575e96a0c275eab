"""Shared infrastructure for the benchmark harness.

Each ``bench_*.py`` module regenerates one table or figure of the
paper's evaluation: it computes the same rows/series the paper reports,
prints them, writes them to ``benchmarks/results/<name>.txt``, and
times one representative operation with pytest-benchmark.

Benchmarks additionally emit **machine-readable records** via
:func:`emit_json`: schema-versioned JSON files
(``benchmarks/results/BENCH_<name>.json``) carrying the git sha, a UTC
timestamp, the run's parameters and its metrics — the perf trajectory
CI uploads as artifacts.  Human-readable stdout tables stay unchanged.

Scale: by default the harness runs at 'CI scale' — the paper's
``phone2000`` and ``stocks`` workloads, plus a scale-up ladder to
N=20,000 — finishing in minutes.  Set ``REPRO_BENCH_SCALE=full`` to run
the paper's full N=100,000 ladder.
"""

from __future__ import annotations

import os
from pathlib import Path

# One BLAS thread per caller, set before NumPy loads — the rule
# benchmarks/harness measures under.  The thread- and process-pool
# benches run several GEMM callers at once; a multi-threaded OpenBLAS
# beneath them measures its own pool contention (on 2 cores
# bench_concurrency's thread curve drops to ~0.3x of one worker), not
# the code under test.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.data import phone_matrix, stocks_matrix  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

#: Space budgets (fraction of original) swept by the Fig. 6-style plots.
BUDGET_SWEEP = (0.025, 0.05, 0.10, 0.15, 0.20, 0.25)

#: The scale-up ladder of Fig. 10 / Table 4 (paper goes to 100_000).
def scaleup_ladder() -> list[int]:
    if os.environ.get("REPRO_BENCH_SCALE") == "full":
        return [1000, 2000, 5000, 10_000, 20_000, 50_000, 100_000]
    return [1000, 2000, 5000, 10_000, 20_000]


@pytest.fixture(scope="session")
def phone2000() -> np.ndarray:
    """The paper's primary accuracy-experiment dataset (2000 x 366)."""
    return phone_matrix(2000)

@pytest.fixture(scope="session")
def stocks381() -> np.ndarray:
    """The paper's stocks dataset shape (381 x 128)."""
    return stocks_matrix(381)


def emit(name: str, lines: list[str]) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, params: dict, metrics: dict) -> None:
    """Persist one schema-versioned JSON benchmark record.

    Writes ``benchmarks/results/BENCH_<name>.json`` with the git sha,
    UTC timestamp, ``params`` (workload knobs) and ``metrics``
    (measured numbers) — see :mod:`repro.obs.bench` for the schema.

    Every numeric metric must be finite: an ``inf``/``nan`` (e.g. a
    throughput computed from a wall time that rounded to zero) poisons
    every ratio the trajectory tooling derives from the record, so it
    is rejected at the source instead of surfacing downstream.

    Alongside the record, one full metrics-registry snapshot is
    appended to ``benchmarks/results/metrics.jsonl`` (rotating), tagged
    with the bench name — the per-run registry state (pool/pager stats,
    any span histograms) CI uploads next to the BENCH_*.json artifacts.
    """
    import math

    from repro.obs.bench import write_bench_json
    from repro.obs.export import MetricsSnapshotWriter

    for key, value in metrics.items():
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise AssertionError(f"metric {key!r} is not finite: {value!r}")

    path = write_bench_json(RESULTS_DIR, name, params=params, metrics=metrics)
    MetricsSnapshotWriter(RESULTS_DIR / "metrics.jsonl").write(bench=name)
    print(f"[bench] wrote {path}")


def format_table(title: str, header: list[str], rows: list[list[str]]) -> list[str]:
    """Fixed-width table rendering for terminal output."""
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    def fmt(cells: list[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    lines = [title, "=" * len(title), fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines
