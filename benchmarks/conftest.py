"""Shared infrastructure for the paper's figure, table and ablation scripts.

Each ``bench_*.py`` module regenerates one table or figure of the
paper's evaluation: it computes the same rows/series the paper reports,
prints them, writes them to ``benchmarks/results/<name>.txt``, and
times one representative operation with pytest-benchmark.

Performance numbers are not made here: ``benchmarks/harness`` is the
one system that measures speed, and its result sets are the one record
format.

Scale: by default the scripts run at 'CI scale' — the paper's
``phone2000`` and ``stocks`` workloads, plus a scale-up ladder to
N=20,000 — finishing in minutes.  Set ``REPRO_BENCH_SCALE=full`` to run
the paper's full N=100,000 ladder.
"""

from __future__ import annotations

import os
from pathlib import Path

# One BLAS thread per caller, set before NumPy loads — the rule
# benchmarks/harness measures under, so a timing printed here and a
# harness metric are made the same way.
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
