"""Query-workload generators for the experiments.

Fig. 9 poses '50 aggregate queries to determine the average of a
randomly selected set of rows and columns ... tuned so that
approximately 10% of the data cells would be included'.  These helpers
generate that workload (and a random-cell analogue) deterministically
from a seed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.query.engine import AggregateQuery, CellQuery
from repro.query.selection import Selection


def random_aggregate_queries(
    shape: tuple[int, int],
    count: int = 50,
    target_fraction: float = 0.10,
    function: str = "avg",
    seed: int = 1997,
) -> list[AggregateQuery]:
    """The Fig. 9 workload: ``count`` random ``function`` queries, each
    covering about ``target_fraction`` of the matrix's cells."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return [
        AggregateQuery(function, Selection.random(shape, target_fraction, rng))
        for _ in range(count)
    ]


def random_cell_queries(
    shape: tuple[int, int], count: int = 1000, seed: int = 1997
) -> list[CellQuery]:
    """Uniformly random single-cell probes (the random-access workload)."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    rows = rng.integers(shape[0], size=count)
    cols = rng.integers(shape[1], size=count)
    return [CellQuery(int(r), int(c)) for r, c in zip(rows, cols)]
