"""repro — reproduction of *Efficiently Supporting Ad Hoc Queries in
Large Datasets of Time Sequences* (Korn, Jagadish & Faloutsos, SIGMOD
1997).

The library compresses an ``N x M`` matrix of time sequences so that
any single cell is reconstructible in O(k) time and one disk access,
with small average *and* bounded worst-case error.  The primary method
is **SVDD** (truncated SVD plus explicitly stored outlier deltas).

Quickstart::

    import numpy as np
    from repro import SVDDCompressor

    matrix = np.random.rand(2000, 366)
    model = SVDDCompressor(budget_fraction=0.10).fit(matrix)
    value = model.reconstruct_cell(17, 200)       # O(k) + one hash probe
    print(model.cutoff, model.num_deltas, model.space_fraction())

Subpackages — the product, what ``repro serve`` and the CLI run:

- :mod:`repro.core` — SVD/SVDD compressors, models, persistent store,
  incremental appends;
- :mod:`repro.query` — cell/aggregate query engine, parser, executors;
- :mod:`repro.plan` / :mod:`repro.summaries` — route planner and rollups;
- :mod:`repro.serve` / :mod:`repro.obs` — HTTP tier, metrics and tracing;
- :mod:`repro.storage` — paged storage engine with disk-access
  accounting, the model-directory codec;
- :mod:`repro.data` — synthetic stand-ins for the paper's datasets;
- :mod:`repro.metrics` — RMSPE, worst-case, distribution, Q_err;
- :mod:`repro.linalg` / :mod:`repro.structures` — the eigensolver
  interface and the top-k buffer the build runs.

The paper lab — Section 5's competing methods, the DataCube, scatter
plots, ablation structures, from-scratch eigensolvers, the warehouse
catalog — is :mod:`repro.lab`.  Nothing here imports it; take a lab
name from its module (``from repro.lab.warehouse import Warehouse``).
"""

from repro.core import (
    CompressedMatrix,
    SVDCompressor,
    SVDDCompressor,
    SVDDModel,
    SVDModel,
)
from repro.data import load_dataset
from repro.exceptions import ReproError
from repro.metrics import error_summary, query_error, rmspe, worst_case_error
from repro.query import AggregateQuery, CellQuery, QueryEngine, Selection
from repro.storage import MatrixStore

__version__ = "1.0.0"

__all__ = [
    "AggregateQuery",
    "CellQuery",
    "CompressedMatrix",
    "MatrixStore",
    "QueryEngine",
    "ReproError",
    "SVDCompressor",
    "SVDDCompressor",
    "SVDDModel",
    "SVDModel",
    "Selection",
    "error_summary",
    "load_dataset",
    "query_error",
    "rmspe",
    "worst_case_error",
    "__version__",
]
