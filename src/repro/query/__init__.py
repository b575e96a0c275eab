"""Ad hoc query engine.

The paper studies two query classes (Section 1, Section 5):

- **cell queries** — 'what was the amount of sales to GHI Inc. on
  July 11, 1996?';
- **aggregate queries** — an aggregate function over selected rows and
  columns: 'total sales to business customers for the week ending
  July 12'.

:class:`QueryEngine` executes both against any backend that can produce
cells/rows — the raw :class:`~repro.storage.matrix_store.MatrixStore`,
an in-memory matrix, a fitted model, or the persistent
:class:`~repro.core.store.CompressedMatrix` — so exact and approximate
answers are obtained through the same code path and can be compared
with :func:`~repro.metrics.query_error`.

Beside the engine: :class:`Selection`, the textual form
(:func:`parse_query` / :func:`format_query`) and the group-by series
(:func:`bucket_series`).

Product.  The Section 5.2 sampling baseline, Fig. 9's workload
generator, calendar selections and similarity search are
``repro.lab.sampling``, ``.workload``, ``.calendar`` and
``.similarity``.
"""

from repro.query.engine import CellQuery, AggregateQuery, QueryEngine, QueryResult
from repro.query.groupby import bucket_series
from repro.query.parser import format_query, parse_query
from repro.query.selection import Selection

__all__ = [
    "AggregateQuery",
    "bucket_series",
    "format_query",
    "parse_query",
    "CellQuery",
    "QueryEngine",
    "QueryResult",
    "Selection",
]
