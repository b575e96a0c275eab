"""Precomputed summary store: materialized time-hierarchy rollups.

The paper's motivating workload is decision-support aggregates ("total
volume per day across all customers").  Answering those from factor
space costs a streamed pass over ``U`` per request; this package
materializes the answers once — per-day column profiles, per-customer
row profiles, day→week→month→quarter→year rollups and grand totals,
each bucket carrying ``sum/sumsq/min/max/count`` so every engine
aggregate (including ``avg`` and ``stddev``) derives for free — and
materializes them again for every version ``append_columns`` /
``append_rows`` writes.

Layout and the fixed reduction order are documented in
:mod:`repro.summaries.compute`; the read side
(freshness validation, query planning, bucket series) lives in
:mod:`repro.summaries.store`.
"""

from repro.summaries.compute import (
    LEVELS,
    SUMMARY_FILES,
    level_edges,
    materialize_summaries,
    summarize_directory,
)
from repro.summaries.store import SummaryStore

__all__ = [
    "LEVELS",
    "SUMMARY_FILES",
    "SummaryStore",
    "level_edges",
    "materialize_summaries",
    "summarize_directory",
]
