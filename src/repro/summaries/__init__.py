"""Precomputed summary store: materialized time-hierarchy rollups.

The paper's motivating workload is decision-support aggregates ("total
volume per day across all customers").  Answering those from factor
space costs a streamed pass over ``U`` per request; this package
materializes the answers once — per-day column profiles and
per-customer row profiles, each entry carrying ``sum/sumsq/min/max``
so every engine aggregate (including ``avg`` and ``stddev``) derives
for free; the day→week→month→quarter→year rollups are bucketed from
the per-day profile when first asked for — and materializes them again
for every version ``append_columns`` / ``append_rows`` writes.

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
