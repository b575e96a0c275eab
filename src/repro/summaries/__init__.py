"""Precomputed summary store: the per-day profile and its rollups.

The paper's motivating workload is decision-support aggregates ("total
volume per day across all customers").  This package keeps the model's
per-day sum and sum of squares, computed from the factor identities
(so ``sum``, ``avg``, ``count`` and ``stddev`` over every row derive
for free); the day→week→month→quarter→year rollups are bucketed from
it when first asked for.  Every version ``append_columns`` /
``append_rows`` writes carries its own.

The identities and the layout are documented in
:mod:`repro.summaries.compute`; the read side (freshness validation,
query planning, bucket series) lives in :mod:`repro.summaries.store`.
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
