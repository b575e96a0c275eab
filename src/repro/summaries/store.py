"""Read side of the summary store: freshness, planning, bucket series.

:class:`SummaryStore` loads the three ``summary_*`` files of a model
directory, validates the generation stamp against the live model
(shape, delta count, append counter — any mismatch means the store
describes a different model and is refused), and answers two kinds of
requests:

- **aggregate planning** (:meth:`plan`): the exact components of a
  selection that spans a full axis, from the precomputed profiles;
- **rollups** (:meth:`rollup`): one time level's bucket edges and
  stats, bucketed from the per-day profile on first use and kept —
  what :func:`repro.query.groupby.bucket_series` serves a group-by
  from, zero ``u.mat`` pages.

A loaded store always covers the whole model it is stamped for.  A
deferred append leaves none: its carried state names the previous
generation, so it is refused until ``repro summarize`` rebuilds it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.exceptions import ReproError
from repro.obs.registry import registry as _obs
from repro.query.components import Components
from repro.storage.model_dir import read_generation
from repro.summaries import compute
from repro.summaries.compute import (
    LEVELS,
    S_MAX,
    S_MIN,
    S_SUM,
    S_SUMSQ,
    bucket_stats,
    level_edges,
)

__all__ = ["SummaryStore"]

#: Group-by axes: the time hierarchy plus the per-customer profile.
GROUP_BY_AXES = LEVELS + ("customer",)


class SummaryStore:
    """Validated, read-only view over one model's two profiles.

    ``col_stats`` and ``row_stats`` are the (4, cols) per-day and
    (4, rows) per-customer sum/sumsq/min/max; ``start_date`` anchors the
    calendar levels.  :meth:`load` reads them from a directory; a
    group-by over a model without a store wraps streamed ones.
    """

    def __init__(
        self, col_stats: np.ndarray, row_stats: np.ndarray, start_date: str | None
    ) -> None:
        self._col_stats = col_stats
        self._row_stats = row_stats
        self._start_date = start_date
        self._rollups: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- loading --------------------------------------------------------

    @classmethod
    def load(
        cls,
        directory: str | Path,
        expected: tuple[int, int, int, int] | None = None,
    ) -> "SummaryStore | None":
        """Load the store if present and stamped for the live model:
        the two profiles are read into memory once.

        ``expected`` is ``(rows, cols, num_deltas, appends)`` of the
        model the caller already has open; when None it is read from
        the directory
        (:func:`~repro.storage.model_dir.read_generation`).  Any
        validation or parse failure returns None (and bumps
        ``summary.load_failures``) — callers fall back to the factor
        path, never crash.
        """
        directory = Path(directory)
        state = compute.load_state(directory)
        if state is None:
            return None
        if expected is None:
            try:
                expected = read_generation(directory)
            except (ReproError, OSError):
                _obs.counter("summary.load_failures").inc()
                return None
        if compute.stamped_generation(state) != tuple(int(v) for v in expected):
            _obs.counter("summary.load_failures").inc()
            return None
        try:
            col_stats = np.load(directory / compute.COLS_NAME, allow_pickle=False)
            row_stats = np.load(directory / compute.ROWS_NAME, allow_pickle=False)
        except Exception:
            _obs.counter("summary.load_failures").inc()
            return None
        rows, cols = int(state["rows"]), int(state["cols"])
        if col_stats.shape != (4, cols) or row_stats.shape != (4, rows):
            _obs.counter("summary.load_failures").inc()
            return None
        return cls(col_stats, row_stats, state.get("start_date"))

    # -- identity -------------------------------------------------------

    @property
    def model_rows(self) -> int:
        return int(self._row_stats.shape[1])

    @property
    def model_cols(self) -> int:
        return int(self._col_stats.shape[1])

    @property
    def start_date(self) -> str | None:
        return self._start_date

    @property
    def row_stats(self) -> np.ndarray:
        """(4, rows) per-customer sum/sumsq/min/max."""
        return self._row_stats

    @property
    def col_stats(self) -> np.ndarray:
        """(4, cols) per-day sum/sumsq/min/max."""
        return self._col_stats

    def rollup(self, level: str) -> tuple[np.ndarray, np.ndarray]:
        """``(edges, stats)`` of one time level: bucket ``i`` is columns
        ``[edges[i], edges[i+1])`` (see
        :func:`repro.summaries.compute.level_edges`), ``stats`` its
        (4, buckets) sum/sumsq/min/max.  Bucketed from the per-day
        profile on first use and kept for the store's lifetime."""
        cached = self._rollups.get(level)
        if cached is None:
            edges = level_edges(level, self.model_cols, self._start_date)
            cached = self._rollups[level] = (edges, bucket_stats(self._col_stats, edges))
        return cached

    # -- aggregate planning ---------------------------------------------

    def plan(self, row_idx: np.ndarray, col_idx: np.ndarray) -> Components | None:
        """The selection's components, or None when summaries cannot help.

        The store keeps *marginal* profiles, so an answer exists only
        when the selection spans a full axis: all rows (answer from the
        per-day profile) or all columns (per-customer profile).
        Arbitrary sub-rectangles return None and take the factor path.
        """
        if row_idx.size == 0 or col_idx.size == 0:
            return None
        rows, cols = self._row_stats.shape[1], self._col_stats.shape[1]
        if row_idx.size == rows:
            stats, index, width = self._col_stats, col_idx, rows
        elif col_idx.size == cols:
            stats, index, width = self._row_stats, row_idx, cols
        else:
            return None
        sel = stats[:, getattr(index, "idx", index)]  # an Ascending's array
        # The ufunc reductions are ndarray.sum/min/max without their
        # Python wrappers.
        return Components(
            total=float(np.add.reduce(sel[S_SUM])),
            total_sq=float(np.add.reduce(sel[S_SUMSQ])),
            minimum=float(np.minimum.reduce(sel[S_MIN])),
            maximum=float(np.maximum.reduce(sel[S_MAX])),
            count=int(width) * int(index.size),
        )

