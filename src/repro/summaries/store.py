"""Read side of the summary store: freshness, planning, bucket series.

:class:`SummaryStore` loads the ``summary_*`` files of a model
directory, validates the generation stamp against the live model
(shape, delta count, append counter — any mismatch means the store
describes a different model and is refused), and answers two kinds of
requests:

- **aggregate planning** (:meth:`plan`): the exact components of a
  ``sum``/``avg``/``count``/``stddev`` over a selection spanning every
  row, from the per-day profile;
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
from repro.query.fastpath import FACTOR_FUNCTIONS
from repro.storage.model_dir import read_generation
from repro.summaries import compute
from repro.summaries.compute import LEVELS, bucket_stats, level_edges

__all__ = ["SummaryStore"]

#: Group-by axes: the time hierarchy plus one bucket per customer.
GROUP_BY_AXES = LEVELS + ("customer",)


class SummaryStore:
    """Validated, read-only view over one model's per-day profile.

    ``col_stats`` is the (2, cols) per-day sum and sum of squares of a
    model of ``model_rows`` rows; ``start_date`` anchors the calendar
    levels.  :meth:`load` reads them from a directory.
    """

    def __init__(self, col_stats: np.ndarray, model_rows: int, start_date: str | None) -> None:
        self._col_stats = col_stats
        self._model_rows = int(model_rows)
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
        the per-day profile is read into memory once.

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
        except Exception:
            _obs.counter("summary.load_failures").inc()
            return None
        if col_stats.shape != (2, int(state["cols"])):
            _obs.counter("summary.load_failures").inc()
            return None
        return cls(col_stats, state["rows"], state.get("start_date"))

    # -- identity -------------------------------------------------------

    @property
    def model_rows(self) -> int:
        return self._model_rows

    @property
    def model_cols(self) -> int:
        return int(self._col_stats.shape[1])

    @property
    def col_stats(self) -> np.ndarray:
        """(2, cols) per-day sum and sum of squares."""
        return self._col_stats

    def rollup(self, level: str) -> tuple[np.ndarray, np.ndarray]:
        """``(edges, stats)`` of one time level: bucket ``i`` is columns
        ``[edges[i], edges[i+1])`` (see
        :func:`repro.summaries.compute.level_edges`), ``stats`` its
        (2, buckets) sum and sum of squares.  Bucketed from the per-day
        profile on first use and kept for the store's lifetime."""
        cached = self._rollups.get(level)
        if cached is None:
            edges = level_edges(level, self.model_cols, self._start_date)
            cached = self._rollups[level] = (edges, bucket_stats(self._col_stats, edges))
        return cached

    # -- aggregate planning ---------------------------------------------

    def plan(self, row_idx: np.ndarray, col_idx: np.ndarray, function: str) -> Components | None:
        """The selection's components, or None when summaries cannot help.

        The store keeps the per-day sum and sum of squares, so an answer
        exists only for ``sum``/``avg``/``count``/``stddev`` over a
        selection spanning every row; anything else returns None and
        takes the factor or stream path.
        """
        if function not in FACTOR_FUNCTIONS or row_idx.size != self._model_rows:
            return None
        if not col_idx.size:
            return None
        sel = self._col_stats[:, getattr(col_idx, "idx", col_idx)]  # an Ascending's array
        # The ufunc reductions are ndarray.sum without its Python wrapper.
        return Components(
            total=float(np.add.reduce(sel[0])),
            total_sq=float(np.add.reduce(sel[1])),
            count=self._model_rows * int(col_idx.size),
        )
