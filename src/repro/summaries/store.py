"""Read side of the summary store: freshness, planning, bucket series.

:class:`SummaryStore` loads the four ``summary_*`` files of a model
directory, validates the generation stamp against the live model
(shape, delta count, append counter — any mismatch means the store
describes a different model and is refused), and answers two kinds of
requests:

- **aggregate planning** (:meth:`plan`): the exact components of a
  selection that spans a full axis, from the precomputed profiles;
- **bucket series** (:meth:`bucket_values`): a whole group-by
  ("sum by day", "avg by month", "max by customer") evaluated
  vectorized from the rollup arrays, zero ``u.mat`` pages.

A loaded store always covers the whole model it is stamped for.  A
deferred append leaves none: its carried state names the previous
generation, so it is refused until ``repro summarize`` rebuilds it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.exceptions import QueryError, ReproError
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
)

__all__ = ["SummaryStore"]

#: Group-by axes bucket_values understands: the time hierarchy plus the
#: per-customer profile.
GROUP_BY_AXES = LEVELS + ("customer",)


class SummaryStore:
    """Validated, read-only view over one directory's summary files."""

    def __init__(
        self,
        state: dict,
        col_stats: np.ndarray,
        row_stats: np.ndarray,
        levels: dict[str, np.ndarray],
    ) -> None:
        self._state = state
        self._col_stats = col_stats
        self._row_stats = row_stats
        self._levels = levels

    # -- loading --------------------------------------------------------

    @classmethod
    def load(
        cls,
        directory: str | Path,
        expected: tuple[int, int, int, int] | None = None,
        mapped: bool = False,
    ) -> "SummaryStore | None":
        """Load the store if present and stamped for the live model.

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
            mode = "r" if mapped else None
            col_stats = np.load(
                directory / compute.COLS_NAME, mmap_mode=mode, allow_pickle=False
            )
            row_stats = np.load(
                directory / compute.ROWS_NAME, mmap_mode=mode, allow_pickle=False
            )
            with np.load(directory / compute.LEVELS_NAME) as bundle:
                levels = {name: bundle[name] for name in bundle.files}
        except Exception:
            _obs.counter("summary.load_failures").inc()
            return None
        rows, cols = int(state["rows"]), int(state["cols"])
        if col_stats.shape != (4, cols) or row_stats.shape != (4, rows):
            _obs.counter("summary.load_failures").inc()
            return None
        for level in LEVELS:
            if f"stats_{level}" not in levels or f"edges_{level}" not in levels:
                _obs.counter("summary.load_failures").inc()
                return None
        return cls(state, col_stats, row_stats, levels)

    # -- identity -------------------------------------------------------

    @property
    def model_rows(self) -> int:
        return int(self._state["rows"])

    @property
    def model_cols(self) -> int:
        return int(self._state["cols"])

    @property
    def start_date(self) -> str | None:
        return self._state.get("start_date")

    @property
    def row_stats(self) -> np.ndarray:
        """(4, rows) per-customer sum/sumsq/min/max."""
        return self._row_stats

    @property
    def col_stats(self) -> np.ndarray:
        """(4, cols) per-day sum/sumsq/min/max."""
        return self._col_stats

    def level_edges(self, level: str) -> np.ndarray:
        """Bucket boundaries of one rollup level (see
        :func:`repro.summaries.compute.level_edges`)."""
        return self._levels[f"edges_{level}"]

    def level_stats(self, level: str) -> np.ndarray:
        """(4, buckets) sum/sumsq/min/max rollup of one level."""
        return self._levels[f"stats_{level}"]

    @property
    def grand(self) -> Components:
        """Components of every cell of the model."""
        raw = self._levels["grand"]
        return Components(
            total=float(raw[S_SUM]),
            total_sq=float(raw[S_SUMSQ]),
            minimum=float(raw[S_MIN]),
            maximum=float(raw[S_MAX]),
            count=self.model_rows * self.model_cols,
        )

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
        if int(row_idx.size) == self.model_rows:
            stats, index, width = self._col_stats, col_idx, self.model_rows
        elif int(col_idx.size) == self.model_cols:
            stats, index, width = self._row_stats, row_idx, self.model_cols
        else:
            return None
        sel = stats[:, index]
        return Components(
            total=float(sel[S_SUM].sum()),
            total_sq=float(sel[S_SUMSQ].sum()),
            minimum=float(sel[S_MIN].min()),
            maximum=float(sel[S_MAX].max()),
            count=width * int(index.size),
        )

    # -- bucket series --------------------------------------------------

    def bucket_values(self, by: str, function: str) -> tuple[np.ndarray, np.ndarray]:
        """A whole group-by series, vectorized from the rollups.

        Returns ``(edges_or_labels, values)``: bucket edges for time
        levels (bucket ``i`` = columns ``[edges[i], edges[i+1])``),
        row labels for ``by="customer"``.
        """
        if by == "customer":
            stats = self._row_stats
            labels = np.arange(self.model_rows, dtype=np.int64)
            counts = np.full(self.model_rows, float(self.model_cols))
            return labels, _finalize_vector(function, stats, counts)
        if by in LEVELS:
            stats = self._levels[f"stats_{by}"]
            edges = self._levels[f"edges_{by}"]
            counts = np.diff(edges).astype(np.float64) * self.model_rows
            return edges, _finalize_vector(function, stats, counts)
        raise QueryError(
            f"unknown group-by axis {by!r}; expected one of {GROUP_BY_AXES}"
        )


def _finalize_vector(
    function: str, stats: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Vector form of :func:`repro.query.components.finalize`."""
    if function == "sum":
        return np.asarray(stats[S_SUM], dtype=np.float64).copy()
    if function == "count":
        return counts.copy()
    if function == "avg":
        return stats[S_SUM] / counts
    if function == "min":
        return np.asarray(stats[S_MIN], dtype=np.float64).copy()
    if function == "max":
        return np.asarray(stats[S_MAX], dtype=np.float64).copy()
    if function == "stddev":
        mean = stats[S_SUM] / counts
        variance = np.maximum(stats[S_SUMSQ] / counts - mean * mean, 0.0)
        return np.sqrt(variance)
    raise QueryError(f"unknown aggregate {function!r}")
