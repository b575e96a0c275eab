"""Read side of the summary store: freshness, planning, bucket series.

:class:`SummaryStore` loads the six ``summary_*`` files of a model
directory, validates the generation stamp against the live model
(shape, delta count, append counter — any mismatch means the store
describes a different model and is refused), and answers two kinds of
requests:

- **aggregate planning** (:meth:`plan`): decompose a rectangular
  selection into a *core* answered from precomputed components plus
  *residual* rectangles the caller streams.  Sum/sumsq/count merge by
  addition and min/max by comparison over disjoint rectangles, so the
  merged answer is exact — not an approximation;
- **bucket series** (:meth:`bucket_values`): a whole group-by
  ("sum by day", "avg by month", "max by customer") evaluated
  vectorized from the rollup arrays, zero ``u.mat`` pages.

A store whose coverage is *behind* the model (a deferred append) is
still loadable — ``fresh`` is False and plans grow residual
rectangles over the uncovered rows/columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

__all__ = ["SummaryPlan", "SummaryStore"]

#: Group-by axes bucket_values understands: the time hierarchy plus the
#: per-customer profile.
GROUP_BY_AXES = LEVELS + ("customer",)


@dataclass(frozen=True)
class SummaryPlan:
    """A selection decomposed into summary core + streamed residuals.

    ``core`` holds the components of every covered cell; ``residuals``
    are disjoint ``(row_idx, col_idx)`` rectangles (possibly empty)
    whose cells the summary does not cover.  An empty residual list is
    a full hit.
    """

    core: Components
    residuals: list = field(default_factory=list)

    @property
    def full_hit(self) -> bool:
        return not self.residuals


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
        covered_rows = int(state["covered_rows"])
        covered_cols = int(state["covered_cols"])
        if col_stats.shape != (4, covered_cols) or row_stats.shape != (
            4,
            covered_rows,
        ):
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
    def covered_rows(self) -> int:
        return int(self._state["covered_rows"])

    @property
    def covered_cols(self) -> int:
        return int(self._state["covered_cols"])

    @property
    def fresh(self) -> bool:
        """True when coverage spans the whole model (no deferred tail)."""
        return (self.covered_rows, self.covered_cols) == (
            self.model_rows,
            self.model_cols,
        )

    @property
    def start_date(self) -> str | None:
        return self._state.get("start_date")

    @property
    def row_stats(self) -> np.ndarray:
        """(4, covered_rows) per-customer sum/sumsq/min/max."""
        return self._row_stats

    @property
    def col_stats(self) -> np.ndarray:
        """(4, covered_cols) per-day sum/sumsq/min/max."""
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
        """Components of every covered cell."""
        raw = self._levels["grand"]
        return Components(
            total=float(raw[S_SUM]),
            total_sq=float(raw[S_SUMSQ]),
            minimum=float(raw[S_MIN]),
            maximum=float(raw[S_MAX]),
            count=self.covered_rows * self.covered_cols,
        )

    # -- aggregate planning ---------------------------------------------

    def components_for_cols(self, col_idx: np.ndarray) -> Components:
        """Components of ``all covered rows × col_idx`` (cols < covered)."""
        if col_idx.size == 0:
            return Components()
        sel = self._col_stats[:, col_idx]
        return Components(
            total=float(sel[S_SUM].sum()),
            total_sq=float(sel[S_SUMSQ].sum()),
            minimum=float(sel[S_MIN].min()),
            maximum=float(sel[S_MAX].max()),
            count=self.covered_rows * int(col_idx.size),
        )

    def components_for_rows(self, row_idx: np.ndarray) -> Components:
        """Components of ``row_idx × all covered cols`` (rows < covered)."""
        if row_idx.size == 0:
            return Components()
        sel = self._row_stats[:, row_idx]
        return Components(
            total=float(sel[S_SUM].sum()),
            total_sq=float(sel[S_SUMSQ].sum()),
            minimum=float(sel[S_MIN].min()),
            maximum=float(sel[S_MAX].max()),
            count=int(row_idx.size) * self.covered_cols,
        )

    def plan(self, row_idx: np.ndarray, col_idx: np.ndarray) -> SummaryPlan | None:
        """Decompose a selection, or None when summaries cannot help.

        The store keeps *marginal* profiles, so a plan exists only when
        the selection spans a full axis: all rows (answer from the
        per-day profile) or all columns (per-customer profile).
        Arbitrary sub-rectangles return None and take the factor path.
        """
        num_rows, num_cols = self.model_rows, self.model_cols
        rows_all = int(row_idx.size) == num_rows
        cols_all = int(col_idx.size) == num_cols
        cr, cc = self.covered_rows, self.covered_cols
        if rows_all:
            core_cols = col_idx[col_idx < cc]
            if core_cols.size == 0:
                return None
            residuals = []
            tail_cols = col_idx[col_idx >= cc]
            if tail_cols.size:
                residuals.append(
                    (np.arange(cr, dtype=np.int64), tail_cols)
                )
            if cr < num_rows:
                residuals.append(
                    (np.arange(cr, num_rows, dtype=np.int64), col_idx)
                )
            return SummaryPlan(self.components_for_cols(core_cols), residuals)
        if cols_all:
            core_rows = row_idx[row_idx < cr]
            if core_rows.size == 0:
                return None
            residuals = []
            if cc < num_cols:
                residuals.append(
                    (core_rows, np.arange(cc, num_cols, dtype=np.int64))
                )
            tail_rows = row_idx[row_idx >= cr]
            if tail_rows.size:
                residuals.append(
                    (tail_rows, np.arange(num_cols, dtype=np.int64))
                )
            return SummaryPlan(self.components_for_rows(core_rows), residuals)
        return None

    # -- bucket series --------------------------------------------------

    def bucket_values(self, by: str, function: str) -> tuple[np.ndarray, np.ndarray]:
        """A whole group-by series, vectorized from the rollups.

        Returns ``(edges_or_labels, values)``: bucket edges for time
        levels (bucket ``i`` = columns ``[edges[i], edges[i+1])``),
        row labels for ``by="customer"``.  Values cover only the
        summarized region — callers merge a residual when ``fresh`` is
        False (see :func:`repro.query.groupby.bucket_series`).
        """
        if by == "customer":
            stats = self._row_stats
            labels = np.arange(self.covered_rows, dtype=np.int64)
            counts = np.full(self.covered_rows, float(self.covered_cols))
            return labels, _finalize_vector(function, stats, counts)
        if by in LEVELS:
            stats = self._levels[f"stats_{by}"]
            edges = self._levels[f"edges_{by}"]
            counts = np.diff(edges).astype(np.float64) * self.covered_rows
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
