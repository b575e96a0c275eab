"""Incremental maintenance of a persistent model directory.

The paper's warehouse is alive: every day appends one column to the
``N x M`` matrix (a new day per customer) and new customers append
rows.  Rebuilding with :func:`~repro.core.build.build_compressed`
re-runs all three passes over the full store; this module folds new
data into an existing model directory without rescanning what is
already compressed:

- :func:`append_columns` extends the model by ``d`` new days.  The
  serving basis ``U``/``Lambda`` is kept fixed; each new column ``x_j``
  joins by least-squares projection onto it,

      v_j = Lambda^{-1} U^t x_j        (Eq. 11 applied to X^t),

  computed in one streamed pass over the on-disk ``U`` page file — the
  original data is never touched.  The drift sketch is grown by the
  new columns (cross terms estimated through the model, the new block
  exact), and the delta budget pass re-runs over the old outliers plus
  every new cell;
- :func:`append_rows` streams new customers' ``U`` rows (projection by
  the same Eq. 11) straight onto a staged copy of the page file through
  :meth:`~repro.storage.matrix_store.MatrixStore.append_rows`, folds
  the new rows into the drift sketch, and lets the new rows' worst
  cells compete for the enlarged delta budget.

Both flavors read the model through
:func:`~repro.storage.model_dir.read_model` — a damaged directory is
refused with the same typed errors ``open()`` raises, before anything
is staged — do their own projection math, and share one finish step
(:func:`_finish_append`): delta re-competition, energy ledger, drift,
and :func:`~repro.storage.model_dir.write_model`.

Every append is **crash-atomic**: the next model version is assembled
in a staging sibling (unchanged large files hardlinked, changed files
rewritten), its manifest is rewritten, and the whole directory is
swapped in by rename via :func:`~repro.storage.atomic.staged_directory`.
Readers holding the old directory open keep serving the exact
pre-append answers (POSIX keeps their inodes alive); a
:meth:`~repro.core.store.CompressedMatrix.reopen` picks up the new
state.  One appender at a time: appends take no lock, so concurrent
appends to the same directory are the caller's responsibility to
serialize.

Because the basis is frozen between rebuilds, the model slowly drifts
from what a fresh rebuild would produce.  Each append therefore
re-derives the top of the updated spectrum and reports

    drift = 1 - (energy retained by the stored spectrum)
                / (energy the fresh spectrum would retain)

persisted in ``update_state.json`` together with the exact energy
bookkeeping; once drift crosses the advisory threshold the state (and
the returned :class:`AppendResult`) carries ``rebuild_recommended``.
The fresh spectrum comes from ``sketch.npy``, an ``l x M`` spectral
sketch ``S = Lambda_l V_l^t`` (``l = 2k``) whose ``S^t S`` is the top of
the pass-1 Gram matrix: each append folds its new block into the
sketch with one eigenproblem of size ``l + 2d`` (:func:`_grown_columns`)
or a Frequent-Directions step (:func:`_grown_rows`), takes the top-``k``
energy from it, and truncates back to ``l`` rows (:func:`_truncate`) —
``O(l M)`` state at any ``N``, after **Concatenated Matrix SVD**
(PAPERS.md).  What the truncations discard is positive, so a sketch
can only understate the fresh energy a row append adds.

An append pays for what arrived: the model is read once (the summaries
are built from the arrays the append already holds), and every file
of the next version is written once, plainly, into the staging
directory, whose commit flushes each of them once before publishing.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core import space
from repro.core.svd import eigenpairs
from repro.core.svdd import sketch_rows
from repro.exceptions import (
    ConfigurationError,
    ShapeError,
)
from repro.obs.logging import log_event
from repro.obs.registry import registry as _obs
from repro.obs.tracing import span as _span
from repro.storage.atomic import staged_directory
from repro.storage.delta_file import DeltaTable
from repro.storage.model_dir import ModelParts, read_model, write_model

__all__ = [
    "AppendResult",
    "append_columns",
    "append_rows",
    "rmspe_from_state",
]

#: Rows per block when streaming the on-disk ``U`` file.
_U_BLOCK_ROWS = 1024

#: Per append kind: the axis of the new data that grows the matrix, and
#: the name its running total goes by in the ledger and the metrics.
_KINDS = {"rows": (0, "rows_appended"), "columns": (1, "cols_appended")}


@dataclass(frozen=True)
class AppendResult:
    """Outcome of one incremental append."""

    directory: str
    #: ``"columns"`` or ``"rows"``.
    kind: str
    #: How many columns/rows this append added.
    appended: int
    #: Post-append shape.
    rows: int
    cols: int
    #: Post-append outlier count (old and new cells compete for the
    #: enlarged budget).
    num_deltas: int
    #: Energy retained by the stored spectrum vs. a fresh one (0 = the
    #: frozen basis is still optimal; grows as patterns shift).
    drift: float
    #: Advisory flag: drift crossed the threshold, schedule a rebuild.
    rebuild_recommended: bool
    #: Residual energy fraction of the model after this append.
    residual_fraction: float
    #: Wall-clock seconds the append took.
    seconds: float

    def to_dict(self) -> dict:
        """JSON-ready form (what the ``update.append`` log event carries)."""
        return asdict(self)


# -- state loading ---------------------------------------------------------


def rmspe_from_state(state: dict | None) -> float | None:
    """The residual error fraction an append ledger records, if any.

    ``state`` is a parsed ``update_state.json``, which tracks the
    energies the incremental maintenance path needs (total signal
    energy and the SSE the rank-k truncation left behind); their
    ratio's square root estimates the relative reconstruction error an
    SVD-only answer carries.  The query planner uses it as the error
    bound of the ``svd`` route.  None when a degraded read dropped the
    ledger or it recorded no energy.
    """
    if state is None:
        return None
    total = float(state["total_energy"])
    if total <= 0.0:
        return None
    return math.sqrt(max(float(state["residual_sse"]), 0.0) / total)


def require_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a 2-d float64 array, raising :class:`ShapeError` otherwise.

    Accepts anything ``numpy.asarray`` accepts; rejects arrays that are
    not two-dimensional or that contain non-finite values.  Appended
    data comes from outside the program, so it is refused by name here,
    before any pass over ``U``.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ShapeError(f"{name} must be non-empty, got shape={arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains NaN or infinite values")
    return arr


def _inv(lam: np.ndarray) -> np.ndarray:
    """``Lambda^{-1}`` with zero (padded/degenerate) values mapped to 0."""
    positive = lam > 0.0
    return np.where(positive, 1.0 / np.where(positive, lam, 1.0), 0.0)


def _merge_deltas(
    old: DeltaTable,
    new_rows: np.ndarray,
    new_cols: np.ndarray,
    new_values: np.ndarray,
    budget: int,
    num_rows: int,
) -> tuple[DeltaTable, float]:
    """Top-``budget`` outliers (by |value|) among the old table and the
    new cells: the ``num_rows``-row table and the squared-error mass it
    corrects exactly.  One partition over all candidates (the bounded
    queue of paper Fig. 5, filled in one batch), then one stable sort by
    row: a row's old cells precede its new ones, which sit right of
    every old column (new days) or below every old row (new customers).
    """
    rows = np.concatenate([old.rows(), new_rows])
    cols = np.concatenate([old.cols, new_cols])
    values = np.concatenate([old.values, new_values])
    scores = np.abs(values)
    if scores.size > budget:
        kept = np.argpartition(scores, -budget)[-budget:] if budget > 0 else []
        keep = np.zeros(scores.size, dtype=bool)
        keep[kept] = True
        rows, cols, values, scores = rows[keep], cols[keep], values[keep], scores[kept]
    order = np.argsort(rows, kind="stable")
    table = DeltaTable.from_cells(rows[order], cols[order], values[order], num_rows)
    return table, float((scores * scores).sum())


def _grown_columns(
    sketch: np.ndarray, cross: np.ndarray, x_new: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs, decreasing, of ``[[S^t S, C], [C^t, X_new^t X_new]]``.

    Every column of ``S^t S`` and of the cross block ``C`` lies in the
    span ``Q`` of ``[S^t, C]``, so the grown matrix is exactly its
    restriction to ``diag(Q, I_d)``: an eigenproblem of size at most
    ``l + 2d``, not ``M + d``.
    """
    basis = np.linalg.qr(np.hstack([sketch.T, cross]))[0]  # (M, r)
    seen = sketch @ basis
    coupled = basis.T @ cross
    small = np.block([[seen.T @ seen, coupled], [coupled.T, x_new.T @ x_new]])
    values, vectors = eigenpairs(small)
    width = basis.shape[1]
    return values, np.vstack([basis @ vectors[:width], vectors[width:]])


def _grown_rows(sketch: np.ndarray, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs, decreasing, of ``S^t S + X_new^t X_new``: the thin SVD
    of ``[S; X_new]`` (a Frequent-Directions step)."""
    _, singular, vt = np.linalg.svd(np.vstack([sketch, x_new]), full_matrices=False)
    return singular * singular, vt.T


def _truncate(values: np.ndarray, vectors: np.ndarray, rows: int) -> np.ndarray:
    """The top-``rows`` positive part of a decreasing spectrum as sketch
    rows ``sqrt(theta) w^t``."""
    keep = values[:rows] > 0.0
    return np.sqrt(values[:rows][keep])[:, None] * vectors[:, :rows][:, keep].T


def _drift_state(
    state: dict,
    values: np.ndarray,
    cutoff: int,
    drift_threshold: float | None,
) -> tuple[float, float, bool]:
    """``(drift, threshold, rebuild_recommended)`` for the grown sketch's
    decreasing spectrum ``values``."""
    threshold = (
        float(drift_threshold)
        if drift_threshold is not None
        else float(state["drift_threshold"])
    )
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(
            f"drift_threshold must be in (0, 1], got {threshold}"
        )
    # Energy a freshly computed rank-``cutoff`` spectrum would retain.
    fresh = float(np.maximum(values[:cutoff], 0.0).sum())
    captured = float(state["captured_energy"])
    drift = max(0.0, 1.0 - captured / fresh) if fresh > 0.0 else 0.0
    recommended = bool(state["rebuild_recommended"]) or drift > threshold
    return drift, threshold, recommended


def _emit_metrics(result: AppendResult) -> None:
    if not _obs.enabled:
        return
    _obs.counter("update.appends").inc()
    _obs.counter(f"update.{_KINDS[result.kind][1]}").inc(result.appended)
    _obs.gauge("update.drift").set(result.drift)
    _obs.gauge("update.residual_fraction").set(result.residual_fraction)
    _obs.gauge("update.seconds").set(result.seconds)
    _obs.gauge("update.rebuild_recommended").set(
        1.0 if result.rebuild_recommended else 0.0
    )
    log_event("update.append", **result.to_dict())


def _finish_append(
    parts: ModelParts,
    started: float,
    kind: str,
    x_new: np.ndarray,
    shape: tuple[int, int],
    candidate_cells: tuple[np.ndarray, np.ndarray],
    candidate_values: np.ndarray,
    captured_inc: float,
    cross: np.ndarray | None,
    zero_rows: np.ndarray,
    drift_threshold: float | None,
    refresh_summaries: bool,
    **written,
) -> AppendResult:
    """What both append flavors do once their own math is done.

    Re-runs the delta budget competition over the old outliers and the
    new cells' residuals (``candidate_cells``: their rows and columns in
    the post-append ``shape``), brings
    the energy ledger up to date, folds ``x_new`` into the sketch (with
    ``cross``, ``X_old^t X_new``, for new columns; None for new rows),
    takes drift from the grown sketch and truncates it to the next one,
    and stages the next version of the directory (``written``: the
    factor parts this flavor changed, as
    :func:`~repro.storage.model_dir.write_model` takes them).
    """
    state = dict(parts.update_state)
    cutoff = parts.cutoff
    budget = space.delta_budget(
        *shape,
        cutoff,
        float(state["budget_fraction"]),
        parts.bytes_per_value,
        state["raw_bytes_per_value"],
    )
    old = parts.deltas
    candidates = old.count + candidate_values.size
    # A zero residual corrects nothing: it takes no slot (and so never
    # un-flags an all-zero row).
    live = candidate_values != 0.0
    rows, cols = candidate_cells
    with _span("update.merge_deltas", candidates=candidates, budget=budget) as merge:
        merged, retained_sq = _merge_deltas(
            old,
            rows[live],
            cols[live],
            candidate_values[live],
            min(budget, shape[0] * shape[1]),
            shape[0],
        )
        merge.set(kept=merged.count)

    # Exact energy bookkeeping: residual = everything the factors and
    # the retained deltas do not explain.
    new_energy = float((x_new * x_new).sum())
    total_energy = float(state["total_energy"]) + new_energy
    residual_sse = max(
        0.0,
        float(state["residual_sse"])
        + float((old.values**2).sum())
        + float(candidate_values @ candidate_values)
        - retained_sq,
    )
    axis, counter = _KINDS[kind]
    added = x_new.shape[axis]
    state["total_energy"] = total_energy
    state["captured_energy"] = float(state["captured_energy"]) + captured_inc
    state["residual_sse"] = residual_sse
    state["appends"] = int(state["appends"]) + 1
    state[counter] = int(state[counter]) + added
    rows = sketch_rows(cutoff, shape[1])
    with _span("update.drift", cols=shape[1], sketch=rows):
        if cross is None:
            values, vectors = _grown_rows(parts.sketch, x_new)
        else:
            values, vectors = _grown_columns(parts.sketch, cross, x_new)
        drift, threshold, recommended = _drift_state(
            state, values, cutoff, drift_threshold
        )
        sketch = _truncate(values, vectors, rows)
    state["drift"] = drift
    state["drift_threshold"] = threshold
    state["rebuild_recommended"] = recommended

    with _span("update.write_model") as wrote, staged_directory(parts.directory) as staging:
        write_model(
            staging,
            {**parts.meta, "rows": shape[0], "cols": shape[1]},
            deltas=merged,
            zero_rows=zero_rows,
            sketch=sketch,
            update_state=state,
            previous=parts,
            refresh_summaries=refresh_summaries,
            **written,
        )
        # The commit flushes each staged file once, then the staging
        # directory, and after the publishing rename the parent.
        files = len(os.listdir(staging))
        wrote.set(files=files, fsyncs=files + 2)

    result = AppendResult(
        directory=str(parts.directory),
        kind=kind,
        appended=added,
        rows=shape[0],
        cols=shape[1],
        num_deltas=merged.count,
        drift=drift,
        rebuild_recommended=recommended,
        residual_fraction=residual_sse / total_energy if total_energy > 0 else 0.0,
        seconds=time.perf_counter() - started,
    )
    _emit_metrics(result)
    return result


# -- append columns (new days) ---------------------------------------------


def _add_delta_cross(cross: np.ndarray, deltas: DeltaTable, x_new: np.ndarray) -> None:
    """Add the stored deltas' share to the cross block, in place:
    ``cross[c, j] += sum of delta(r, c) * x_new[r, j]`` over the outliers.

    One ``bincount`` per new day (``x_new[r, j]`` repeated for each of
    row ``r``'s deltas); each bucket's first record is the value it
    starts from, so the additions run in row-major order (what
    ``np.add.at`` did, byte for byte, at a third of the time).
    """
    if not deltas.count:
        return
    num_cols = cross.shape[0]
    buckets = np.concatenate([np.arange(num_cols), deltas.cols])
    per_row = np.diff(deltas.row_start)
    for j in range(cross.shape[1]):
        contrib = deltas.values * np.repeat(x_new[:, j], per_row)
        cross[:, j] = np.bincount(
            buckets, np.concatenate([cross[:, j], contrib]), num_cols
        )


def append_columns(
    model_dir: str | os.PathLike,
    new_cols: np.ndarray,
    drift_threshold: float | None = None,
    refresh_summaries: bool = True,
) -> AppendResult:
    """Fold ``d`` new days into an existing model without a rebuild.

    Args:
        model_dir: a model directory written by
            :func:`~repro.core.build.build_compressed` (it must carry
            the persisted pass-1 state).
        new_cols: ``(N, d)`` array — one new value per existing
            customer per appended day.
        drift_threshold: override the advisory rebuild threshold
            (persisted for subsequent appends).
        refresh_summaries: build the grown model's summary store
            cold, as part of the append.  ``False`` leaves the model
            without a usable store until ``repro summarize`` rebuilds
            it; queries take the exact factor/stream routes meanwhile.

    The append costs two streamed passes over the on-disk ``U`` (each
    ``O(N k)`` I/O), one eigenproblem of size ``l + 2d`` for the drift
    sketch, and one partition over the old deltas plus the ``N d`` new
    residuals — independent of the original matrix's cells.
    """
    started = time.perf_counter()
    with read_model(Path(model_dir), for_append=True) as parts:
        num_rows, num_cols, cutoff = parts.rows, parts.cols, parts.cutoff
        x_new = np.ascontiguousarray(np.asarray(new_cols, dtype=np.float64))
        if x_new.ndim == 1:
            x_new = x_new[:, None]
        if x_new.ndim != 2 or x_new.shape[0] != num_rows or x_new.shape[1] < 1:
            raise ShapeError(
                f"new columns must be ({num_rows}, d>=1), got shape {x_new.shape}"
            )
        require_matrix(x_new, "new columns")  # finite, before any pass over U
        added = x_new.shape[1]
        new_total_cols = num_cols + added
        lam, v = parts.eigenvalues, parts.v

        def u_blocks():
            """The on-disk U as ``(start_row, block)`` chunks."""
            for lo in range(0, num_rows, _U_BLOCK_ROWS):
                hi = min(lo + _U_BLOCK_ROWS, num_rows)
                yield lo, parts.u_store.read_rows(np.arange(lo, hi))

        # Pass A over U: P = U^t X_new, the new columns' coordinates.
        projection = np.zeros((cutoff, added))
        with _span("update.project_cols", rows=num_rows, cols=added):
            for start, block in u_blocks():
                projection += block.T @ x_new[start : start + block.shape[0]]
        v_new = projection.T * _inv(lam)  # (d, k): the appended V rows
        v_grown = np.vstack([v, v_new])

        # Pass B over U: residuals of every new cell under the frozen
        # basis; the worst compete for the enlarged delta budget.
        weights = lam[:, None] * v_new.T  # (k, d) = Lambda V_new^t
        residual = np.empty_like(x_new)
        captured_inc = 0.0
        with _span("update.residual_cols", rows=num_rows, cols=added):
            for start, block in u_blocks():
                recon = block @ weights
                captured_inc += float((recon * recon).sum())
                stop = start + block.shape[0]
                residual[start:stop] = x_new[start:stop] - recon
        candidate_cells = (
            np.repeat(np.arange(num_rows), added),
            np.tile(num_cols + np.arange(added), num_rows),
        )

        # The sketch grows by the new block, exact, and the cross block
        # X_old^t X_new estimated through the model (X_old ~ U Lambda
        # V^t plus the stored deltas).
        cross = v @ (lam[:, None] * projection)  # (M, d)
        _add_delta_cross(cross, parts.deltas, x_new)

        # Rows still all-zero: previously flagged and zero across the
        # appended days.
        zero_rows = parts.zero_rows
        zero_rows = zero_rows[np.abs(x_new[zero_rows]).sum(axis=1) == 0.0]

        return _finish_append(
            parts,
            started,
            "columns",
            x_new,
            (num_rows, new_total_cols),
            candidate_cells,
            residual.ravel(),
            captured_inc,
            cross,
            zero_rows,
            drift_threshold,
            refresh_summaries,
            v=v_grown,
        )


# -- append rows (new customers) -------------------------------------------


def append_rows(
    model_dir: str | os.PathLike,
    new_rows: np.ndarray,
    drift_threshold: float | None = None,
    refresh_summaries: bool = True,
) -> AppendResult:
    """Fold new customers into an existing model without a rebuild.

    New rows join by projection onto the frozen axes (Eq. 11,
    ``u = x V Lambda^{-1}``); their ``U`` rows are streamed onto
    a staged copy of the page file through ``MatrixStore.append_rows``,
    the drift sketch takes them in by a Frequent-Directions step, and
    the new rows' worst-reconstructed cells compete with the existing
    outliers for the enlarged delta budget.  Crash-atomic like
    :func:`append_columns`.
    """
    started = time.perf_counter()
    with read_model(Path(model_dir), for_append=True) as parts:
        num_rows, num_cols = parts.rows, parts.cols
        x_new = np.atleast_2d(
            np.ascontiguousarray(np.asarray(new_rows, dtype=np.float64))
        )
        if x_new.ndim != 2 or x_new.shape[1] != num_cols or x_new.shape[0] < 1:
            raise ShapeError(
                f"new rows must be (n>=1, {num_cols}), got shape {x_new.shape}"
            )
        require_matrix(x_new, "new rows")  # finite, before any projection
        added = x_new.shape[0]
        lam, v = parts.eigenvalues, parts.v

        with _span("update.project_rows", rows=added, cols=num_cols):
            u_new = (x_new @ v) * _inv(lam)  # (n, k) — Eq. 11
            recon = (u_new * lam) @ v.T
            residual = x_new - recon

        row_idx = num_rows + np.arange(added)
        candidate_cells = (
            np.repeat(row_idx, num_cols),
            np.tile(np.arange(num_cols), added),
        )
        # Appended all-zero customers earn the zero-row fast path;
        # existing flags survive as-is — old rows gained no cells and
        # kept their deltas only by merit.
        new_zero = row_idx[np.abs(x_new).sum(axis=1) == 0.0]

        return _finish_append(
            parts,
            started,
            "rows",
            x_new,
            (num_rows + added, num_cols),
            candidate_cells,
            residual.ravel(),
            float((recon * recon).sum()),
            None,
            np.concatenate([parts.zero_rows, new_zero]),
            drift_threshold,
            refresh_summaries,
            u=u_new,
        )
