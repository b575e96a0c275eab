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
  original data is never touched.  The persisted pass-1 Gram state is
  extended with the new columns (cross terms estimated through the
  model, the new block exact), and the delta budget pass re-runs over
  the old outliers plus every new cell;
- :func:`append_rows` streams new customers' ``U`` rows (projection by
  the same Eq. 11) straight onto a staged copy of the page file through
  :meth:`~repro.storage.matrix_store.MatrixStore.append_rows`, updates
  the Gram state exactly, and lets the new rows' worst cells compete
  for the enlarged delta budget.

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
re-derives the top of the updated Gram matrix's spectrum and reports

    drift = 1 - (energy retained by the stored spectrum)
                / (energy the fresh spectrum would retain)

persisted in ``update_state.json`` together with the exact energy
bookkeeping; once drift crosses the advisory threshold the state (and
the returned :class:`AppendResult`) carries ``rebuild_recommended``.
The fresh energy is a sum of ``k`` eigenvalues, so it comes from a
block-Krylov iteration (:func:`repro.linalg.top_eigenvalues`) started
from the post-append ``V`` *and* what that basis cannot see
(:func:`_drift_start`) — ``O(M^2 k)`` instead of the dense ``O(M^3)``
solve, which stays as the fallback and as the tests' reference.

An append pays for what arrived: the model is read once (the summaries
are refreshed from the arrays the append already holds), and every file
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
from repro.core.build import DRIFT_THRESHOLD_DEFAULT
from repro.exceptions import (
    ConfigurationError,
    FormatError,
    ShapeError,
    StorageError,
)
from repro.linalg import require_matrix
from repro.linalg.eigen import _top_eigenvalues
from repro.obs.logging import log_event
from repro.obs.registry import registry as _obs
from repro.obs.tracing import span as _span
from repro.storage.atomic import staged_directory
from repro.storage.model_dir import (
    ModelParts,
    read_model,
    read_update_state,
    write_model,
)

__all__ = [
    "AppendResult",
    "append_columns",
    "append_rows",
    "load_update_state",
    "stored_rmspe_estimate",
]

#: Rows per block when streaming the on-disk ``U`` file.
_U_BLOCK_ROWS = 1024

#: Seed of the drift start block's sketch and probe columns: fixed, so
#: ``drift`` (and ``update_state.json``) repeats for the same appends.
_DRIFT_SEED = 0x5EED

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


def load_update_state(model_dir: str | os.PathLike) -> dict:
    """Parse a model directory's ``update_state.json``.

    Raises :class:`FormatError` when the directory has no incremental
    state (models written by ``CompressedMatrix.save`` before the
    update subsystem, or with the state files deleted) — those models
    can only be refreshed by a full rebuild.
    """
    return read_update_state(model_dir, required=True)


def stored_rmspe_estimate(model_dir: str | os.PathLike) -> float | None:
    """The model's stored residual error fraction, if recorded.

    ``update_state.json`` tracks the energies the incremental
    maintenance path needs (total signal energy and the SSE the rank-k
    truncation left behind); their ratio's square root estimates the
    relative reconstruction error an SVD-only answer carries.  The
    query planner uses it as the error bound of the ``svd`` route.
    None when the model predates the update subsystem or recorded no
    energy.
    """
    try:
        state = load_update_state(model_dir)
    except (FormatError, StorageError, OSError):
        return None
    total = float(state.get("total_energy", 0.0) or 0.0)
    residual = float(state.get("residual_sse", 0.0) or 0.0)
    if total <= 0.0:
        return None
    return math.sqrt(max(residual, 0.0) / total)


def _inv(lam: np.ndarray) -> np.ndarray:
    """``Lambda^{-1}`` with zero (padded/degenerate) values mapped to 0."""
    positive = lam > 0.0
    return np.where(positive, 1.0 / np.where(positive, lam, 1.0), 0.0)


def _merge_deltas(
    old_keys: np.ndarray,
    old_values: np.ndarray,
    new_keys: np.ndarray,
    new_values: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Top-``budget`` outliers (by |value|) among old and new candidates.

    Returns ``(keys, values, retained_sq)`` where ``retained_sq`` is the
    squared-error mass the retained deltas correct exactly.  One
    partition over all candidates (the bounded queue of paper Fig. 5,
    filled in one batch), then the kept keys sorted.
    """
    keys = np.concatenate([old_keys, new_keys])
    values = np.concatenate([old_values, new_values])
    scores = np.abs(values)
    if scores.size > budget:
        keep = np.argpartition(scores, -budget)[-budget:] if budget > 0 else slice(0)
        keys, values, scores = keys[keep], values[keep], scores[keep]
    order = np.argsort(keys)
    return keys[order], values[order], float((scores * scores).sum())


def _drift_start(v: np.ndarray, unseen: np.ndarray) -> np.ndarray:
    """The block the drift eigensolve starts from, ``(M, <= 3k)``.

    The post-append ``v`` already spans the fresh top-``k`` eigenvectors
    to ~1e-5 — but a Krylov space grown from it alone never leaves what
    the frozen basis can see, and reports zero drift in exactly the case
    drift exists for.  So ``unseen`` joins it: the unit vectors of
    appended columns (their Gram block may be coupled to nothing else),
    or appended rows' residuals under the frozen basis, transposed —
    sketched down to ``k`` columns when wider — and ``k`` fixed-seed
    Gaussian columns against any other exact orthogonality (what an
    earlier append left outside the basis).
    """
    rng = np.random.default_rng(_DRIFT_SEED)
    cols, k = v.shape
    if unseen.shape[1] > k:
        unseen = unseen @ rng.standard_normal((unseen.shape[1], k))
    return np.hstack([v, unseen, rng.standard_normal((cols, k))])


def _drift_state(
    state: dict,
    gram: np.ndarray,
    cutoff: int,
    drift_threshold: float | None,
    start: np.ndarray,
) -> tuple[float, float, bool, dict]:
    """``(drift, threshold, rebuild_recommended, how)`` for the updated
    Gram; ``how`` is the eigensolve's ``blocks``/``basis``/``certified``."""
    threshold = (
        float(drift_threshold)
        if drift_threshold is not None
        else float(state.get("drift_threshold", DRIFT_THRESHOLD_DEFAULT))
    )
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(
            f"drift_threshold must be in (0, 1], got {threshold}"
        )
    # Energy a freshly computed rank-``cutoff`` spectrum would retain.
    values, how = _top_eigenvalues(gram, cutoff, start)
    fresh = float(values.sum())
    captured = float(state["captured_energy"])
    drift = max(0.0, 1.0 - captured / fresh) if fresh > 0.0 else 0.0
    recommended = bool(state.get("rebuild_recommended")) or drift > threshold
    return drift, threshold, recommended, how


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
    candidate_keys: np.ndarray,
    candidate_values: np.ndarray,
    captured_inc: float,
    gram: np.ndarray,
    drift_start: np.ndarray,
    zero_rows: np.ndarray,
    drift_threshold: float | None,
    refresh_summaries: bool,
    **written,
) -> AppendResult:
    """What both append flavors do once their own math is done.

    Re-runs the delta budget competition over the old outliers and the
    new cells' residuals (keys in the post-append ``shape``), brings the energy ledger and the drift estimate
    up to date, and stages the next version of the directory
    (``written``: the factor parts this flavor changed, as
    :func:`~repro.storage.model_dir.write_model` takes them).
    """
    state = dict(parts.update_state)
    cutoff = parts.cutoff
    budget = space.delta_budget(
        *shape,
        cutoff,
        float(state["budget_fraction"]),
        int(state.get("bytes_per_value", parts.bytes_per_value)),
        state.get("raw_bytes_per_value"),
    )
    candidates = parts.delta_values.size + candidate_values.size
    with _span("update.merge_deltas", candidates=candidates, budget=budget) as merge:
        merged_keys, merged_values, retained_sq = _merge_deltas(
            parts.delta_keys_at(shape[1]),
            parts.delta_values,
            candidate_keys,
            candidate_values,
            min(budget, shape[0] * shape[1]),
        )
        merge.set(kept=int(merged_keys.size))

    # Exact energy bookkeeping: residual = everything the factors and
    # the retained deltas do not explain.
    new_energy = float((x_new * x_new).sum())
    total_energy = float(state["total_energy"]) + new_energy
    residual_sse = max(
        0.0,
        float(state["residual_sse"])
        + float((parts.delta_values**2).sum())
        + (new_energy - captured_inc)
        - retained_sq,
    )
    axis, counter = _KINDS[kind]
    added = x_new.shape[axis]
    state["total_energy"] = total_energy
    state["captured_energy"] = float(state["captured_energy"]) + captured_inc
    state["residual_sse"] = residual_sse
    state["appends"] = int(state.get("appends", 0)) + 1
    state[counter] = int(state.get(counter, 0)) + added
    with _span("update.drift", cols=shape[1]) as drifting:
        drift, threshold, recommended, how = _drift_state(
            state, gram, cutoff, drift_threshold, drift_start
        )
        drifting.set(**how)
    state["drift"] = drift
    state["drift_threshold"] = threshold
    state["rebuild_recommended"] = recommended

    with _span("update.write_model") as wrote, staged_directory(parts.directory) as staging:
        write_model(
            staging,
            {**parts.meta, "rows": shape[0], "cols": shape[1]},
            delta_keys=merged_keys,
            delta_values=merged_values,
            zero_rows=zero_rows,
            gram=gram,
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
        num_deltas=int(merged_keys.size),
        drift=drift,
        rebuild_recommended=recommended,
        residual_fraction=residual_sse / total_energy if total_energy > 0 else 0.0,
        seconds=time.perf_counter() - started,
    )
    _emit_metrics(result)
    return result


# -- append columns (new days) ---------------------------------------------


def _add_delta_cross(cross: np.ndarray, parts: ModelParts, x_new: np.ndarray) -> None:
    """Add the stored deltas' share to the Gram cross block, in place:
    ``cross[c, j] += sum of delta(r, c) * x_new[r, j]`` over the outliers.

    One ``bincount`` per new day; each bucket's first record is the
    value it starts from, so the additions run in key order (what
    ``np.add.at`` did, byte for byte, at a third of the time).
    """
    if not parts.delta_keys.size:
        return
    old_rows, old_cols = np.divmod(parts.delta_keys, parts.cols)
    buckets = np.concatenate([np.arange(parts.cols), old_cols])
    for j in range(cross.shape[1]):
        contrib = parts.delta_values * x_new[old_rows, j]
        cross[:, j] = np.bincount(
            buckets, np.concatenate([cross[:, j], contrib]), parts.cols
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
        refresh_summaries: incrementally refresh the summary store as
            part of the append (only tiles overlapping the new days or
            churned deltas recompute).  ``False`` defers the refresh to
            a later ``repro summarize`` when the churn pattern allows
            it, otherwise drops the summaries.

    The append costs two streamed passes over the on-disk ``U`` (each
    ``O(N k)`` I/O), the top-``k`` eigenvalues of the ``(M+d)``-sized
    Gram (a few ``O(M^2 k)`` Krylov blocks from a warm start; the dense
    ``O(M^3)`` solve only when those cannot certify the sum), and one
    partition over the old deltas plus the ``N d`` new residuals —
    independent of the original matrix's cells.
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
            """The on-disk U as ``(start_row, block)`` chunks — the
            summary tile grid's row blocks, gathered the same way."""
            for lo in range(0, num_rows, _U_BLOCK_ROWS):
                hi = min(lo + _U_BLOCK_ROWS, num_rows)
                yield lo, parts.u_store.read_rows(np.arange(lo, hi))[:, :cutoff]

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
        candidate_keys = (
            np.arange(num_rows)[:, None] * new_total_cols
            + (num_cols + np.arange(added))[None, :]
        ).ravel()

        # Gram extension: the new block is exact, the cross block
        # estimated through the model (X_old ~ U Lambda V^t plus the
        # stored deltas).
        cross = v @ (lam[:, None] * projection)  # (M, d)
        _add_delta_cross(cross, parts, x_new)
        new_gram = np.empty((new_total_cols, new_total_cols))
        new_gram[:num_cols, :num_cols] = parts.gram
        new_gram[:num_cols, num_cols:] = cross
        new_gram[num_cols:, :num_cols] = cross.T
        new_gram[num_cols:, num_cols:] = x_new.T @ x_new
        parts.gram = None  # inside new_gram now: M^2 floats less to hold from here on

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
            candidate_keys,
            residual.ravel(),
            captured_inc,
            new_gram,
            _drift_start(v_grown, np.eye(new_total_cols, added, -num_cols)),
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
    the Gram state is updated *exactly* (``C += X_new^t X_new``), and
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
        candidate_keys = (
            row_idx[:, None] * num_cols + np.arange(num_cols)[None, :]
        ).ravel()
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
            candidate_keys,
            residual.ravel(),
            float((recon * recon).sum()),
            parts.gram + x_new.T @ x_new,
            _drift_start(v, residual.T),
            np.concatenate([parts.zero_rows, new_zero]),
            drift_threshold,
            refresh_summaries,
            u=u_new,
        )
