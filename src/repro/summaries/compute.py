"""Materialization of the summary store, always cold.

Three files land beside the model artifacts (all covered by the model's
integrity manifest and the ``staged_directory`` swap):

```
summary_state.json      generation stamp + layout parameters + start_date
summary_cols.npy        (4, cols)     per-day sum/sumsq/min/max
summary_rows.npy        (4, rows)     per-customer sum/sumsq/min/max
```

Nothing derivable is stored: the week/month/quarter/year rollups are
:func:`bucket_stats` of the per-day profile over :func:`level_edges`,
which the reader computes on first use.

A store always covers the whole model it is stamped for.
A refreshing append materializes its version's store cold, like a
build.  A deferred append (:func:`carry_summaries` with
``refresh=False``) carries ``summary_state.json`` forward alone and
unchanged: its stamp names the previous generation, so no reader uses
it, but the next cold materialization takes its ``start_date``.

**One fixed reduction order.**  Float addition is not associative and
BLAS GEMM results depend on operand shapes, so the reconstruction is
walked over a fixed *tile grid*: row blocks of :data:`BLOCK_ROWS`
(aligned to absolute row index) by column chunks of :data:`CHUNK_COLS`
(aligned to absolute column index), each tile ``(U_blk Λ) V_chunkᵀ``
plus the deltas inside it, per-day sums accumulated block by block in
ascending order.  The same model therefore gives the same bytes
whoever materializes it — a build, an append or ``repro summarize``.

Per-customer ``sum``/``sumsq`` come from the factor form (``(u∘λ)·Σv``
and the k×k Gram einsum plus per-delta corrections — the same math the
factor fast path uses for ``stddev``), which is O(N·k²).

All inputs are the model's values *at their stored precision*:
``repro summarize`` reads them through the same
:func:`~repro.storage.model_dir.read_model` every open uses, and
:func:`~repro.storage.model_dir.write_model` hands over what that read
would return (each array cast through the stored dtype, U out of the
staged file) instead of re-reading what it wrote a moment ago — so
float32 models round-trip identically whether summaries are built
inside build/append staging or later.

:func:`_materialize` computes the three files; who asked writes them.
Inside a staging directory (:func:`materialize_summaries`) they are
plain writes — the commit flushes every staged file once, before the
rename that publishes them.  :func:`summarize_directory` works on a
*live* directory, so each file lands through
:func:`~repro.storage.atomic.atomic_write_bytes`, the state file last.
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

import numpy as np

from repro.exceptions import ChecksumError, FormatError, QueryError
from repro.obs.logging import log_event
from repro.obs.registry import registry as _obs
from repro.obs.tracing import span as _span
from repro.storage.atomic import atomic_write_bytes, link_or_copy
from repro.storage.delta_file import DeltaTable
from repro.storage.integrity import MANIFEST_NAME, _manifest_bytes, check_entry
from repro.storage.matrix_store import MatrixStore
from repro.storage.model_dir import ModelParts, read_model

__all__ = [
    "BLOCK_ROWS",
    "CHUNK_COLS",
    "LEVELS",
    "SUMMARY_FILES",
    "STATE_NAME",
    "bucket_stats",
    "carry_summaries",
    "level_edges",
    "materialize_summaries",
    "summarize_directory",
]

#: Rows per canonical tile — matches the update path's U streaming block.
BLOCK_ROWS = 1024
#: Columns per canonical tile.
CHUNK_COLS = 256

#: Stat row order in every (4, n) stats array.
S_SUM, S_SUMSQ, S_MIN, S_MAX = 0, 1, 2, 3

#: Time-hierarchy levels, finest first.  Weeks are structural (7 days);
#: month/quarter/year use calendar edges when the store records a
#: ``start_date`` and structural widths (28/91/364 days — exact
#: multiples of a week, so levels nest cleanly) otherwise.
LEVELS = ("day", "week", "month", "quarter", "year")
_STRUCTURAL_DAYS = {"day": 1, "week": 7, "month": 28, "quarter": 91, "year": 364}
_CALENDAR_MONTHS = {"month": 1, "quarter": 3, "year": 12}

STATE_NAME = "summary_state.json"
COLS_NAME = "summary_cols.npy"
ROWS_NAME = "summary_rows.npy"

SUMMARY_FILES = (STATE_NAME, COLS_NAME, ROWS_NAME)

_FORMAT_VERSION = 1


# -- bucket edges ----------------------------------------------------------


def level_edges(level: str, num_cols: int, start_date: str | None = None) -> np.ndarray:
    """Bucket boundaries (int64, ``edges[0]=0 .. edges[-1]=num_cols``).

    Bucket ``i`` covers day columns ``[edges[i], edges[i+1])``.  The
    trailing bucket is clipped at the matrix edge (a partial week is
    still exactly the days it holds).  With ``start_date``
    (``YYYY-MM-DD`` — the calendar date of column 0), month/quarter/
    year buckets follow true calendar boundaries.
    """
    if level not in _STRUCTURAL_DAYS:
        raise QueryError(f"unknown rollup level {level!r}; expected one of {LEVELS}")
    if num_cols < 1:
        raise QueryError(f"num_cols must be >= 1, got {num_cols}")
    if start_date is not None and level in _CALENDAR_MONTHS:
        return _calendar_edges(start_date, num_cols, _CALENDAR_MONTHS[level])
    width = _STRUCTURAL_DAYS[level]
    edges = list(range(0, num_cols, width))
    edges.append(num_cols)
    return np.asarray(edges, dtype=np.int64)


def _calendar_edges(start_date: str, num_cols: int, months_per_bucket: int) -> np.ndarray:
    import datetime

    try:
        first = datetime.date.fromisoformat(start_date)
    except ValueError as exc:
        raise QueryError(f"start_date must be YYYY-MM-DD, got {start_date!r}") from exc
    edges = [0]
    year, month = first.year, first.month
    while True:
        month += 1
        if month > 12:
            month, year = 1, year + 1
        if (month - 1) % months_per_bucket:
            continue
        offset = (datetime.date(year, month, 1) - first).days
        if offset >= num_cols:
            break
        edges.append(offset)
    edges.append(num_cols)
    return np.asarray(edges, dtype=np.int64)


def bucket_stats(col_stats: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Roll a (4, M) column profile up into (4, buckets) bucket stats.

    A deterministic pure function of the column profile — the only
    float operations are fixed-length sums and order-free min/max, so
    identical inputs give identical bytes.
    """
    if (np.diff(edges) == 1).all():
        # One-day buckets (the ``day`` level): the profile itself.
        return col_stats[:, int(edges[0]) : int(edges[-1])].copy()
    buckets = int(edges.size) - 1
    out = np.empty((4, buckets))
    for index in range(buckets):
        lo, hi = int(edges[index]), int(edges[index + 1])
        seg = col_stats[:, lo:hi]
        out[S_SUM, index] = seg[S_SUM].sum()
        out[S_SUMSQ, index] = seg[S_SUMSQ].sum()
        out[S_MIN, index] = seg[S_MIN].min()
        out[S_MAX, index] = seg[S_MAX].max()
    return out


# -- profiles --------------------------------------------------------------


def _profiles(
    u_store: MatrixStore,
    lam: np.ndarray,
    v: np.ndarray,
    deltas: DeltaTable,
    shape: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """The (4, M) per-day and (4, N) per-customer profiles, one pass over U.

    Each tile of the grid is reconstructed as one GEMM of fixed,
    absolute-aligned shape with the deltas inside it folded in; per-day
    sums add up block by block in ascending order, min/max reduce
    order-free.  Per-customer ``sum``/``sumsq`` skip the tiles:
    ``row_sum = (u∘λ)·Σv_j + Σδ`` and ``row_sumsq`` via the k×k Gram
    einsum plus the exact per-delta correction ``2·x̂·δ + δ²`` — the
    identities :func:`repro.query.fastpath.factor_aggregate` uses.
    """
    num_rows, num_cols = shape
    v_sum = v.sum(axis=0)
    gram = v.T @ v
    cols = np.zeros((4, num_cols))
    cols[S_MIN] = np.inf
    cols[S_MAX] = -np.inf
    rows = np.zeros((4, num_rows))
    rows[S_MIN] = np.inf
    rows[S_MAX] = -np.inf
    for lo in range(0, num_rows, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, num_rows)
        u_blk = u_store.read_rows(np.arange(lo, hi, dtype=np.int64))
        scaled = u_blk * lam
        starts = deltas.row_start[lo : hi + 1]
        blk_cols = deltas.cols[starts[0] : starts[-1]]
        blk_vals = deltas.values[starts[0] : starts[-1]]
        blk_rows = np.arange(hi - lo).repeat(np.diff(starts))
        for c_lo in range(0, num_cols, CHUNK_COLS):
            c_hi = min(c_lo + CHUNK_COLS, num_cols)
            tile = scaled @ v[c_lo:c_hi].T
            inside = (blk_cols >= c_lo) & (blk_cols < c_hi)
            if inside.any():
                # Delta cells are unique, so fancy += cannot collide.
                tile[blk_rows[inside], blk_cols[inside] - c_lo] += blk_vals[inside]
            day = cols[:, c_lo:c_hi]
            day[S_SUM] += tile.sum(axis=0)
            day[S_SUMSQ] += (tile * tile).sum(axis=0)
            np.minimum(day[S_MIN], tile.min(axis=0), out=day[S_MIN])
            np.maximum(day[S_MAX], tile.max(axis=0), out=day[S_MAX])
            np.minimum(rows[S_MIN, lo:hi], tile.min(axis=1), out=rows[S_MIN, lo:hi])
            np.maximum(rows[S_MAX, lo:hi], tile.max(axis=1), out=rows[S_MAX, lo:hi])
        rows[S_SUM, lo:hi] = scaled @ v_sum
        rows[S_SUMSQ, lo:hi] = ((scaled @ gram) * scaled).sum(axis=1)
        if blk_cols.size:
            base = np.einsum("ik,ik->i", scaled[blk_rows], v[blk_cols])
            np.add.at(rows[S_SUM], blk_rows + lo, blk_vals)
            np.add.at(
                rows[S_SUMSQ], blk_rows + lo, 2.0 * base * blk_vals + blk_vals * blk_vals
            )
    return cols, rows


# -- state -----------------------------------------------------------------


def load_state(directory: Path) -> dict | None:
    """Parse ``summary_state.json``, or None when absent/invalid."""
    try:
        state = json.loads((Path(directory) / STATE_NAME).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(state, dict) or state.get("format_version") != _FORMAT_VERSION:
        return None
    required = ("rows", "cols", "num_deltas", "appends", "block_rows", "chunk_cols")
    if any(key not in state for key in required):
        return None
    return state


def stamped_generation(state: dict) -> tuple[int, int, int, int]:
    """The model generation a summary state was written for."""
    return tuple(int(state[key]) for key in ("rows", "cols", "num_deltas", "appends"))


def recorded_start_date(directory: Path) -> str | None:
    """The calendar anchor the directory's last summary state recorded,
    whatever generation it is stamped for."""
    state = load_state(directory)
    return None if state is None else state.get("start_date")


def _intact_state(parts: ModelParts) -> dict | None:
    """The state of a store stamped for ``parts``' generation whose files
    are all present and match their manifest SHA-256; None otherwise."""
    directory = parts.directory
    state = load_state(directory)
    if state is None or stamped_generation(state) != parts.generation:
        return None
    try:
        for name in SUMMARY_FILES:
            check_entry(directory, parts.manifest_files, name, deep=True)
    except (ChecksumError, FormatError):
        return None
    return state


# -- materialization -------------------------------------------------------


def _array_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(array))
    return buf.getvalue()


def materialize_summaries(staged: ModelParts, start_date: str | None = None) -> dict:
    """Build the summary files of a model being staged.

    ``staged`` is the version :func:`~repro.storage.model_dir.write_model`
    is assembling, as a read of its staging directory would return it;
    the files are written there plainly.  ``start_date`` anchors the
    calendar levels.

    Returns the state dict that was written.
    """
    state, files = _materialize(staged, start_date)
    for name, data in files:
        (staged.directory / name).write_bytes(data)
    return state


def _materialize(
    parts: ModelParts, start_date: str | None
) -> tuple[dict, list[tuple[str, bytes]]]:
    """The summary store of ``parts``: its state, and the three files as
    ``(name, bytes)`` in the order to write them (the state file last)."""
    started = time.perf_counter()
    num_rows, num_cols, num_deltas, appends = parts.generation
    with _span("summaries.profiles", rows=num_rows, cols=num_cols):
        col_stats, row_stats = _profiles(
            parts.u_store,
            parts.eigenvalues,
            parts.v,
            parts.deltas,
            (num_rows, num_cols),
        )
    state = {
        "format_version": _FORMAT_VERSION,
        "rows": num_rows,
        "cols": num_cols,
        "num_deltas": num_deltas,
        "appends": appends,
        "block_rows": BLOCK_ROWS,
        "chunk_cols": CHUNK_COLS,
        "start_date": start_date,
    }
    if _obs.enabled:
        _obs.counter("summaries.materializations").inc()
        _obs.gauge("summaries.seconds").set(time.perf_counter() - started)
    return state, [
        (COLS_NAME, _array_bytes(col_stats)),
        (ROWS_NAME, _array_bytes(row_stats)),
        (STATE_NAME, json.dumps(state, indent=2).encode()),
    ]


def carry_summaries(previous: ModelParts, staged: ModelParts, refresh: bool) -> None:
    """Maintain the summary store inside an append's staging directory.

    ``previous`` is the pre-append model; ``staged`` the post-append one
    as :func:`~repro.storage.model_dir.write_model` holds it.

    - ``refresh`` → a cold build inside staging, anchored at the
      ``start_date`` the previous state recorded;
    - ``refresh=False`` (deferred) → hardlink ``summary_state.json``
      forward alone and unchanged.  The model has no usable store until
      :func:`summarize_directory` rebuilds it; the state keeps the
      calendar anchor for that rebuild.
    """
    if refresh:
        with _span("update.summaries"):
            materialize_summaries(staged, recorded_start_date(previous.directory))
        return
    if (previous.directory / STATE_NAME).exists():
        link_or_copy(previous.directory / STATE_NAME, staged.directory / STATE_NAME)
    if _obs.enabled:
        _obs.counter("update.summary_defers").inc()


def summarize_directory(
    directory: str | Path,
    rebuild: bool = False,
    start_date: str | None = None,
) -> dict:
    """Bring a live model directory's summary store up to date.

    The cubedash-gen-style ops entry point behind ``repro summarize``:

    - a store stamped for this model whose files match the manifest
      (and no ``--rebuild``, no new ``start_date``) → no-op, status
      ``"fresh"``;
    - anything else (no store, a stale or damaged one, a deferred
      append, ``--rebuild``) → cold build, status ``"rebuilt"``.

    Without ``start_date`` the build keeps the calendar anchor the
    directory's last summary state recorded, whatever its stamp.  The
    model is read — and so validated — first: a damaged directory is
    refused before any summary file is touched.  The integrity manifest
    is rewritten afterwards, reusing the recorded hashes of every
    non-summary file.
    """
    directory = Path(directory)
    started = time.perf_counter()

    def report(status: str, state: dict) -> dict:
        return {
            "directory": str(directory),
            "status": status,
            "seconds": round(time.perf_counter() - started, 6),
            "state": state,
        }

    with read_model(directory) as parts:
        recorded = recorded_start_date(directory)
        if start_date is None:
            start_date = recorded
        current = None if rebuild else _intact_state(parts)
        if current is not None and start_date == recorded:
            return report("fresh", current)
        state, files = _materialize(parts, start_date)
        reuse = {
            name: entry
            for name, entry in parts.manifest_files.items()
            if name not in SUMMARY_FILES
        }
    # A live directory: every file is old or new, never torn, and the
    # state file lands after the arrays it stamps.
    for name, data in files:
        atomic_write_bytes(directory / name, data)
    atomic_write_bytes(directory / MANIFEST_NAME, _manifest_bytes(directory, reuse))
    log_event(
        "summaries.summarize",
        directory=str(directory),
        status="rebuilt",
        seconds=round(time.perf_counter() - started, 6),
    )
    return report("rebuilt", state)
