"""Materialization of the summary store, always cold.

Two files land beside the model artifacts (both covered by the model's
integrity manifest and the ``staged_directory`` swap):

```
summary_state.json      generation stamp + start_date
summary_cols.npy        (2, cols)     per-day sum and sum of squares
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

**The profile is two factor identities** (the paper's Section 5.2: an
aggregate over any rows x days comes from the factor form).  With
``A = UΛ`` (N x k), its column sum ``c = Σ_i a_i`` and its Gram
``G = AᵀA`` (k x k), each day j of the model ``AVᵀ + Δ`` has

    sum_j   = v_j·c + Σ_i δ_ij
    sumsq_j = v_j G v_jᵀ + Σ_i (2·x̂_ij·δ_ij + δ_ij²)

where ``x̂_ij = a_i·v_j`` is the model's value at a delta cell: two
small GEMMs and one ``bincount`` over the delta columns, O((N + M)·k²
+ r) for r deltas, and no cell is reconstructed.
:func:`factor_profile` computes either axis; the per-customer profile
is the same identities with ``A`` and ``V`` swapped, which
:mod:`repro.query.groupby` computes on first use for ``by=customer``.
Min and max need every cell: they are streamed, never stored.

All inputs are the model's values *at their stored precision*:
``repro summarize`` reads them through the same
:func:`~repro.storage.model_dir.read_model` every open uses, and
:func:`~repro.storage.model_dir.write_model` hands over what that read
would return (each array cast through the stored dtype, U out of the
staged file) instead of re-reading what it wrote a moment ago — so
a model gives the same bytes whoever materializes it: a build, an
append or ``repro summarize``.

:func:`_materialize` computes the two files; who asked writes them.
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
from repro.storage.integrity import MANIFEST_NAME, _manifest_bytes, check_entry
from repro.storage.model_dir import ModelParts, read_model

__all__ = [
    "LEVELS",
    "SUMMARY_FILES",
    "STATE_NAME",
    "bucket_stats",
    "carry_summaries",
    "factor_profile",
    "level_edges",
    "materialize_summaries",
    "summarize_directory",
]

#: Time-hierarchy levels, finest first.  Weeks are structural (7 days);
#: month/quarter/year use calendar edges when the store records a
#: ``start_date`` and structural widths (28/91/364 days — exact
#: multiples of a week, so levels nest cleanly) otherwise.
LEVELS = ("day", "week", "month", "quarter", "year")
_STRUCTURAL_DAYS = {"day": 1, "week": 7, "month": 28, "quarter": 91, "year": 364}
_CALENDAR_MONTHS = {"month": 1, "quarter": 3, "year": 12}

STATE_NAME = "summary_state.json"
COLS_NAME = "summary_cols.npy"

SUMMARY_FILES = (STATE_NAME, COLS_NAME)

_FORMAT_VERSION = 2

#: How each row of a profile rolls up into buckets: the sum and the sum
#: of squares, then (a streamed profile's) min and max.
_ROLLUPS = (np.add, np.add, np.minimum, np.maximum)

#: Deltas folded into a profile at a time: their temporaries (a few
#: floats a delta) stay bounded whatever the table's size.
_DELTA_CHUNK = 1 << 18


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


def bucket_stats(stats: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Roll an (s, M) per-day profile up into (s, buckets) bucket stats.

    Rows are the sum and the sum of squares, then, for a streamed
    profile, min and max.  A deterministic pure function of the
    profile: fixed-length sums and order-free min/max.
    """
    starts = edges[:-1]
    return np.stack([ufunc.reduceat(row, starts) for ufunc, row in zip(_ROLLUPS, stats)])


# -- profiles --------------------------------------------------------------


def factor_profile(scaled_u: np.ndarray, v: np.ndarray, deltas, axis: int) -> np.ndarray:
    """The (2, M) per-day (``axis=0``) or (2, N) per-customer
    (``axis=1``) sum and sum of squares of ``scaled_u @ v.T + Δ``.

    ``scaled_u`` is ``UΛ``; ``deltas`` is the model's delta table (any
    object with its CSR ``row_start``/``cols``/``values``) or None.
    The identities are the module's; the per-customer profile swaps the
    roles of ``UΛ`` and ``V``.
    """
    own, other = (v, scaled_u) if axis == 0 else (scaled_u, v)
    size = own.shape[0]
    profile = np.empty((2, size))
    profile[0] = own @ np.add.reduce(other, axis=0)
    profile[1] = np.add.reduce((own @ (other.T @ other)) * own, axis=1)
    count = 0 if deltas is None else len(deltas.values)
    for lo in range(0, count, _DELTA_CHUNK):
        hi, starts = min(lo + _DELTA_CHUNK, count), deltas.row_start
        # The rows holding deltas lo..hi-1, and how many each holds there.
        first, last = starts.searchsorted(lo, "right") - 1, starts.searchsorted(hi)
        rows = np.arange(first, last).repeat(np.diff(starts[first : last + 1].clip(lo, hi)))
        cols, values = deltas.cols[lo:hi], deltas.values[lo:hi]
        at, across = (cols, rows) if axis == 0 else (rows, cols)
        x_hat = np.einsum("ik,ik->i", own[at], other[across])
        profile[0] += np.bincount(at, values, size)
        profile[1] += np.bincount(at, (2.0 * x_hat + values) * values, size)
    return profile


# -- state -----------------------------------------------------------------


def _read_state(directory: Path) -> dict | None:
    """``summary_state.json`` as written, of any format version; None
    when absent or not a JSON object."""
    try:
        state = json.loads((Path(directory) / STATE_NAME).read_text())
    except (OSError, ValueError):
        return None
    return state if isinstance(state, dict) else None


def load_state(directory: Path) -> dict | None:
    """The summary state, or None when absent, invalid or of another
    format version (a version-1 store, with its tile grid, reads as no
    store at all)."""
    state = _read_state(directory)
    if state is None or state.get("format_version") != _FORMAT_VERSION:
        return None
    if any(key not in state for key in ("rows", "cols", "num_deltas", "appends")):
        return None
    return state


def stamped_generation(state: dict) -> tuple[int, int, int, int]:
    """The model generation a summary state was written for."""
    return tuple(int(state[key]) for key in ("rows", "cols", "num_deltas", "appends"))


def recorded_start_date(directory: Path) -> str | None:
    """The calendar anchor the directory's last summary state recorded,
    whatever generation or format version it is stamped for."""
    state = _read_state(directory)
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
    """The summary store of ``parts``: its state, and the two files as
    ``(name, bytes)`` in the order to write them (the state file last)."""
    started = time.perf_counter()
    num_rows, num_cols, num_deltas, appends = parts.generation
    with _span("summaries.profiles", rows=num_rows, cols=num_cols):
        scaled_u = parts.u_store.read_rows(np.arange(num_rows)) * parts.eigenvalues
        day = factor_profile(scaled_u, parts.v, parts.deltas, axis=0)
    state = {
        "format_version": _FORMAT_VERSION,
        "rows": num_rows,
        "cols": num_cols,
        "num_deltas": num_deltas,
        "appends": appends,
        "start_date": start_date,
    }
    if _obs.enabled:
        _obs.counter("summaries.materializations").inc()
        _obs.gauge("summaries.seconds").set(time.perf_counter() - started)
    return state, [
        (COLS_NAME, _array_bytes(day)),
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
    refused before any summary file is touched.  A ``summary_*`` file
    the store no longer writes (a version-1 store's per-customer
    profile) is removed.  The integrity manifest is rewritten
    afterwards, reusing the recorded hashes of every non-summary file.
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
    for path in directory.glob("summary_*"):
        if path.name not in SUMMARY_FILES:
            path.unlink()
    atomic_write_bytes(directory / MANIFEST_NAME, _manifest_bytes(directory, reuse))
    log_event(
        "summaries.summarize",
        directory=str(directory),
        status="rebuilt",
        seconds=round(time.perf_counter() - started, 6),
    )
    return report("rebuilt", state)
