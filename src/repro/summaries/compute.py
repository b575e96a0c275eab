"""Materialization of the summary store, cold and incremental.

Six files land beside the model artifacts (all covered by the model's
integrity manifest and the ``staged_directory`` swap):

```
summary_state.json      generation stamp + coverage + layout parameters
summary_cols.npy        (4, covered_cols)   per-day sum/sumsq/min/max
summary_rows.npy        (4, covered_rows)   per-customer sum/sumsq/min/max
summary_colblocks.npy   (4, B, covered_cols) per-row-block column partials
summary_rowchunks.npy   (2, covered_rows, C) per-column-chunk row min/max
summary_levels.npz      edges_<level> / stats_<level> rollups + grand totals
```

**The bit-identical contract.**  Incremental regeneration after an
append must produce *byte-identical* arrays to a cold rebuild of the
same model — otherwise "refresh" and "rebuild" silently disagree and
freshness can never be tested exactly.  Float addition is not
associative and BLAS GEMM results depend on operand shapes, so the
computation is defined over a fixed *tile grid*: row blocks of
:data:`BLOCK_ROWS` (aligned to absolute row index) by column chunks of
:data:`CHUNK_COLS` (aligned to absolute column index).  Each tile is
reconstructed with the same expression regardless of why it is being
computed (``(U_blk Λ) V_chunkᵀ`` plus the deltas inside the tile), the
per-block column partials and per-chunk row extrema are stored, and
everything else — column profile, hierarchy rollups, grand totals — is
a deterministic pure function of those partials.  An append therefore
recomputes only the *dirty* tiles (new rows/columns, resized boundary
tiles, and tiles holding a churned delta cell) and still lands on the
cold-rebuild bytes.

Per-customer ``sum``/``sumsq`` are the one exception to tiling: they
are always recomputed in full from the factor form (``(u∘λ)·Σv`` and
the k×k Gram einsum plus per-delta corrections — the same math the
factor fast path uses for ``stddev``), which is O(N·k²) and cheap, so
cold and incremental trivially agree.

All inputs are the model's values *at their stored precision*:
``repro summarize`` reads them through the same
:func:`~repro.storage.model_dir.read_model` every open uses, and
:func:`~repro.storage.model_dir.write_model` hands over what that read
would return (each array cast through the stored dtype, U out of the
staged file) instead of re-reading what it wrote a moment ago — so
float32 models round-trip identically whether summaries are built
inside ``save``/``append`` staging or later.

:func:`_materialize` computes the six files; who asked writes them.
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

from repro.exceptions import ChecksumError, QueryError, ReproError
from repro.obs.logging import log_event
from repro.obs.registry import registry as _obs
from repro.obs.tracing import span as _span
from repro.storage.atomic import atomic_write_bytes, link_or_copy
from repro.storage.integrity import MANIFEST_NAME, _manifest_bytes, check_entry
from repro.storage.matrix_store import MatrixStore
from repro.storage.model_dir import ModelParts, read_model

__all__ = [
    "BLOCK_ROWS",
    "CHUNK_COLS",
    "LEVELS",
    "SUMMARY_FILES",
    "STATE_NAME",
    "carry_summaries",
    "changed_cells",
    "dirty_tiles",
    "level_edges",
    "load_prior",
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
COLBLOCKS_NAME = "summary_colblocks.npy"
ROWCHUNKS_NAME = "summary_rowchunks.npy"
LEVELS_NAME = "summary_levels.npz"

SUMMARY_FILES = (
    STATE_NAME,
    COLS_NAME,
    ROWS_NAME,
    COLBLOCKS_NAME,
    ROWCHUNKS_NAME,
    LEVELS_NAME,
)

_FORMAT_VERSION = 1


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


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


# -- tile computation ------------------------------------------------------


def _compute_tiles(
    u_store: MatrixStore,
    cutoff: int,
    lam: np.ndarray,
    v: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    shape: tuple[int, int],
    col_blocks: np.ndarray,
    row_chunks: np.ndarray,
    dirty: dict[int, set[int]],
) -> None:
    """Recompute every dirty tile in place.

    The canonical tile expression: reconstruct the (block × chunk)
    rectangle as one GEMM of fixed, absolute-aligned shape, fold the
    deltas whose cells fall inside it, then reduce to per-column
    partials and per-row extrema.  Cold builds and incremental
    refreshes both come through here with identical tile shapes, which
    is what makes them bit-identical.
    """
    num_rows, num_cols = shape
    for block in sorted(dirty):
        lo = block * BLOCK_ROWS
        hi = min(lo + BLOCK_ROWS, num_rows)
        u_blk = u_store.read_rows(np.arange(lo, hi, dtype=np.int64))[:, :cutoff]
        scaled = u_blk * lam
        k_lo, k_hi = np.searchsorted(keys, [lo * num_cols, hi * num_cols])
        blk_keys = keys[k_lo:k_hi]
        blk_vals = values[k_lo:k_hi]
        blk_rows = blk_keys // num_cols - lo
        blk_cols = blk_keys % num_cols
        for chunk in sorted(dirty[block]):
            c_lo = chunk * CHUNK_COLS
            c_hi = min(c_lo + CHUNK_COLS, num_cols)
            tile = scaled @ v[c_lo:c_hi].T
            inside = (blk_cols >= c_lo) & (blk_cols < c_hi)
            if inside.any():
                # Delta keys are unique, so fancy += cannot collide.
                tile[blk_rows[inside], blk_cols[inside] - c_lo] += blk_vals[inside]
            col_blocks[S_SUM, block, c_lo:c_hi] = tile.sum(axis=0)
            col_blocks[S_SUMSQ, block, c_lo:c_hi] = (tile * tile).sum(axis=0)
            col_blocks[S_MIN, block, c_lo:c_hi] = tile.min(axis=0)
            col_blocks[S_MAX, block, c_lo:c_hi] = tile.max(axis=0)
            row_chunks[0, lo:hi, chunk] = tile.min(axis=1)
            row_chunks[1, lo:hi, chunk] = tile.max(axis=1)


def _row_profiles(
    u_store: MatrixStore,
    cutoff: int,
    lam: np.ndarray,
    v: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    shape: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(sum, sumsq)`` over all columns, in factor form.

    Always a full recompute: ``row_sum = (u∘λ)·Σv_j + Σδ`` and
    ``row_sumsq`` via the k×k Gram einsum plus the exact per-delta
    correction ``2·x̂·δ + δ²`` — the same identities
    :func:`repro.query.fastpath.factor_aggregate` uses, O(N·k²) total.
    """
    num_rows, num_cols = shape
    v_sum = v.sum(axis=0)
    gram = v.T @ v
    row_sum = np.zeros(num_rows)
    row_sumsq = np.zeros(num_rows)
    for lo in range(0, num_rows, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, num_rows)
        u_blk = u_store.read_rows(np.arange(lo, hi, dtype=np.int64))[:, :cutoff]
        scaled = u_blk * lam
        row_sum[lo:hi] = scaled @ v_sum
        row_sumsq[lo:hi] = np.einsum("nk,kl,nl->n", scaled, gram, scaled)
        k_lo, k_hi = np.searchsorted(keys, [lo * num_cols, hi * num_cols])
        if k_hi > k_lo:
            blk_keys = keys[k_lo:k_hi]
            blk_vals = values[k_lo:k_hi]
            rows_abs = blk_keys // num_cols
            base = np.einsum(
                "ik,ik->i", scaled[rows_abs - lo], v[blk_keys % num_cols]
            )
            np.add.at(row_sum, rows_abs, blk_vals)
            np.add.at(row_sumsq, rows_abs, 2.0 * base * blk_vals + blk_vals * blk_vals)
    return row_sum, row_sumsq


def _derive_col_stats(col_blocks: np.ndarray) -> np.ndarray:
    """Collapse per-block partials to the (4, M) column profile.

    Sums accumulate block-by-block in ascending block order (a fixed
    sequential reduction, so incremental and cold runs add in the same
    order); min/max reductions are order-free and exact.
    """
    num_blocks = col_blocks.shape[1]
    num_cols = col_blocks.shape[2]
    total = np.zeros(num_cols)
    total_sq = np.zeros(num_cols)
    for block in range(num_blocks):
        total += col_blocks[S_SUM, block]
        total_sq += col_blocks[S_SUMSQ, block]
    minimum = np.min(col_blocks[S_MIN], axis=0)
    maximum = np.max(col_blocks[S_MAX], axis=0)
    return np.stack([total, total_sq, minimum, maximum])


# -- append support: churn and dirty tiles ---------------------------------


def changed_cells(
    old_keys: np.ndarray,
    old_values: np.ndarray,
    new_keys: np.ndarray,
    new_values: np.ndarray,
) -> np.ndarray:
    """Cell keys whose delta changed between two sorted delta tables.

    The symmetric difference of the ``(key, value)`` record sets:
    appends re-run the delta budget competition, which can *evict* old
    outliers — a cell whose delta disappears reconstructs differently,
    so its tile is dirty even though no data near it changed.  Both key
    arrays must be sorted and unique and address the same (post-append)
    key space; the result is sorted.
    """
    if old_keys.size == 0 or new_keys.size == 0:
        return np.concatenate([old_keys, new_keys])
    # Sorted merge: where each new key sits among the old ones (clipped,
    # so a key past the last old key compares unequal instead of
    # indexing out of range).
    pos = np.minimum(np.searchsorted(old_keys, new_keys), old_keys.size - 1)
    kept = old_keys[pos] == new_keys
    survivors = pos[kept]
    evicted = np.ones(old_keys.size, dtype=bool)
    evicted[survivors] = False
    moved = ~kept  # admitted, or kept with a different value
    moved[kept] = old_values[survivors] != new_values[kept]
    return np.sort(np.concatenate([old_keys[evicted], new_keys[moved]]))


def dirty_tiles(
    covered_rows: int,
    covered_cols: int,
    shape: tuple[int, int],
    churn_keys: np.ndarray,
) -> dict[int, set[int]]:
    """The tile set an incremental refresh must recompute.

    Everything beyond the prior coverage is dirty (new rows/columns and
    the boundary block/chunk whose GEMM shape changed), plus the tile
    of every churned delta cell.  ``churn_keys`` address the *new*
    (post-append) key space.
    """
    num_rows, num_cols = shape
    blocks = _ceil_div(num_rows, BLOCK_ROWS)
    chunks = _ceil_div(num_cols, CHUNK_COLS)
    first_dirty_chunk = covered_cols // CHUNK_COLS if covered_cols < num_cols else chunks
    first_dirty_block = covered_rows // BLOCK_ROWS if covered_rows < num_rows else blocks
    dirty: dict[int, set[int]] = {}
    if first_dirty_chunk < chunks:
        for block in range(blocks):
            dirty.setdefault(block, set()).update(range(first_dirty_chunk, chunks))
    for block in range(first_dirty_block, blocks):
        dirty.setdefault(block, set()).update(range(chunks))
    if churn_keys.size:
        churn_blocks = (churn_keys // num_cols) // BLOCK_ROWS
        churn_chunks = (churn_keys % num_cols) // CHUNK_COLS
        for block, chunk in zip(churn_blocks.tolist(), churn_chunks.tolist()):
            dirty.setdefault(block, set()).add(chunk)
    return dirty


# -- prior state -----------------------------------------------------------


def load_state(directory: Path) -> dict | None:
    """Parse ``summary_state.json``, or None when absent/invalid."""
    try:
        state = json.loads((Path(directory) / STATE_NAME).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(state, dict) or state.get("format_version") != _FORMAT_VERSION:
        return None
    required = (
        "rows",
        "cols",
        "covered_rows",
        "covered_cols",
        "num_deltas",
        "appends",
        "block_rows",
        "chunk_cols",
    )
    if any(key not in state for key in required):
        return None
    return state


def stamped_generation(state: dict) -> tuple[int, int, int, int]:
    """The model generation a summary state was written for."""
    return tuple(int(state[key]) for key in ("rows", "cols", "num_deltas", "appends"))


def load_prior(parts: ModelParts) -> dict | None:
    """The incremental-maintenance inputs of a model's summary store.

    Returns ``{"state", "col_blocks", "row_chunks"}`` when the
    directory of ``parts`` holds a structurally valid store on this tile
    grid stamped for its generation, None otherwise — a refresh then
    starts cold.  The two tile files are inputs the refresh copies clean
    tiles out of and re-hashes, so their manifest SHA-256 is checked
    first: carrying a damaged tile forward would launder the damage into
    a clean manifest.
    """
    directory = parts.directory
    state = load_state(directory)
    if state is None or stamped_generation(state) != parts.generation:
        return None
    if (int(state["block_rows"]), int(state["chunk_cols"])) != (BLOCK_ROWS, CHUNK_COLS):
        return None
    try:
        for name in (COLBLOCKS_NAME, ROWCHUNKS_NAME):
            check_entry(directory, parts.manifest_files, name, deep=True)
    except ChecksumError as exc:
        if _obs.enabled:
            _obs.counter("update.summary_prior_rejected").inc()
        log_event("update.summary_prior_rejected", directory=str(directory), reason=str(exc))
        return None
    try:
        col_blocks = np.load(directory / COLBLOCKS_NAME, allow_pickle=False)
        row_chunks = np.load(directory / ROWCHUNKS_NAME, allow_pickle=False)
    except Exception:
        return None
    covered_rows = int(state["covered_rows"])
    covered_cols = int(state["covered_cols"])
    if col_blocks.shape != (4, _ceil_div(covered_rows, BLOCK_ROWS), covered_cols):
        return None
    if row_chunks.shape != (2, covered_rows, _ceil_div(covered_cols, CHUNK_COLS)):
        return None
    return {"state": state, "col_blocks": col_blocks, "row_chunks": row_chunks}


# -- materialization -------------------------------------------------------


def _array_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(array))
    return buf.getvalue()


def materialize_summaries(
    staged: ModelParts,
    prior: dict | None = None,
    dirty: dict[int, set[int]] | None = None,
) -> dict:
    """Build (or refresh) the summary files of a model being staged.

    ``staged`` is the version :func:`~repro.storage.model_dir.write_model`
    is assembling, as a read of its staging directory would return it;
    the files are written there plainly.  With ``prior``/``dirty`` (from
    :func:`load_prior` / :func:`dirty_tiles`), clean tiles are copied
    from the prior arrays and only the dirty ones recomputed; the result
    is bit-identical to a cold build by the tile-grid contract in the
    module docstring.

    Returns the state dict that was written.
    """
    state, files = _materialize(staged, prior, dirty, None)
    for name, data in files:
        (staged.directory / name).write_bytes(data)
    return state


def _materialize(
    parts: ModelParts,
    prior: dict | None,
    dirty: dict[int, set[int]] | None,
    start_date: str | None,
) -> tuple[dict, list[tuple[str, bytes]]]:
    """The summary store of ``parts``: its state, and the six files as
    ``(name, bytes)`` in the order to write them (the state file last)."""
    directory = parts.directory
    started = time.perf_counter()
    num_rows, num_cols, num_deltas, appends = parts.generation
    blocks = _ceil_div(num_rows, BLOCK_ROWS)
    chunks = _ceil_div(num_cols, CHUNK_COLS)

    col_blocks = np.full((4, blocks, num_cols), np.nan)
    row_chunks = np.empty((2, num_rows, chunks))
    row_chunks[0].fill(np.inf)
    row_chunks[1].fill(-np.inf)

    if prior is None:
        dirty = {block: set(range(chunks)) for block in range(blocks)}
    else:
        if dirty is None:
            raise ReproError("incremental materialization needs a dirty tile set")
        prior_blocks = prior["col_blocks"]
        prior_chunks = prior["row_chunks"]
        col_blocks[:, : prior_blocks.shape[1], : prior_blocks.shape[2]] = prior_blocks
        row_chunks[:, : prior_chunks.shape[1], : prior_chunks.shape[2]] = prior_chunks
        if start_date is None:
            start_date = prior["state"].get("start_date")

    model = (
        parts.u_store,
        parts.cutoff,
        parts.eigenvalues,
        parts.v,
        parts.delta_keys,
        parts.delta_values,
        (num_rows, num_cols),
    )
    with _span(
        "summaries.tiles",
        tiles=sum(len(chunk_set) for chunk_set in dirty.values()),
    ):
        _compute_tiles(*model, col_blocks, row_chunks, dirty)
    with _span("summaries.row_profiles", rows=num_rows):
        row_sum, row_sumsq = _row_profiles(*model)

    if np.isnan(col_blocks).any():
        raise ReproError(
            f"{directory}: summary tile grid left uncovered tiles — "
            "dirty set does not match prior coverage"
        )

    col_stats = _derive_col_stats(col_blocks)
    row_stats = np.stack(
        [
            row_sum,
            row_sumsq,
            np.min(row_chunks[0], axis=1),
            np.max(row_chunks[1], axis=1),
        ]
    )
    level_arrays: dict[str, np.ndarray] = {}
    for level in LEVELS:
        edges = level_edges(level, num_cols, start_date)
        level_arrays[f"edges_{level}"] = edges
        level_arrays[f"stats_{level}"] = bucket_stats(col_stats, edges)
    level_arrays["grand"] = np.array(
        [
            col_stats[S_SUM].sum(),
            col_stats[S_SUMSQ].sum(),
            col_stats[S_MIN].min(),
            col_stats[S_MAX].max(),
        ]
    )

    levels_buf = io.BytesIO()
    np.savez(levels_buf, **level_arrays)

    state = {
        "format_version": _FORMAT_VERSION,
        "rows": num_rows,
        "cols": num_cols,
        "covered_rows": num_rows,
        "covered_cols": num_cols,
        "num_deltas": num_deltas,
        "appends": appends,
        "block_rows": BLOCK_ROWS,
        "chunk_cols": CHUNK_COLS,
        "levels": list(LEVELS),
        "start_date": start_date,
    }
    if _obs.enabled:
        _obs.counter("summaries.materializations").inc()
        _obs.gauge("summaries.seconds").set(time.perf_counter() - started)
    return state, [
        (COLBLOCKS_NAME, _array_bytes(col_blocks)),
        (ROWCHUNKS_NAME, _array_bytes(row_chunks)),
        (COLS_NAME, _array_bytes(col_stats)),
        (ROWS_NAME, _array_bytes(row_stats)),
        (LEVELS_NAME, levels_buf.getvalue()),
        (STATE_NAME, json.dumps(state, indent=2).encode()),
    ]


def carry_summaries(previous: ModelParts, staged: ModelParts, refresh: bool) -> None:
    """Maintain the summary store inside an append's staging directory.

    ``previous`` is the pre-append model; ``staged`` the post-append one
    as :func:`~repro.storage.model_dir.write_model` holds it (outliers
    sorted by key).  Comparing its outliers against the previous set
    (re-based to the new key space — a column append changes ``M``)
    yields the churned cells: the delta budget re-competition can evict
    an old outlier far from the appended region, and the tile holding it
    reconstructs differently from then on.

    Three outcomes:

    - ``refresh`` with a valid prior → recompute only the dirty tiles
      (appended region, resized boundary tiles, churn tiles) —
      bit-identical to a cold rebuild;
    - ``refresh`` without one → cold build inside staging;
    - ``refresh=False`` (deferred) → hardlink the summary files forward
      with the *old* coverage recorded in a re-stamped state, so a
      later ``repro summarize`` can catch up incrementally.  Valid only
      when every churned cell lies outside the covered region;
      otherwise the covered tiles can no longer be trusted and the
      summaries are dropped instead.
    """
    prior = load_prior(previous)
    if prior is None:
        if refresh:
            with _span("update.summaries", mode="cold"):
                materialize_summaries(staged)
        return
    num_rows, num_cols, num_deltas, appends = staged.generation
    churn = changed_cells(
        previous.delta_keys_at(num_cols),
        previous.delta_values,
        staged.delta_keys,
        staged.delta_values,
    )
    covered = (
        int(prior["state"]["covered_rows"]),
        int(prior["state"]["covered_cols"]),
    )
    if refresh:
        dirty = dirty_tiles(covered[0], covered[1], (num_rows, num_cols), churn)
        with _span(
            "update.summaries",
            mode="incremental",
            tiles=sum(len(chunks) for chunks in dirty.values()),
            churn=int(churn.size),
        ):
            materialize_summaries(staged, prior, dirty)
        if _obs.enabled:
            _obs.counter("update.summary_refreshes").inc()
        return
    confined = bool(
        np.all((churn // num_cols >= covered[0]) | (churn % num_cols >= covered[1]))
    )
    if not confined:
        if _obs.enabled:
            _obs.counter("update.summary_drops").inc()
        return
    for name in SUMMARY_FILES:
        if name != STATE_NAME and (previous.directory / name).exists():
            link_or_copy(previous.directory / name, staged.directory / name)
    state = dict(prior["state"])
    state.update(rows=num_rows, cols=num_cols, num_deltas=num_deltas, appends=appends)
    (staged.directory / STATE_NAME).write_text(json.dumps(state, indent=2))
    if _obs.enabled:
        _obs.counter("update.summary_defers").inc()


def summarize_directory(
    directory: str | Path,
    rebuild: bool = False,
    start_date: str | None = None,
) -> dict:
    """Bring a live model directory's summary store up to date.

    The cubedash-gen-style ops entry point behind ``repro summarize``:

    - already fresh (and no ``--rebuild``/``start_date`` change) →
      no-op, status ``"fresh"``;
    - stale only in *coverage* (a deferred append stamped the current
      generation but left ``covered_* < rows/cols``) → incremental
      catch-up over the uncovered tiles, status ``"refreshed"``;
    - anything else (no store, foreign generation, ``--rebuild``) →
      cold build, status ``"rebuilt"``.

    The model is read — and so validated — first: a damaged directory
    is refused before any summary file is touched.  The integrity
    manifest is rewritten afterwards, reusing the recorded hashes of
    every non-summary file.
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
        shape = parts.generation[:2]
        prior = None if rebuild else load_prior(parts)
        status, tiles = "rebuilt", None
        if prior is not None:
            state = prior["state"]
            covered = (int(state["covered_rows"]), int(state["covered_cols"]))
            if start_date is not None and state.get("start_date") != start_date:
                prior = None  # bucket edges move: every level recomputes
            elif covered == shape:
                return report("fresh", state)
            else:
                # Deferred-append catch-up.  The defer path only carries
                # summaries forward when delta churn stayed inside the
                # appended region, so the uncovered tiles are exactly
                # the dirty set.
                tiles = dirty_tiles(*covered, shape, np.empty(0, dtype=np.int64))
                status = "refreshed"
        state, files = _materialize(parts, prior, tiles, start_date)
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
        status=status,
        seconds=round(time.perf_counter() - started, 6),
    )
    return report(status, state)
