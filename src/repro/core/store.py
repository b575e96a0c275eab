"""Persistent compressed-matrix store.

The paper's reconstruction-cost argument (Section 4.1) fixes a concrete
physical design: ``U`` is stored row-wise on disk with an entire row in
one disk block, while ``V``, the eigenvalues and the delta table are
pinned in main memory.  Fetching cell ``(i, j)`` then costs **one** disk
access (the ``U`` row) plus O(k) arithmetic, plus one in-memory probe
for the delta.

:class:`CompressedMatrix` implements that layout on a directory (the
files, and the one reader and one writer every module goes through,
are :mod:`repro.storage.model_dir`); the delta table is the row-indexed
:class:`~repro.core.delta_index.DeltaIndex` (one bisection of a row's
columns per probe), adopted as ``deltas.bin`` stores it — the same
representation the in-memory :class:`~repro.core.model.SVDDModel`
holds; the paper's hash table and Bloom filter live on only in
``repro.lab`` and their ablation bench.

Disk accesses are observable through the underlying buffer-pool
statistics; the storage benchmark asserts the 1-access claim with them.

This module only opens models.  They are written by
:func:`~repro.core.build.build_compressed` (a fresh model) and
:func:`~repro.core.update.append_columns` /
:func:`~repro.core.update.append_rows` (the next version).  Because the
model *replaces* the raw matrix on disk, each of them is crash-safe: it
assembles the directory in a staging sibling, fsyncs it, and renames it
into place, so an interrupted build or append leaves either the
previous model or a directory ``open()`` cleanly rejects.
``open(on_corrupt="degraded")`` downgrades a model whose *optional*
artifacts (``deltas.bin``, ``zero_rows.npy``) fail validation to
SVD-only answers instead of refusing service; the factor files
themselves are always load-bearing and always verified.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.core import space
from repro.core.delta_index import DeltaIndex
from repro.core.model import as_index_array
from repro.exceptions import ConfigurationError, QueryError, ReproError
from repro.obs.logging import log_event
from repro.obs.registry import registry as _obs
from repro.storage.matrix_store import Ascending
from repro.storage.model_dir import ModelParts, read_model

#: An ``open()`` racing a crash-atomic append's rename swap can read a
#: mix of old- and new-generation files, which the integrity checks
#: reject; the open retries briefly against the settled directory.  A
#: swap is two renames, so one short wait is nearly always enough.
_SWAP_RETRY_ATTEMPTS = 3
_SWAP_RETRY_DELAY_S = 0.01

#: Rows per gather when a whole-matrix scan streams the on-disk ``U``.
_U_BLOCK_ROWS = 1024


class CompressedMatrix:
    """Disk-resident SVD/SVDD model answering cell and range queries."""

    def __init__(self, parts: ModelParts, open_options: tuple[int, str, bool]) -> None:
        self._u_store = parts.u_store
        self._eigenvalues = parts.eigenvalues
        self._v = parts.v
        # The reader validated the table, so the index adopts its
        # private arrays as they are.
        self._deltas = DeltaIndex(parts.deltas, parts.cols) if parts.deltas.count else None
        self._directory = parts.directory
        # Section 6.2's flag, twice: a set for single probes and one
        # boolean per row (a byte each) for masking a batch of rows.
        self._zero_rows = frozenset(parts.zero_rows.tolist())
        self._zero_flag = np.zeros(parts.u_store.num_rows, dtype=bool)
        self._zero_flag[parts.zero_rows] = True
        #: On-disk precision of the factor matrices ('b' in the accounting).
        self._bytes_per_value = parts.bytes_per_value
        #: ``(pool_capacity, on_corrupt, mapped)``, so :meth:`reopen`
        #: can reproduce the open after an append.
        self._open_options = open_options
        #: Validation failures ``open(on_corrupt="degraded")`` absorbed.
        self._degraded_reasons = tuple(parts.degraded_reasons)
        #: ``(rows, cols, num_deltas, appends)`` as read at open time,
        #: for summary validation: a degraded open may drop the deltas
        #: while the summary files were built for the full model, and
        #: post-swap the live directory may hold a *newer* generation.
        self._generation = parts.generation
        # From the ledger read with this generation's files, not the
        # live directory a later append may have swapped.
        from repro.core.update import rmspe_from_state

        self._rmspe_estimate = rmspe_from_state(parts.update_state)
        #: Cells answered by the Section 6.2 zero-row flag, no disk read.
        self.stats = {"zero_row_skips": 0}
        # Guards the stats dict: dict ``+=`` is a read-modify-write, and
        # serve's handler threads query one store at once.
        self._stats_lock = threading.Lock()

    def _bump(self, key: str, amount: int = 1) -> None:
        """Thread-safe increment of one query-stat counter."""
        with self._stats_lock:
            self.stats[key] += amount

    # -- opening --------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str | os.PathLike,
        pool_capacity: int = 64,
        on_corrupt: str = "raise",
        mapped: bool = False,
    ) -> "CompressedMatrix":
        """Open a model directory; V/Lambda/deltas load into memory.

        File sizes are verified against the manifest cheaply up front
        (full hashing is ``repro fsck``'s job).  ``meta.json`` is
        exempt from the size check: it is validated structurally on
        parse, and hand-editing metadata is a supported escape hatch.

        Args:
            on_corrupt: ``"raise"`` (default) fails on any validation
                error; ``"degraded"`` falls back to SVD-only answers —
                no deltas, no zero-row fast path —
                when only the *optional* artifacts (``deltas.bin``,
                ``zero_rows.npy``, the ledger, the manifest itself) are
                damaged or missing.
                Degraded opens increment the ``store.degraded_opens``
                registry counter and emit a ``store.degraded_open``
                structured log event; the factor files are always
                verified and always fatal when corrupt.
            mapped: take the buffer pool out of single-row and cell
                reads of ``u.mat`` too (batched gathers index a
                read-only ``mmap`` view on every open).  It says how
                ``u.mat`` is read and nothing else: V, Lambda and the
                delta table are one private in-memory copy on every
                open, as in §4.1.

        Opening is safe against a concurrent crash-atomic append: the
        incremental-update path replaces the whole model directory with
        a ``rename()`` swap, so an ``open()`` that straddles the swap
        can read ``meta.json`` from the old directory and ``deltas.bin``
        from the new one — a mix the integrity checks correctly reject.
        ``open()`` detects that case (the directory inode changed under
        the failed attempt) and retries against the settled directory;
        a validation failure with a *stable* inode is genuine corruption
        and raises immediately.
        """
        if on_corrupt not in ("raise", "degraded"):
            raise ConfigurationError(
                f"on_corrupt must be 'raise' or 'degraded', got {on_corrupt!r}"
            )
        directory = Path(directory)
        for _attempt in range(_SWAP_RETRY_ATTEMPTS):
            identity = cls._dir_identity(directory)
            try:
                return cls._open_once(directory, pool_capacity, on_corrupt, mapped)
            except (ReproError, FileNotFoundError):
                if identity is not None and cls._dir_identity(directory) == identity:
                    raise
                # The directory was swapped (or is mid-swap) underneath
                # this attempt; wait out the rename and try again.
                time.sleep(_SWAP_RETRY_DELAY_S)
        return cls._open_once(directory, pool_capacity, on_corrupt, mapped)

    @staticmethod
    def _dir_identity(directory: Path) -> tuple[int, int] | None:
        """The directory's ``(device, inode)``, or None while absent
        (the instant between an atomic swap's two renames)."""
        try:
            stat = os.stat(directory)
        except OSError:
            return None
        return (stat.st_dev, stat.st_ino)

    @classmethod
    def _open_once(
        cls,
        directory: Path,
        pool_capacity: int,
        on_corrupt: str,
        mapped: bool,
    ) -> "CompressedMatrix":
        parts = read_model(
            directory, pool_capacity=pool_capacity, on_corrupt=on_corrupt, mapped=mapped
        )
        if parts.degraded_reasons:
            _obs.counter("store.degraded_opens").inc()
            log_event(
                "store.degraded_open",
                level="warning",
                directory=str(directory),
                reasons=parts.degraded_reasons,
            )
        return cls(parts, (pool_capacity, on_corrupt, mapped))

    def reopen(self) -> "CompressedMatrix":
        """Open a fresh store over the directory's *current* contents.

        Incremental appends (:mod:`repro.core.update`) swap the whole
        model directory via rename, so an already-open store keeps
        serving its pre-append snapshot through the old file handles;
        ``reopen()`` is how a long-lived server picks up the post-append
        state.  Uses the same pool capacity, corruption policy, and
        mapping mode this store was opened with.  The caller owns both
        stores — close the old one once its in-flight queries drain.
        """
        pool_capacity, on_corrupt, mapped = self._open_options
        return type(self).open(
            self._directory,
            pool_capacity=pool_capacity,
            on_corrupt=on_corrupt,
            mapped=mapped,
        )

    def close(self) -> None:
        """Release the U store's file handle."""
        self._u_store.close()

    def __enter__(self) -> "CompressedMatrix":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- geometry -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """``(N, M)`` of the matrix this store approximates."""
        return (self._u_store.num_rows, self._v.shape[0])

    @property
    def cutoff(self) -> int:
        """Number of retained principal components."""
        return int(self._eigenvalues.shape[0])

    @property
    def num_zero_rows(self) -> int:
        """All-zero customers flagged for the Section 6.2 fast path."""
        return len(self._zero_rows)

    @property
    def num_deltas(self) -> int:
        """Stored outlier count (0 for plain SVD models)."""
        return len(self._deltas) if self._deltas is not None else 0

    @property
    def appends(self) -> int:
        """Appends since the build, as read at open (-1 when a degraded
        open dropped the ledger)."""
        return self._generation[3]

    @property
    def delta_index(self) -> DeltaIndex | None:
        """The row-indexed outlier table (None for plain SVD models)."""
        return self._deltas

    @property
    def deltas_lost(self) -> bool:
        """True when ``meta.json`` counts deltas this open could not
        load: a degraded open that dropped ``deltas.bin``."""
        return self._generation[2] > self.num_deltas

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def mapped(self) -> bool:
        """True when opened ``mapped=True``: no ``u.mat`` read uses the pool."""
        return self._u_store.mapped

    @property
    def u_store(self):
        """The paged :class:`~repro.storage.matrix_store.MatrixStore`
        holding ``U`` — the store whose pages every row fetch hits.
        Exposed read-only for the query planner's page accounting."""
        return self._u_store

    @property
    def u_pool_stats(self):
        """Buffer-pool counters of the U store — the 'disk accesses'."""
        return self._u_store.pool_stats

    @property
    def u_io_stats(self):
        """Physical page reads of the U store."""
        return self._u_store.io_stats

    _summaries_cache = None
    _summaries_checked: bool = False

    @property
    def summaries(self):
        """The model's :class:`~repro.summaries.store.SummaryStore`,
        or None when absent or stamped for a different generation.

        Loaded lazily on first access and cached (including a cached
        *miss* — a model without summaries should not pay a stat dance
        per query).  Validation compares the summary state against the
        meta/update-state facts captured when *this store* was opened,
        so a post-append directory swap can never pair a new summary
        file with this store's pre-append snapshot.
        """
        if not self._summaries_checked:
            from repro.summaries.store import SummaryStore

            self._summaries_cache = SummaryStore.load(
                self._directory, expected=self._generation
            )
            self._summaries_checked = True
        return self._summaries_cache

    @property
    def rmspe_estimate(self) -> float | None:
        """Stored relative reconstruction error of the rank-k truncation.

        Computed at open from the ``update_state.json`` read with this
        store's files (see :func:`repro.core.update.rmspe_from_state`),
        so a store keeps its own generation's estimate after an append
        swaps the directory.  The query planner uses it as the error
        bound of the SVD-only route; None means a degraded open dropped
        the ledger, or it recorded no energy.
        """
        return self._rmspe_estimate

    @property
    def bytes_per_value(self) -> int:
        """Per-number storage cost of the factor matrices."""
        return self._bytes_per_value

    @property
    def degraded(self) -> bool:
        """True when this store opened without its optional artifacts.

        What it lost decides what it can still answer exactly: without
        ``deltas.bin`` (:attr:`deltas_lost`) its cells are the bare SVD
        and the planner admits no exact factor or stream route.
        """
        return bool(self._degraded_reasons)

    @property
    def degraded_reasons(self) -> tuple[str, ...]:
        """The validation failures a degraded open absorbed."""
        return self._degraded_reasons

    def space_bytes(self) -> int:
        """Logical model size per the paper's accounting."""
        rows, cols = self.shape
        return space.svdd_space_bytes(
            rows, cols, self.cutoff, self.num_deltas, self._bytes_per_value
        )

    # -- queries ----------------------------------------------------------------

    def cell(self, row: int, col: int) -> float:
        """Reconstruct one cell: one U-row disk access + O(k) arithmetic.

        A probe pays for one U page (a pool hit or one pager read, the
        row handed over as the cached page itself), one k-term dot
        product and one bisection of the row's delta columns — and for the two
        locks that count them, the pool's and the delta index's.
        """
        rows, cols = self.shape
        if not 0 <= row < rows:
            raise QueryError(f"row {row} out of range [0, {rows})")
        if not 0 <= col < cols:
            raise QueryError(f"col {col} out of range [0, {cols})")
        if row in self._zero_rows:
            # Flagged inactive customer: answer without any disk access.
            self._bump("zero_row_skips")
            return 0.0
        base = float(np.dot(self._u_store.row(row) * self._eigenvalues, self._v[col]))
        deltas = self._deltas
        return base + (0.0 if deltas is None else deltas.get(row, col, 0.0))

    def _u_blocks(self):
        """All of ``U`` as ``(start_row, block)`` gathers of
        ``_U_BLOCK_ROWS`` rows, one GEMM's worth each; iterating to the
        end counts as one pass over the store."""
        num_rows = self._u_store.num_rows
        for lo in range(0, num_rows, _U_BLOCK_ROWS):
            hi = min(lo + _U_BLOCK_ROWS, num_rows)
            yield lo, self._u_store.read_rows(np.arange(lo, hi))
        self._u_store.note_full_scan()

    def factors(self, row_idx: np.ndarray):
        """The selected rows in factor space, for aggregates that never
        need the reconstructed cells.

        Returns ``(scaled_u, v, delta_index, rows_fetched)``: the rows'
        ``u_i * Lambda`` coordinates — one batched
        :meth:`~repro.storage.matrix_store.MatrixStore.read_rows`
        gather, zero rows included so the page accounting matches the
        planner's — the pinned ``V``, the outlier index (None for plain
        SVD models) and the U-row fetches the gather performed.
        """
        u_sel = self._u_store.read_rows(row_idx)
        return u_sel * self._eigenvalues, self._v, self._deltas, int(row_idx.size)

    def reconstruct_range(self, rows, cols) -> np.ndarray:
        """Reconstruct an arbitrary submatrix (selected rows x columns).

        The paper's 'processing run' access pattern, vectorized: the
        selected U rows come back as one batched gather (each row one
        logical page of the mapped ``u.mat``), the block is one GEMM
        against the selected V columns, and the delta corrections inside
        the rectangle fold in via the sorted
        :class:`~repro.core.delta_index.DeltaIndex` — no per-row or
        per-delta Python loops.  A resolved selection (two
        :class:`~repro.storage.matrix_store.Ascending`) is not checked again.
        """
        if isinstance(rows, Ascending) and isinstance(cols, Ascending):
            row_idx, col_idx = rows.idx, cols.idx
        else:
            rows, cols = as_index_array(rows), as_index_array(cols)
            total_rows, total_cols = self.shape
            if rows.size == 0 or cols.size == 0:
                raise QueryError("reconstruct_range needs non-empty selections")
            if rows.min() < 0 or rows.max() >= total_rows:
                raise QueryError(f"row selection outside [0, {total_rows})")
            if cols.min() < 0 or cols.max() >= total_cols:
                raise QueryError(f"col selection outside [0, {total_cols})")
            row_idx, col_idx = rows, cols
        v_sel = self._v.take(col_idx, axis=0)  # (m_sel, k)
        zero = self._zero_flag.take(row_idx)
        skipped = int(np.count_nonzero(zero))
        if not skipped:
            u_sel = self._u_store.read_rows(rows)
            out = (u_sel * self._eigenvalues) @ v_sel.T
        else:
            self._bump("zero_row_skips", skipped)
            out = np.zeros((rows.size, cols.size))
            live = ~zero
            if skipped < rows.size:
                u_sel = self._u_store.read_rows(rows[live])
                out[live] = (u_sel * self._eigenvalues) @ v_sel.T
        if self._deltas is not None and len(self._deltas) > 0:
            row_pos, col_pos, _r, _c, values = self._deltas.select(rows, cols)
            out[row_pos, col_pos] += values
        return out

    def reconstruct_all(self) -> np.ndarray:
        """Materialize the full approximation (tests / small data only)."""
        rows, cols = self.shape
        out = np.empty((rows, cols))
        for start, block in self._u_blocks():
            stop = start + block.shape[0]
            out[start:stop] = (block * self._eigenvalues) @ self._v.T
        if self._deltas is not None:
            # Cells are unique, so fancy-indexed += cannot collide.
            out[self._deltas.rows, self._deltas.cols] += self._deltas.values
        return out
