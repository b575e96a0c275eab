"""On-disk row-major matrix store.

This is the reproduction's stand-in for the paper's "huge data matrix
on disk": an ``N x M`` float64 matrix stored row-major in a paged file.
It supports exactly the two access patterns the paper's algorithms
need —

- **streamed passes** (:meth:`MatrixStore.iter_row_blocks`, and
  :meth:`MatrixStore.iter_rows` over it): sequential block reads used
  by the one-pass Gram computation (Figure 2), the error pass of SVDD
  (Figure 5), and the U-emitting pass (Figure 3).  Completed full
  scans are counted in :attr:`pass_count`, so tests can assert the
  '2-pass' and '3-pass' claims literally;
- **random row / cell access** (:meth:`MatrixStore.row`,
  :meth:`MatrixStore.cell`) through an LRU :class:`BufferPool` — the
  cold-cell path on which the paper's one-disk-access-per-cell claim
  is measured;
- **batched row gathers** (:meth:`MatrixStore.read_rows`): one
  fancy-indexed copy out of a read-only ``mmap`` view of the data
  region.  A gather does no pager I/O and never enters the pool; the
  distinct logical pages it covers (:meth:`MatrixStore.pages_for_rows`)
  are accounted as pool ``bypasses`` so the paper's disk-access tables
  still report.

File layout: the header (magic, version, shape, page size, CRC of the
header fields), padded to whole pages — one page, unless a page is
smaller than the header's 33 bytes — followed by the row-major data
region.
"""

from __future__ import annotations

import mmap as _mmap
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import (
    ChecksumError,
    ConfigurationError,
    FormatError,
    QueryError,
    ShapeError,
    StoreClosedError,
)
from repro.obs.registry import registry as _obs
from repro.obs.tracing import span as _span
from repro.storage.atomic import fsync_dir
from repro.storage.buffer_pool import BufferPool, read_span
from repro.storage.pager import PAGE_SIZE_DEFAULT, FilePager

_MAGIC = b"RPRMTX02"
_HEADER_FMT = "<8sQQIBI"  # magic, rows, cols, page_size, dtype code, crc32
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_STREAM_CHUNK_ROWS = 256
#: ``store.read_rows.calls`` / ``.rows``, bound once.
_READ_CALLS = _obs.bind_counter("store.read_rows.calls")
_READ_ROWS = _obs.bind_counter("store.read_rows.rows")

#: Storable element types: code <-> numpy dtype.  float32 halves the
#: per-number cost 'b', letting the same budget hold twice the model.
_DTYPE_CODES = {0: np.dtype(np.float64), 1: np.dtype(np.float32)}
_CODES_BY_DTYPE = {dtype: code for code, dtype in _DTYPE_CODES.items()}


class Ascending:
    """Non-empty int64 indices ``idx`` that ``Selection.resolve`` proved
    strictly increasing and inside the matrix: the layers below read its
    bounds and whether it is a run off its ends instead of checking the
    array again.  NumPy reads it as ``idx``.  Its pages in a store and
    its key runs in a delta index are counted once, by the first layer
    that asks (for a plan's selection, the planner), and noted on it as
    ``(owner, count)`` for the others: the gather and the fold."""

    __slots__ = ("idx", "size", "run", "pages", "key_runs")

    def __init__(self, idx: np.ndarray) -> None:
        first, last = int(idx[0]), int(idx[-1])
        self.idx, self.size = idx, idx.size
        #: ``(first, last)`` when ``idx`` is ``first, first + 1, ..., last``.
        self.run = (first, last) if last - first + 1 == idx.size else None
        self.pages = self.key_runs = None

    def __getitem__(self, part) -> "Ascending":
        """A unit-step slice or a boolean mask of it: still ascending."""
        if isinstance(part, slice) and part.step in (None, 1) or getattr(part, "dtype", 0) == bool:
            return Ascending(self.idx[part])
        raise TypeError(f"an Ascending stays one under a slice or a mask, not {part!r}")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.idx, dtype=dtype)


def _close_mapping(mm: _mmap.mmap | None) -> None:
    """Close ``mm`` unless a reader still holds a slice of its view (a
    gather or scan in flight on another thread) — then the mapping is
    released with its last export instead of raising ``BufferError``."""
    if mm is not None:
        try:
            mm.close()
        except BufferError:
            pass


class MatrixStore:
    """A paged, read-optimized float64 matrix on disk.

    Instances are created with :meth:`create` (from an in-memory array)
    or :meth:`create_from_rows` (from a row stream, never materializing
    the matrix), then opened with :meth:`open`.

    Reads are thread-safe: the pager uses positionless ``os.pread`` (no
    shared cursor), the buffer pool is one LRU under one lock and the
    mapped view is read-only, so any number of threads may call
    :meth:`row`, :meth:`read_rows`, :meth:`cell`, or run independent
    :meth:`iter_rows` iterators over disjoint bands concurrently on one
    open store.

    Every open maps the data region read-only and serves
    :meth:`read_rows` from that view, so the kernel's page cache holds
    the one physical copy of the file that threads and processes share.
    ``open(mapped=True)`` additionally takes the buffer pool and pager
    out of :meth:`row`, :meth:`cell` and :meth:`iter_rows` — nothing is
    cached per process and no page is accounted — which is how
    ``repro serve`` opens its model.  Such a store is a
    read-only snapshot of the file at open time; :meth:`append_rows`
    refuses to run on one.
    """

    def __init__(
        self,
        pager: FilePager,
        rows: int,
        cols: int,
        pool_capacity: int,
        dtype: np.dtype = np.dtype(np.float64),
        mapped: bool = False,
    ) -> None:
        self._pager = pager
        self._rows = rows
        self._cols = cols
        self._dtype = np.dtype(dtype)
        self._item = self._dtype.itemsize
        self._unpack_row = struct.Struct("=" + self._dtype.char * cols).unpack
        self._pool = BufferPool(pager, capacity=pool_capacity)
        # The data region starts at the first page past the header.
        self._data_offset = -(-_HEADER_SIZE // pager.page_size) * pager.page_size
        #: Row 0's page when every row is exactly one page, as each
        #: ``u.mat`` row is (row ``i`` is then page ``_row_page + i``);
        #: None otherwise.
        self._row_page = (
            self._data_offset // pager.page_size
            if cols * self._item == pager.page_size
            else None
        )
        self._pass_count = 0
        self._pass_lock = threading.Lock()
        self._mapped = mapped
        self._mm: _mmap.mmap | None = None
        self._view: np.ndarray | None = None
        self._map_data()

    def _map_data(self) -> None:
        """(Re)map the data region read-only as one ``(rows, cols)`` view.

        Refuses a file shorter than its header promises, so a truncated
        store is a :class:`FormatError` here and never a ``SIGBUS`` in
        the middle of a gather.  The mapping covers the whole file
        (offset arithmetic happens in ``frombuffer``), is private to no
        one — ``MAP_SHARED`` semantics of ``ACCESS_READ`` mean every
        process mapping this file shares the same physical page-cache
        pages — and outlives the pager's file descriptor.  A zero-row
        store keeps an empty array instead of a zero-length mapping.
        """
        needed = self._data_offset + self._rows * self._cols * self._item
        size = os.fstat(self._pager.fileno()).st_size
        if size < needed:
            raise FormatError(
                f"{self._pager.path}: file holds {size} bytes but the "
                f"header promises {needed} — truncated store cannot be mapped"
            )
        stale = self._mm
        if self._rows == 0:
            self._mm = None
            self._view = np.empty((0, self._cols), dtype=self._dtype)
        else:
            self._mm = _mmap.mmap(
                self._pager.fileno(), 0, access=_mmap.ACCESS_READ
            )
            self._view = np.frombuffer(
                self._mm,
                dtype=self._dtype,
                count=self._rows * self._cols,
                offset=self._data_offset,
            ).reshape(self._rows, self._cols)
        _close_mapping(stale)

    def _live_view(self) -> np.ndarray:
        view = self._view
        if view is None:
            raise StoreClosedError(f"{self.path}: store is closed")
        return view

    @property
    def mapped(self) -> bool:
        """True when opened ``mapped=True``: no read touches pool or pager."""
        return self._mapped

    # -- construction -----------------------------------------------------

    @staticmethod
    def _write_header(pager: FilePager, header: bytes) -> None:
        """Write ``header`` over the first pages, the last one zero-padded."""
        size = pager.page_size
        for page in range(-(-len(header) // size)):
            pager.write_page(page, header[page * size : (page + 1) * size])

    @staticmethod
    def _pack_header(rows: int, cols: int, page_size: int, dtype_code: int) -> bytes:
        body = struct.pack("<8sQQIB", _MAGIC, rows, cols, page_size, dtype_code)
        crc = zlib.crc32(body) & 0xFFFFFFFF
        return struct.pack(
            _HEADER_FMT, _MAGIC, rows, cols, page_size, dtype_code, crc
        )

    @classmethod
    def create(
        cls,
        path: str | os.PathLike,
        matrix: np.ndarray,
        page_size: int = PAGE_SIZE_DEFAULT,
        pool_capacity: int = 64,
        dtype=np.float64,
    ) -> "MatrixStore":
        """Write ``matrix`` to ``path`` and return an open store over it."""
        arr = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
        if arr.ndim != 2 or arr.size == 0:
            raise ShapeError(f"matrix must be 2-d and non-empty, got shape {arr.shape}")
        return cls.create_from_rows(
            path,
            (arr[i] for i in range(arr.shape[0])),
            num_cols=arr.shape[1],
            page_size=page_size,
            pool_capacity=pool_capacity,
            dtype=dtype,
        )

    @classmethod
    def create_from_rows(
        cls,
        path: str | os.PathLike,
        rows: Iterable[np.ndarray],
        num_cols: int,
        page_size: int = PAGE_SIZE_DEFAULT,
        pool_capacity: int = 64,
        dtype=np.float64,
    ) -> "MatrixStore":
        """Stream rows to ``path`` without holding the matrix in memory.

        Args:
            dtype: on-disk element type (float64 or float32); rows are
                cast on write and read back as float64 for computation.
        """
        if num_cols < 1:
            raise ShapeError(f"num_cols must be >= 1, got {num_cols}")
        store_dtype = np.dtype(dtype)
        if store_dtype not in _CODES_BY_DTYPE:
            raise ConfigurationError(
                f"unsupported dtype {store_dtype}; use float64 or float32"
            )
        # Crash-safe create: build the file as a temporary sibling, make
        # it durable, then rename into place.  A crash mid-write leaves
        # either the previous file or no file — never a torn store.
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        pager = FilePager(tmp, page_size=page_size, create=True)
        try:
            # Reserve the header's pages; the true header is rewritten
            # at the end once the row count is known.
            cls._write_header(pager, bytes(_HEADER_SIZE))
            count = 0
            buffer: list[bytes] = []
            buffered_rows = 0
            for row in rows:
                arr = np.ascontiguousarray(np.asarray(row, dtype=store_dtype))
                if arr.shape != (num_cols,):
                    raise ShapeError(
                        f"row {count} has shape {arr.shape}, expected ({num_cols},)"
                    )
                buffer.append(arr.tobytes())
                buffered_rows += 1
                count += 1
                if buffered_rows >= _STREAM_CHUNK_ROWS:
                    pager.append_raw(b"".join(buffer))
                    buffer.clear()
                    buffered_rows = 0
            if buffer:
                pager.append_raw(b"".join(buffer))
            if count == 0:
                raise ShapeError("cannot create a store with zero rows")
            cls._write_header(
                pager,
                cls._pack_header(
                    count, num_cols, page_size, _CODES_BY_DTYPE[store_dtype]
                ),
            )
            pager.sync()
            pager.close()
        except BaseException:
            pager.close()
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, path)
        fsync_dir(path.parent)
        pager = FilePager(path, page_size=page_size, create=False)
        return cls(pager, count, num_cols, pool_capacity, dtype=store_dtype)

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        pool_capacity: int = 64,
        mapped: bool = False,
    ) -> "MatrixStore":
        """Open an existing store, validating its header.

        Args:
            mapped: serve reads from a read-only ``mmap`` of the data
                region instead of the buffer pool (see the class
                docstring).  The store becomes a read-only snapshot.
        """
        pager = FilePager(path, page_size=PAGE_SIZE_DEFAULT, create=False)
        raw = pager.read_page(0)
        try:
            magic, rows, cols, page_size, dtype_code, crc = struct.unpack_from(
                _HEADER_FMT, raw
            )
        except struct.error as exc:
            pager.close()
            raise FormatError(f"{path}: truncated header") from exc
        if magic != _MAGIC:
            pager.close()
            raise FormatError(f"{path}: bad magic {magic!r}")
        body = struct.pack("<8sQQIB", magic, rows, cols, page_size, dtype_code)
        if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            pager.close()
            raise ChecksumError(f"{path}: header checksum mismatch")
        if dtype_code not in _DTYPE_CODES:
            pager.close()
            raise FormatError(f"{path}: unknown dtype code {dtype_code}")
        if page_size != pager.page_size:
            # Re-open with the stored page size.
            pager.close()
            pager = FilePager(path, page_size=page_size, create=False)
        try:
            return cls(
                pager,
                rows,
                cols,
                pool_capacity,
                dtype=_DTYPE_CODES[dtype_code],
                mapped=mapped,
            )
        except BaseException:
            pager.close()
            raise

    def append_rows(self, rows: Iterable[np.ndarray]) -> int:
        """Append rows at the end of the store, in place; returns the count.

        The data bytes land first (the pager appends at the current end
        of the data region), then the header is rewritten with the
        new row count and the file is fsynced — so a reader of the *old*
        header still sees a fully consistent prefix.  The append is
        nevertheless not crash-atomic as a whole (a crash between the
        data append and the header rewrite leaves unreferenced tail
        bytes whose size no longer matches any manifest); the
        incremental-maintenance path therefore only ever appends to a
        **staged copy** that is swapped in atomically afterwards.
        """
        if self._mapped:
            raise ConfigurationError(
                f"{self.path}: cannot append to a store opened with "
                "mapped=True — it is a fixed-size read-only snapshot; "
                "append through a default open instead"
            )
        appended = 0
        buffer: list[bytes] = []
        buffered = 0
        for row in rows:
            arr = np.ascontiguousarray(np.asarray(row, dtype=self._dtype))
            if arr.shape != (self._cols,):
                raise ShapeError(
                    f"appended row {appended} has shape {arr.shape}, "
                    f"expected ({self._cols},)"
                )
            buffer.append(arr.tobytes())
            buffered += 1
            appended += 1
            if buffered >= _STREAM_CHUNK_ROWS:
                self._pager.append_raw(b"".join(buffer))
                buffer.clear()
                buffered = 0
        if buffer:
            self._pager.append_raw(b"".join(buffer))
        if appended == 0:
            return 0
        new_rows = self._rows + appended
        self._write_header(
            self._pager,
            self._pack_header(
                new_rows,
                self._cols,
                self._pager.page_size,
                _CODES_BY_DTYPE[self._dtype],
            ),
        )
        self._pager.sync()
        self._rows = new_rows
        # Pages at the old tail may be cached zero-padded; drop them and
        # re-make the view over the grown file so reads of the appended
        # rows see the new bytes.
        self._pool.invalidate()
        self._map_data()
        return appended

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the backing file and release any mapping (idempotent)."""
        # Drop the NumPy view first: it is the mapping's own export.
        self._view = None
        _close_mapping(self._mm)
        self._mm = None
        self._pager.close()

    def __enter__(self) -> "MatrixStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- geometry & stats -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, cols)`` of the stored matrix."""
        return (self._rows, self._cols)

    @property
    def num_rows(self) -> int:
        return self._rows

    @property
    def num_cols(self) -> int:
        return self._cols

    @property
    def pass_count(self) -> int:
        """Number of completed full sequential scans (the paper's 'passes')."""
        return self._pass_count

    @property
    def io_stats(self):
        """Physical I/O counters of the backing pager."""
        return self._pager.stats

    @property
    def pool_stats(self):
        """Buffer-pool hit/miss counters for the random-access path."""
        return self._pool.stats

    @property
    def path(self) -> Path:
        return self._pager.path

    @property
    def dtype(self) -> np.dtype:
        """On-disk element type."""
        return self._dtype

    def pages_per_row(self) -> int:
        """Worst-case pages touched by one random row read (exact).

        Row offsets repeat modulo the page size with a short period, so
        the maximum over that cycle is the true worst case — e.g. rows
        that exactly fill a page and start page-aligned touch 1 page.
        """
        span = self._cols * self._item
        page = self._pager.page_size
        period = page // np.gcd(span, page)
        worst = 1
        for index in range(min(self._rows, period)):
            start = self._row_offset(index)
            end = start + span - 1
            worst = max(worst, end // page - start // page + 1)
        return worst

    @property
    def page_size(self) -> int:
        """Backing pager's page size in bytes."""
        return self._pager.page_size

    def pages_for_rows(self, indices) -> int:
        """Distinct logical pages the rows ``indices`` occupy.

        Pure arithmetic, no I/O and no pool traffic: the count
        :meth:`read_rows` accounts for a gather and the query planner
        prices before executing one.  Duplicate indices count once.
        O(1) for a run or whole-page rows of an :class:`Ascending`,
        O(n) for other sorted input; unsorted input pays a sort.
        """
        if isinstance(indices, Ascending):
            noted = indices.pages
            if noted is None or noted[0] is not self:
                noted = indices.pages = (self, self._page_count(indices.idx, True))
            return noted[1]
        idx, ascending = self._rows_of(indices)
        return self._page_count(idx, ascending) if idx.size else 0

    def _rows_of(self, indices) -> tuple[np.ndarray, bool]:
        """``indices`` as int64 rows and whether they strictly increase:
        an :class:`Ascending` is taken as proven, anything else checked."""
        if isinstance(indices, Ascending):
            return indices.idx, True
        idx = np.asarray(indices, dtype=np.int64).ravel()
        return idx, idx.size > 0 and self._check_rows(idx)

    def _check_rows(self, idx: np.ndarray) -> bool:
        """Raise unless the non-empty ``idx`` names rows of this store;
        return whether it strictly increases (then its ends are its
        bounds, and no other pass over it is needed to know them)."""
        ascending = bool((idx[1:] > idx[:-1]).all())
        low, high = (idx[0], idx[-1]) if ascending else (idx.min(), idx.max())
        if low < 0 or high >= self._rows:
            raise QueryError(
                f"row selection outside [0, {self._rows}): [{low}, {high}]"
            )
        return ascending

    def _page_count(self, idx: np.ndarray, ascending: bool) -> int:
        """:meth:`pages_for_rows` for a validated, non-empty ``idx``
        that strictly increases when ``ascending``."""
        if not ascending:
            idx = np.unique(idx)  # the same pages, in order, each row once
        row_bytes = self._cols * self._item
        page_size = self._pager.page_size
        # Strictly increasing: a contiguous run is one byte range, and
        # whole-page rows (the data starts at page 1) share no page.
        low, high = int(idx[0]), int(idx[-1])
        if high - low + 1 == idx.size:
            start = self._data_offset + low * row_bytes
            end = self._data_offset + (high + 1) * row_bytes - 1
            return end // page_size - start // page_size + 1
        if row_bytes % page_size == 0:
            return idx.size * row_bytes // page_size
        offsets = self._data_offset + idx * row_bytes
        first = offsets // page_size
        last = (offsets + (row_bytes - 1)) // page_size
        # first and last are both monotone, so each row adds the pages
        # of its run that lie beyond the previous row's last page.
        fresh = last[1:] - np.maximum(first[1:], last[:-1] + 1) + 1
        return int(last[0] - first[0] + 1 + np.maximum(fresh, 0).sum())

    # -- random access -----------------------------------------------------

    def _row_offset(self, index: int) -> int:
        return self._data_offset + index * self._cols * self._item

    def row(self, index: int) -> tuple[float, ...]:
        """Read one row through the buffer pool (the view when ``mapped``)
        as a tuple of Python floats: a cell probe's k terms, no array."""
        if not 0 <= index < self._rows:
            raise QueryError(f"row {index} out of range [0, {self._rows})")
        if self._mapped:
            return self._unpack_row(self._live_view()[index])
        if self._row_page is not None:
            return self._unpack_row(self._pool.get_page(self._row_page + index))
        return self._unpack_row(
            read_span(self._pool, self._row_offset(index), self._cols * self._item)
        )

    def read_rows(self, indices) -> np.ndarray:
        """Gather a batch of rows out of the mapped view in one copy.

        The vectorized counterpart of :meth:`row`: the result is a
        single ``(len(indices), cols)`` float64 array ready for one
        GEMM.  Duplicate and unsorted indices are allowed; the output
        follows the input order.  A gather reads no page through the
        pager and leaves the pool's resident set alone; on a default
        open its distinct logical pages (:meth:`pages_for_rows`) are
        added to ``pool_stats.bypasses``.
        """
        idx, ascending = self._rows_of(indices)
        if idx.size == 0:
            return np.empty((0, self._cols), dtype=np.float64)
        if _obs.enabled:
            _READ_CALLS.inc()
            _READ_ROWS.inc(int(idx.size))
            with _span("store.read_rows", rows=int(idx.size)):
                return self._read_rows(indices, idx, ascending)
        return self._read_rows(indices, idx, ascending)

    def _read_rows(self, indices, idx: np.ndarray, ascending: bool) -> np.ndarray:
        view = self._live_view()
        if not self._mapped:
            # An Ascending's pages were counted when its plan priced them.
            counted = isinstance(indices, Ascending)
            pages = self.pages_for_rows(indices) if counted else self._page_count(idx, ascending)
            self._pool.stats.add(bypasses=pages)
        return view.take(idx, axis=0).astype(np.float64, copy=False)

    def cell(self, row: int, col: int) -> float:
        """Read one cell through the buffer pool (the view when ``mapped``)."""
        if not 0 <= row < self._rows:
            raise QueryError(f"row {row} out of range [0, {self._rows})")
        if not 0 <= col < self._cols:
            raise QueryError(f"col {col} out of range [0, {self._cols})")
        if self._mapped:
            return float(self._live_view()[row, col])
        offset = self._row_offset(row) + col * self._item
        raw = read_span(self._pool, offset, self._item)
        return float(np.frombuffer(raw, dtype=self._dtype)[0])

    # -- streamed passes ------------------------------------------------------

    def iter_row_blocks(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(index, block)`` sequentially from ``start`` to ``stop``:
        float64 blocks of consecutive rows, ``index`` the first one's.

        Reads bypass the buffer pool (sequential scans must not thrash
        the cache serving random queries).  Iterating the whole matrix
        increments :attr:`pass_count`.
        """
        stop = self._rows if stop is None else stop
        if not 0 <= start <= stop <= self._rows:
            raise QueryError(
                f"invalid scan range [{start}, {stop}) for {self._rows} rows"
            )
        row_bytes = self._cols * self._item
        index = start
        while index < stop:
            chunk = min(_STREAM_CHUNK_ROWS, stop - index)
            if self._mapped:
                block = self._live_view()[index : index + chunk]
            else:
                raw = self._read_raw(self._row_offset(index), chunk * row_bytes)
                block = np.frombuffer(raw, dtype=self._dtype).reshape(
                    chunk, self._cols
                )
            yield index, block.astype(np.float64)
            index += chunk
        if start == 0 and stop == self._rows:
            self.note_full_scan()

    def iter_rows(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """:meth:`iter_row_blocks` a row at a time: ``(index, row)``."""
        for first, block in self.iter_row_blocks(start, stop):
            for local, row in enumerate(block):
                yield first + local, row

    def note_full_scan(self) -> None:
        """Count one completed full sequential scan.

        Called by :meth:`iter_row_blocks` when a single iterator covered
        the whole matrix, and by parallel passes (e.g.
        :func:`~repro.core.svd.compute_gram` with ``jobs > 1``) whose
        workers each scanned a disjoint band — collectively one pass
        over the data, which is what the paper's pass accounting means.
        """
        with self._pass_lock:
            self._pass_count += 1

    def _read_raw(self, offset: int, length: int) -> bytes:
        """Sequential read path: whole pages via the pager, no caching."""
        page_size = self._pager.page_size
        first_page = offset // page_size
        last_page = (offset + length - 1) // page_size
        parts = [self._pager.read_page(pid) for pid in range(first_page, last_page + 1)]
        blob = b"".join(parts)
        begin = offset - first_page * page_size
        return blob[begin : begin + length]

    def read_all(self) -> np.ndarray:
        """Materialize the full matrix (intended for tests / small data)."""
        out = np.empty(self.shape, dtype=np.float64)
        for index, row in self.iter_rows():
            out[index] = row
        return out

