"""Fixed-size page I/O with access accounting.

A :class:`FilePager` exposes a file as an array of fixed-size pages and
counts every physical read and write.  All higher layers (buffer pool,
matrix store, compressed model store) go through a pager, so the number
of 'disk accesses' the paper reasons about is an observable quantity in
this reproduction.

Reads are **lock-free and thread-safe**: every physical read goes
through one funnel (:meth:`FilePager._pread`) built on ``os.pread``,
which takes an explicit offset instead of the file description's shared
seek cursor.  There is no ``seek()`` anywhere on the read path, so
concurrent readers never race on file position and never pay the extra
``lseek(2)`` syscall.  Writes go through ``os.pwrite`` (appends compute
their offset under a small write lock — the only lock the pager owns).

The read funnel also

- resumes short reads instead of zero-padding mid-file gaps (padding is
  correct only at EOF),
- retries transient ``OSError`` (``EIO``/``EAGAIN``/``EINTR``/
  ``ETIMEDOUT``) with **decorrelated-jitter** backoff — each sleep is
  drawn uniformly from ``[base, 3 * previous_sleep]`` capped at
  ``_RETRY_MAX_SLEEP_S``, so concurrent readers hitting the same sick
  disk spread out instead of retrying in lockstep — counting each retry
  in :attr:`IOStats.retries` and the ``pager.retries`` registry
  counter and observing each sleep in the ``pager.retry_backoff_ns``
  histogram (a retry storm is visible as a fat p99 there), and raising
  :class:`RetryExhaustedError` once either the attempt budget or the
  total-elapsed cap (``_RETRY_MAX_ELAPSED_S``) is spent,
- consults :mod:`repro.storage.faults` so the chaos suite can script
  failures against the real call stack (one ``None`` check when off).
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import (
    ConfigurationError,
    PageError,
    RetryExhaustedError,
    StoreClosedError,
)
from repro.obs.registry import registry as _obs
from repro.storage import faults as _faults

PAGE_SIZE_DEFAULT = 8192

#: ``errno`` values treated as transient and worth retrying on read.
TRANSIENT_ERRNOS = frozenset(
    {errno.EIO, errno.EAGAIN, errno.EINTR, errno.ETIMEDOUT}
)


@dataclass
class IOStats:
    """Physical I/O counters for a pager.

    ``retries`` counts transient read errors absorbed by the
    bounded-backoff retry loop; a non-zero value on a healthy run means
    the disk is flaking, not the store.

    Mutation goes through :meth:`add`, which holds a per-struct lock so
    counts stay exact when many threads read through one pager.  Reads
    of individual fields are single attribute loads and need no lock.
    """

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    retries: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(
        self,
        reads: int = 0,
        writes: int = 0,
        bytes_read: int = 0,
        bytes_written: int = 0,
        retries: int = 0,
    ) -> None:
        """Atomically bump any subset of the counters."""
        with self._lock:
            self.reads += reads
            self.writes += writes
            self.bytes_read += bytes_read
            self.bytes_written += bytes_written
            self.retries += retries

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.reads = 0
            self.writes = 0
            self.bytes_read = 0
            self.bytes_written = 0
            self.retries = 0

    def snapshot(self) -> "IOStats":
        """A copy of the current counters."""
        with self._lock:
            return IOStats(
                self.reads,
                self.writes,
                self.bytes_read,
                self.bytes_written,
                self.retries,
            )

    def to_dict(self) -> dict:
        """Counters as a JSON-ready dict (registry export format)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "retries": self.retries,
        }


class FilePager:
    """Page-granular access to a single file.

    Pages are numbered from zero.  Reading past the end of the file
    raises :class:`PageError`; writing page ``n`` when the file has
    exactly ``n`` pages appends (sequential growth only, which is all
    the row-major stores need).

    Reads never mutate pager state other than the (locked) counters, so
    any number of threads may call :meth:`read_page` concurrently on
    one instance.  Writes are serialized by :attr:`_write_lock`; the
    stores only write during (single-threaded) construction, but the
    lock makes mixed use safe rather than silently corrupting appends.

    The file's size is read once, at open, and moved by the pager's own
    writes, so :meth:`num_pages` and a read's range check make no
    syscall.  While a pager is open it is its file's only writer.

    Args:
        path: backing file.  Created if missing when ``create=True``.
        page_size: page size in bytes.
        create: truncate/create the file instead of opening an existing one.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        page_size: int = PAGE_SIZE_DEFAULT,
        create: bool = False,
    ) -> None:
        if page_size < 4:  # one float32: a u.mat page is one row of U
            raise ConfigurationError(f"page_size must be >= 4, got {page_size}")
        self.path = Path(path)
        self.page_size = page_size
        self.stats = IOStats()
        if not create and not self.path.exists():
            raise PageError(f"no such file: {self.path}")
        flags = os.O_RDWR | (os.O_CREAT | os.O_TRUNC if create else 0)
        if hasattr(os, "O_CLOEXEC"):
            flags |= os.O_CLOEXEC
        self._fd = os.open(self.path, flags, 0o644)
        # The file's size in bytes: read once here, moved by this pager's
        # own writes (under the write lock), so no read asks the kernel.
        self._size = os.fstat(self._fd).st_size
        self._closed = False
        self._write_lock = threading.Lock()
        # Export the counters through the process-wide registry; the
        # weak registration dies with the pager.
        _obs.register_source("pagers", self.path.name, self.stats)

    #: Maximum retry attempts for a transient read error.
    _RETRY_ATTEMPTS = 3
    #: Floor of every backoff sleep (the first draw is uniform in
    #: ``[base, 3 * base]``).
    _RETRY_BASE_DELAY = 0.002
    #: Ceiling on a single decorrelated-jitter sleep.
    _RETRY_MAX_SLEEP_S = 0.050
    #: Total wall-clock budget across all retries of one read: a read
    #: that has been failing-and-sleeping this long raises
    #: :class:`RetryExhaustedError` even with attempts remaining, so a
    #: request-serving caller is never stuck behind an unbounded
    #: backoff ladder.
    _RETRY_MAX_ELAPSED_S = 0.500

    #: Process-wide jitter source; intentionally unseeded (retry spread
    #: across threads/processes is the point, reproducibility is not).
    _retry_rng = random.Random()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Close the underlying file descriptor (idempotent)."""
        if not self._closed:
            os.close(self._fd)
            self._closed = True

    def __enter__(self) -> "FilePager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"pager for {self.path} is closed")

    def fileno(self) -> int:
        """The underlying file descriptor (for ``mmap``-based readers).

        A memory mapping created over this descriptor stays valid after
        the pager is closed — ``mmap(2)`` holds its own reference to the
        file — so callers may map once at open time and keep the view
        for the life of the mapping object.
        """
        self._require_open()
        return self._fd

    # -- geometry ---------------------------------------------------------

    def num_pages(self) -> int:
        """Number of whole or partial pages currently in the file."""
        self._require_open()
        return -(-self._size // self.page_size)

    # -- physical I/O funnels ---------------------------------------------

    def _pread(self, offset: int, length: int) -> bytes:
        """Read up to ``length`` bytes at ``offset``, surviving faults.

        Built on positionless ``os.pread``: no shared seek cursor is
        read or written, so concurrent callers cannot interleave each
        other's positions and no lock is taken.  Short reads are resumed
        until ``length`` bytes arrive or EOF is reached (only EOF may
        return fewer bytes, so callers' zero-padding is always padding
        real end-of-file, never a gap a flaky ``read(2)`` left
        mid-file).  Transient ``OSError`` is retried with
        decorrelated-jitter backoff under both an attempt budget and a
        total-elapsed cap; persistent failure raises
        :class:`RetryExhaustedError`.
        """
        plan = _faults.plan_for(self.path)
        attempt = 0
        retry_started = 0.0
        last_sleep = self._RETRY_BASE_DELAY
        while True:
            try:
                if plan is not None:
                    plan.begin_read()
                data = os.pread(self._fd, length, offset)
                if plan is not None and data:
                    data = plan.truncate_read(data)
                got = len(data)
                if got == length or not data:
                    return data  # whole, or at EOF: no chunk list
                chunks = [data]
                while got < length:
                    # Each resumption addresses offset+got explicitly —
                    # the positionless read makes "resume where the
                    # truncated chunk stopped" a pure arithmetic fact
                    # instead of cursor bookkeeping.
                    data = os.pread(self._fd, length - got, offset + got)
                    if not data:
                        break
                    chunks.append(data)
                    got += len(data)
                return b"".join(chunks)
            except OSError as exc:
                if exc.errno not in TRANSIENT_ERRNOS:
                    raise
                attempt += 1
                if attempt == 1:
                    retry_started = time.monotonic()
                elapsed = time.monotonic() - retry_started
                if attempt > self._RETRY_ATTEMPTS:
                    raise RetryExhaustedError(
                        f"{self.path}: read at offset {offset} still failing "
                        f"after {self._RETRY_ATTEMPTS} retries: {exc}"
                    ) from exc
                if elapsed > self._RETRY_MAX_ELAPSED_S:
                    raise RetryExhaustedError(
                        f"{self.path}: read at offset {offset} still failing "
                        f"after {elapsed * 1e3:.0f} ms of retries "
                        f"(cap {self._RETRY_MAX_ELAPSED_S * 1e3:.0f} ms): {exc}"
                    ) from exc
                # Decorrelated jitter (AWS architecture-blog recipe):
                # each sleep is uniform in [base, 3 * previous sleep],
                # capped — growth on average, never synchronized across
                # the threads/processes sharing a flaky device.
                delay = min(
                    self._RETRY_MAX_SLEEP_S,
                    self._retry_rng.uniform(
                        self._RETRY_BASE_DELAY, last_sleep * 3.0
                    ),
                )
                last_sleep = delay
                self.stats.add(retries=1)
                _obs.counter("pager.retries").inc()
                _obs.histogram("pager.retry_backoff_ns").observe(delay * 1e9)
                time.sleep(delay)

    def _pwrite(self, offset: int | None, data: bytes) -> None:
        """Write ``data`` at ``offset`` (or append when ``None``).

        Serialized by the write lock: an append's offset is the file
        size *at the moment of the write*, which is only stable while no
        other write is in flight.  Write errors are *not* retried: the
        durable-save protocols (temp file + rename, staging directory +
        swap) already guarantee a failed write never corrupts the
        committed artifact, so masking a sick disk here would only delay
        the diagnosis.
        """
        with self._write_lock:
            if offset is None:
                offset = self._size
            plan = _faults.plan_for(self.path)
            if plan is not None:
                torn = plan.begin_write(data)
                if torn is not None:
                    self._pwrite_all(offset, torn)
                    raise OSError(errno.EIO, "injected torn write")
            self._pwrite_all(offset, data)
            self.stats.add(writes=1, bytes_written=len(data))

    def _pwrite_all(self, offset: int, data: bytes) -> None:
        """``os.pwrite`` resuming partial writes until ``data`` is flushed;
        the tracked size takes in every byte that landed."""
        view = memoryview(data)
        written = 0
        try:
            while written < len(view):
                written += os.pwrite(self._fd, view[written:], offset + written)
        finally:
            self._size = max(self._size, offset + written)

    # -- page I/O -----------------------------------------------------------

    def read_page(self, page_id: int) -> bytes:
        """Read one page; short pages at EOF are zero-padded to page_size."""
        self._require_open()
        page_size = self.page_size
        offset = page_id * page_size
        # The tracked size bounds the file: no syscall before the read.
        if page_id < 0 or offset >= self._size:
            raise PageError(
                f"page {page_id} out of range [0, {-(-self._size // page_size)}) "
                f"in {self.path}"
            )
        data = self._pread(offset, page_size)
        self.stats.add(reads=1, bytes_read=len(data))
        if len(data) < page_size:
            data = data + b"\x00" * (page_size - len(data))
        return data

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write one page; ``data`` must be at most one page long."""
        self._require_open()
        if len(data) > self.page_size:
            raise PageError(
                f"page payload of {len(data)} bytes exceeds page size {self.page_size}"
            )
        if page_id < 0 or page_id > self.num_pages():
            raise PageError(
                f"cannot write page {page_id}; file has {self.num_pages()} pages"
            )
        if len(data) < self.page_size:
            data = data + b"\x00" * (self.page_size - len(data))
        self._pwrite(page_id * self.page_size, data)

    def append_raw(self, data: bytes) -> None:
        """Append raw bytes (used by bulk writers building the data region)."""
        self._require_open()
        self._pwrite(None, data)

    def sync(self) -> None:
        """``fsync`` — the data is on stable storage on return."""
        self._require_open()
        os.fsync(self._fd)
