"""LRU buffer pool over a :class:`~repro.storage.pager.FilePager`.

The pool caches a bounded number of pages and records hits, misses and
evictions.  The paper's reconstruction-cost argument — one disk access
per cell because the row of ``U`` lives in one block while ``V`` and
``Lambda`` stay in memory — is demonstrated by reading a random-cell
workload through a pool and inspecting these counters.

One policy, one lock: the resident set is a single ``OrderedDict`` in
recency order, guarded by one mutex that the pool's :class:`PoolStats`
share (a hit is counted inside the lookup that found it), and eviction
is global LRU over the whole capacity.  Only single ``row`` / ``cell``
reads come through here (batched gathers copy out of the store's mapped
view), and a hit holds the lock for a lookup and a reorder, so there is
nothing for a second lock to un-serialize.

The physical read on a miss happens **outside** the lock, so a slow
disk read of one page never blocks hits on the others.  Page data is
immutable once read (the stores are read-only at query time), which
keeps the resulting race benign: two threads that miss on the same page
both read it from the pager and the second finds it already cached —
duplicate work, one resident copy, never wrong bytes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, PageError
from repro.obs.registry import registry as _obs
from repro.storage.pager import FilePager


@dataclass
class PoolStats:
    """Cache behaviour counters for a buffer pool.

    ``bypasses`` counts logical pages served around the pool: the
    distinct pages of each batched
    :meth:`~repro.storage.matrix_store.MatrixStore.read_rows` gather,
    which is copied out of the store's mapped view and neither consults
    nor disturbs the resident set (scan resistance by construction).
    They are real accesses: without them a ``read_rows``-heavy workload
    would appear to have a high hit rate simply because its reads were
    never counted.

    Mutation holds ``_lock`` so the counts stay exact when many threads
    share one pool: :meth:`add` and :meth:`reset` take it, and a
    :class:`BufferPool` passes its own lock in and counts under it.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bypasses: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def accesses(self) -> int:
        """Total logical page requests (cached or bypassing)."""
        return self.hits + self.misses + self.bypasses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from memory (0 when never used)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def add(
        self,
        hits: int = 0,
        misses: int = 0,
        evictions: int = 0,
        bypasses: int = 0,
    ) -> None:
        """Atomically bump any subset of the counters."""
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.evictions += evictions
            self.bypasses += bypasses

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.bypasses = 0

    def to_dict(self) -> dict:
        """Counters as a JSON-ready dict (registry export format)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "accesses": self.accesses,
            "hit_rate": self.hit_rate,
        }


class BufferPool:
    """Page cache with least-recently-used eviction.

    Args:
        pager: the page source.
        capacity: maximum number of cached pages (>= 1).
        name: label under which the pool's counters are exported by the
            metrics registry; defaults to the backing file's name.
    """

    def __init__(
        self, pager: FilePager, capacity: int = 64, name: str | None = None
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.pager = pager
        self.capacity = capacity
        self.name = name if name is not None else pager.path.name
        self._lock = threading.Lock()
        self.stats = PoolStats(_lock=self._lock)
        _obs.register_source("pools", self.name, self.stats)
        # Resident pages, least recently used first.
        self._pages: OrderedDict[int, bytes] = OrderedDict()

    def get_page(self, page_id: int) -> bytes:
        """Return page contents, loading through the pager on a miss."""
        stats = self.stats
        with self._lock:
            data = self._pages.get(page_id)
            if data is not None:
                self._pages.move_to_end(page_id)
                stats.hits += 1
                return data
        data = self.pager.read_page(page_id)
        with self._lock:
            stats.misses += 1
            if page_id in self._pages:
                # A racing reader cached it first; the bytes are identical.
                self._pages.move_to_end(page_id)
            else:
                self._pages[page_id] = data
                while len(self._pages) > self.capacity:
                    self._pages.popitem(last=False)
                    stats.evictions += 1
        return data

    def invalidate(self, page_id: int | None = None) -> None:
        """Drop one page (or all pages when ``page_id`` is None) from the cache."""
        with self._lock:
            if page_id is None:
                self._pages.clear()
            else:
                self._pages.pop(page_id, None)

    def cached_pages(self) -> int:
        """Number of pages currently resident."""
        with self._lock:
            return len(self._pages)


def read_span(pool: BufferPool, offset: int, length: int) -> bytes:
    """Read ``length`` bytes starting at absolute file ``offset`` via the pool.

    A span inside one page is one slice of the cached page — the page
    itself when the span is the whole page; a span across pages joins
    them.  Raises :class:`PageError` if the span extends past the file
    end.  (:meth:`~repro.storage.matrix_store.MatrixStore.row` asks the
    pool for a one-page row directly.)
    """
    if length < 0 or offset < 0:
        raise PageError(f"invalid span offset={offset} length={length}")
    if length == 0:
        return b""
    page_size = pool.pager.page_size
    first, within = divmod(offset, page_size)
    last = (offset + length - 1) // page_size
    if first == last:
        # Slicing a whole ``bytes`` object returns that object.
        return pool.get_page(first)[within : within + length]
    pages = b"".join(pool.get_page(page_id) for page_id in range(first, last + 1))
    return pages[within : within + length]
