"""Lock-striped LRU buffer pool over a :class:`~repro.storage.pager.FilePager`.

The pool caches a bounded number of pages and records hits, misses and
evictions.  The paper's reconstruction-cost argument — one disk access
per cell because the row of ``U`` lives in one block while ``V`` and
``Lambda`` are pinned — is demonstrated in the benchmarks by reading a
random-cell workload through a pool and inspecting these counters.

Concurrency model: the pool is **striped into shards**.  A page id
hashes to exactly one shard (``page_id % num_shards``), and each shard
owns its own mutex plus its own LRU / clock state, so concurrent
readers touching different pages proceed without contending on a single
pool-wide lock.  Page *data* is immutable once read (the stores are
read-only at query time), which keeps the races benign by construction:
the worst interleaving is two threads missing on the same page and both
reading it from the pager — duplicate work, never wrong bytes.  Physical
I/O always happens **outside** the shard lock, so a slow disk read on
one page never blocks cached hits on its shard siblings.

Single-shard pools (the default for small capacities) behave exactly
like the historical unsharded pool — same eviction order, same
counters — with one uncontended lock acquisition per access.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, PageError
from repro.obs.registry import registry as _obs
from repro.storage.pager import FilePager

#: Capacity below which a pool defaults to a single shard: tiny pools
#: gain nothing from striping, and the exact global-LRU semantics are
#: worth keeping where eviction order is observable.
_AUTO_SHARD_MIN_CAPACITY = 32

#: Upper bound on auto-selected shards; each shard should keep a
#: meaningful number of resident pages or eviction degrades to FIFO.
_AUTO_SHARD_MAX = 8


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

    Mutation goes through :meth:`add`, which holds a per-struct lock so
    the counts stay exact when many threads share one pool.
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


class _Shard:
    """One stripe of the pool: a mutex plus its private cache state.

    All fields are guarded by :attr:`lock`; callers (the pool) take it
    around every access.  Eviction counts are reported back to the
    shared :class:`PoolStats` by the pool, not here.
    """

    __slots__ = (
        "lock",
        "capacity",
        "policy",
        "pages",
        "pinned",
        "referenced",
        "hand",
        "hand_pos",
    )

    def __init__(self, capacity: int, policy: str) -> None:
        self.lock = threading.RLock()
        self.capacity = capacity
        self.policy = policy
        self.pages: OrderedDict[int, bytes] = OrderedDict()
        self.pinned: set[int] = set()
        # CLOCK state: reference bits and the hand's position.
        self.referenced: dict[int, bool] = {}
        self.hand: list[int] = []
        self.hand_pos = 0

    # The caller holds ``lock`` for every method below.

    def touch(self, page_id: int) -> None:
        """Record a hit on a resident page (policy bookkeeping)."""
        if self.policy == "lru":
            self.pages.move_to_end(page_id)
        else:
            self.referenced[page_id] = True

    def insert(self, page_id: int, data: bytes) -> int:
        """Cache a page, evicting as needed; returns evictions performed."""
        if page_id in self.pages:
            # A racing reader cached it first; the bytes are identical.
            self.touch(page_id)
            return 0
        self.pages[page_id] = data
        if self.policy == "lru":
            self.pages.move_to_end(page_id)
        else:
            self.referenced[page_id] = True
            self.hand.append(page_id)
        evicted = 0
        while len(self.pages) > self.capacity:
            if self._evict_one() is None:
                # Everything resident is pinned; allow temporary overflow
                # rather than fail a read.
                break
            evicted += 1
        return evicted

    def drop(self, page_id: int) -> None:
        """Remove one page and its policy state (no eviction count)."""
        self.pages.pop(page_id, None)
        self.pinned.discard(page_id)
        if page_id in self.referenced:
            del self.referenced[page_id]
            self.hand = [pid for pid in self.hand if pid != page_id]
            self.hand_pos = self.hand_pos % max(1, len(self.hand))

    def clear(self) -> None:
        """Drop everything, including pins and clock state."""
        self.pages.clear()
        self.pinned.clear()
        self.referenced.clear()
        self.hand = []
        self.hand_pos = 0

    def _evict_one(self) -> int | None:
        if self.policy == "clock":
            return self._evict_clock()
        for candidate in self.pages:
            if candidate not in self.pinned:
                del self.pages[candidate]
                return candidate
        return None

    def _evict_clock(self) -> int | None:
        """Second-chance sweep: clear reference bits until a victim."""
        if not self.hand:
            return None
        sweeps = 0
        max_steps = 2 * len(self.hand) + 1
        while sweeps < max_steps:
            self.hand_pos %= len(self.hand)
            candidate = self.hand[self.hand_pos]
            if candidate in self.pinned:
                self.hand_pos += 1
            elif self.referenced.get(candidate, False):
                self.referenced[candidate] = False
                self.hand_pos += 1
            else:
                self.hand.pop(self.hand_pos)
                del self.referenced[candidate]
                del self.pages[candidate]
                return candidate
            sweeps += 1
        return None


def _auto_shards(capacity: int) -> int:
    """Default stripe count for a pool of ``capacity`` pages."""
    if capacity < _AUTO_SHARD_MIN_CAPACITY:
        return 1
    return max(1, min(_AUTO_SHARD_MAX, capacity // (_AUTO_SHARD_MIN_CAPACITY // 2)))


class BufferPool:
    """Sharded page cache with pinning and a pluggable eviction policy.

    Policies:

    - ``"lru"`` (default) — strict least-recently-used via an ordered
      map; exact recency at the cost of a reorder per hit;
    - ``"clock"`` — the second-chance approximation most real buffer
      managers use: pages sit in a circular list with a reference bit;
      the clock hand clears bits until it finds an unreferenced victim.
      Hits are O(1) with no reordering.

    Args:
        pager: the page source.
        capacity: maximum number of cached pages (>= 1), summed across
            shards.
        policy: ``"lru"`` or ``"clock"`` (applies per shard).
        name: label under which the pool's counters are exported by the
            metrics registry; defaults to the backing file's name.
        shards: number of lock stripes.  ``None`` picks automatically —
            1 for small pools (exact historical semantics), up to 8 for
            large ones so concurrent readers don't serialize on one
            mutex.  Eviction is local to each shard.
    """

    def __init__(
        self,
        pager: FilePager,
        capacity: int = 64,
        policy: str = "lru",
        name: str | None = None,
        shards: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if policy not in ("lru", "clock"):
            raise ConfigurationError(
                f"policy must be 'lru' or 'clock', got {policy!r}"
            )
        if shards is None:
            shards = _auto_shards(capacity)
        if shards < 1 or shards > capacity:
            raise ConfigurationError(
                f"shards must be in [1, capacity={capacity}], got {shards}"
            )
        self.pager = pager
        self.capacity = capacity
        self.policy = policy
        self.name = name if name is not None else pager.path.name
        self.stats = PoolStats()
        _obs.register_source("pools", self.name, self.stats)
        # Split the capacity across shards; earlier shards absorb the
        # remainder so the total is exactly ``capacity``.
        base, extra = divmod(capacity, shards)
        self._shards = [
            _Shard(base + (1 if index < extra else 0), policy)
            for index in range(shards)
        ]

    @property
    def num_shards(self) -> int:
        """Number of lock stripes backing this pool."""
        return len(self._shards)

    def _shard_of(self, page_id: int) -> _Shard:
        return self._shards[page_id % len(self._shards)]

    def get_page(self, page_id: int) -> bytes:
        """Return page contents, loading through the pager on a miss.

        The physical read on a miss happens outside the shard lock, so a
        slow disk never blocks hits on other pages of the same shard.
        """
        shard = self._shard_of(page_id)
        with shard.lock:
            data = shard.pages.get(page_id)
            if data is not None:
                self.stats.add(hits=1)
                shard.touch(page_id)
                return data
        data = self.pager.read_page(page_id)
        with shard.lock:
            evicted = shard.insert(page_id, data)
        self.stats.add(misses=1, evictions=evicted)
        return data

    def pin(self, page_id: int) -> bytes:
        """Load a page and exempt it from eviction (the paper's pinned V/Lambda)."""
        data = self.get_page(page_id)
        shard = self._shard_of(page_id)
        with shard.lock:
            shard.pinned.add(page_id)
        return data

    def unpin(self, page_id: int) -> None:
        """Allow a previously pinned page to be evicted again."""
        shard = self._shard_of(page_id)
        with shard.lock:
            shard.pinned.discard(page_id)

    def invalidate(self, page_id: int | None = None) -> None:
        """Drop one page (or all pages when ``page_id`` is None) from the cache."""
        if page_id is None:
            for shard in self._shards:
                with shard.lock:
                    shard.clear()
        else:
            shard = self._shard_of(page_id)
            with shard.lock:
                shard.drop(page_id)

    def cached_pages(self) -> int:
        """Number of pages currently resident (summed across shards)."""
        total = 0
        for shard in self._shards:
            with shard.lock:
                total += len(shard.pages)
        return total


def read_span(pool: BufferPool, offset: int, length: int) -> bytes:
    """Read ``length`` bytes starting at absolute file ``offset`` via the pool.

    Handles spans that straddle page boundaries; raises
    :class:`PageError` if the span extends past the file end.
    """
    if length < 0 or offset < 0:
        raise PageError(f"invalid span offset={offset} length={length}")
    page_size = pool.pager.page_size
    chunks: list[bytes] = []
    remaining = length
    position = offset
    while remaining > 0:
        page_id = position // page_size
        within = position % page_size
        take = min(remaining, page_size - within)
        page = pool.get_page(page_id)
        chunks.append(page[within : within + take])
        position += take
        remaining -= take
    return b"".join(chunks)
