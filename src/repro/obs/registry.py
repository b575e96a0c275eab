"""Process-wide metrics registry.

The paper argues in *counters* — disk accesses per reconstructed cell,
passes over the data, deltas retained — so the reproduction keeps a
single registry through which every layer's counters are reachable:

- **counters / gauges / histograms** created on demand by name
  (``registry.counter("delta.lookups").inc()``), histograms carrying
  nanosecond-precision timing observations from the span tracer;
- **watched gauges** — a gauge whose value a callable reads at
  :meth:`MetricsRegistry.snapshot` (the serving tier's queue depth,
  queue age and brownout flag), so nothing is written per request;
- **registered sources** — the always-on stat structs of every buffer
  pool and pager (:class:`~repro.storage.buffer_pool.PoolStats`,
  :class:`~repro.storage.pager.IOStats`; nothing else registers one)
  held by weak reference, so one :meth:`MetricsRegistry.snapshot`
  exports every live pool and pager instead of leaving them siloed
  inside their owners.

Instrumentation is **disabled by default** and must stay near-free when
off: every hot-path site guards on the plain attribute
``registry.enabled`` (one load + branch, no allocation), and the
component stat structs it registers are the same cheap integer fields
the storage layer has always maintained.

**A metric object lives as long as its registry**, so a hot path binds
it once (:meth:`MetricsRegistry.bind_counter`, or a module constant)
instead of looking it up by name per call.  :meth:`MetricsRegistry.reset`
zeroes every metric in place, and a snapshot lists the metrics written
or looked up by name since the last reset — what it listed when reset
dropped them.

All metric mutations are **thread-safe**: counters and histograms take
a per-metric lock (an uncontended CPython lock is tens of nanoseconds),
gauges expose an atomic ``add`` for in-flight accounting, and
``snapshot`` copies the metric maps under the registry lock so
concurrent metric creation cannot corrupt an export.  A finished span
takes no lock at all: its duration is appended to one pending queue (a
``deque`` append is atomic) and folded into its ``span.<name>``
histogram when anything reads histograms, or when the queue reaches
:data:`FOLD_AT` records — so a read is exact, and a span costs one
append.  This is what keeps the pool/pager counters honest while
``repro serve``'s handler threads answer queries at once.
"""

from __future__ import annotations

import threading
import time
import weakref
from bisect import bisect_left
from collections import deque
from typing import Callable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
]


class _Scalar:
    """One number under a lock, listed in snapshots once written or
    looked up since the last reset."""

    __slots__ = ("value", "_lock", "listed")
    _zero: float = 0

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clear()

    def _clear(self) -> None:
        with self._lock:
            self.value = self._zero
            self.listed = False


class Counter(_Scalar):
    """A monotonically increasing integer metric.

    ``inc`` is thread-safe: Python's ``+=`` on an attribute is a
    read-modify-write that can interleave between threads, so the
    increment happens under a per-counter lock.  Reading ``value`` needs
    no lock (it is a single attribute load of an int).
    """

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1); safe to call from any thread."""
        with self._lock:
            self.value += int(amount)
            self.listed = True


class Gauge(_Scalar):
    """A point-in-time numeric metric (last write wins).

    ``set`` is a single atomic attribute store and needs no lock;
    ``add`` (for in-flight style gauges) is a read-modify-write and
    takes one.
    """

    __slots__ = ()
    _zero = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)
        self.listed = True

    def add(self, delta: float) -> float:
        """Shift the gauge by ``delta`` atomically; returns the new value."""
        with self._lock:
            self.value += float(delta)
            self.listed = True
            return self.value


#: Log-scale bucket layout shared by every histogram: bucket ``i``
#: covers values in ``(2**(i/4), 2**((i+1)/4)]`` (bucket 0 everything
#: up to ``2**(1/4)``) — a ~19% growth factor, fine enough that a p99
#: read off a bucket bound is within one fifth of the true value.  176
#: buckets span 1 ns .. ~2**44 ns (about five hours), the full range a
#: span duration can plausibly take; larger values clamp to the last.
_BUCKET_COUNT = 176
_BUCKETS_PER_OCTAVE = 4
#: Upper bound of each bucket (inclusive), precomputed once: a value's
#: bucket is one C bisection of these, ``min(bisect_left(...), 175)``.
_BUCKET_BOUNDS = tuple(
    2.0 ** ((index + 1) / _BUCKETS_PER_OCTAVE) for index in range(_BUCKET_COUNT)
)
_LAST_BUCKET = _BUCKET_COUNT - 1

#: Pending span records that make a span's own thread fold the queue.
FOLD_AT = 1024


class Histogram:
    """Streaming distribution of observations with latency quantiles.

    Keeps the cheap summary fields (count/total/min/max) **plus** a
    fixed array of log-scale buckets (see ``_BUCKET_BOUNDS``), so a
    long-lived serving process can answer "what is p99 query latency"
    without retaining observations.  Memory is a constant ~1.4 KB per
    histogram regardless of observation count.

    ``observe`` updates fields that must stay mutually consistent, so
    it runs under a per-histogram lock.  :meth:`merge` folds another
    histogram in (used to combine per-worker distributions into a
    fleet-wide one) and is lock-safe against concurrent observers on
    both sides: it snapshots the source under its lock, then applies
    under the destination's.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "buckets", "_lock", "listed")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clear()

    def _clear(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.minimum = float("inf")
            self.maximum = float("-inf")
            self.buckets = [0] * _BUCKET_COUNT
            self.listed = False

    def observe(self, value: float) -> None:
        """Record one observation; safe to call from any thread."""
        self._observe_all((float(value),))

    def _observe_all(self, values) -> None:
        """Record a batch of float observations under one lock hold."""
        with self._lock:
            buckets = self.buckets
            for value in values:
                self.count += 1
                self.total += value
                if value < self.minimum:
                    self.minimum = value
                if value > self.maximum:
                    self.maximum = value
                buckets[min(bisect_left(_BUCKET_BOUNDS, value), _LAST_BUCKET)] += 1
            self.listed = True

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s distribution into this histogram.

        Safe against concurrent ``observe`` on either side; after the
        merge, this histogram's quantiles describe the union of both
        observation streams exactly (bucket counts are additive).
        Returns ``self`` for chaining.
        """
        with other._lock:
            count = other.count
            total = other.total
            minimum = other.minimum
            maximum = other.maximum
            buckets = list(other.buckets)
        with self._lock:
            self.count += count
            self.total += total
            if minimum < self.minimum:
                self.minimum = minimum
            if maximum > self.maximum:
                self.maximum = maximum
            for index, extra in enumerate(buckets):
                if extra:
                    self.buckets[index] += extra
            self.listed = True
        return self

    @property
    def mean(self) -> float:
        """Average observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """The value at quantile ``q`` in [0, 1] (None when empty).

        Resolved from the log-scale buckets: the answer is the upper
        bound of the bucket containing the q-th observation, clamped to
        the exact observed [min, max] — so resolution is ~19% in the
        middle and exact at the extremes.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return _quantile(q, self.count, self.minimum, self.maximum, self.buckets)

    def percentiles(self) -> dict:
        """The standard latency quantiles: p50/p95/p99 (None when empty)."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_dict(self) -> dict:
        """Summary plus p50/p95/p99, JSON-ready (bounds None when empty),
        all read under one hold of the lock."""
        with self._lock:
            count, total = self.count, self.total
            minimum, maximum = self.minimum, self.maximum
            buckets = list(self.buckets)
        return {
            "count": count,
            "total": total,
            "min": minimum if count else None,
            "max": maximum if count else None,
            "mean": total / count if count else 0.0,
            **{
                f"p{round(q * 100)}": _quantile(q, count, minimum, maximum, buckets)
                for q in (0.50, 0.95, 0.99)
            },
        }


def _quantile(q: float, count: int, minimum: float, maximum: float, buckets) -> float | None:
    """The upper bound of the bucket holding the q-th of ``count``
    observations, clamped to ``[minimum, maximum]`` (None when empty)."""
    if count == 0:
        return None
    target = q * count
    cumulative = 0
    bound = maximum
    for index, bucket in enumerate(buckets):
        cumulative += bucket
        if cumulative >= target:
            bound = _BUCKET_BOUNDS[index]
            break
    return min(max(bound, minimum), maximum)


class _Timer:
    """Context manager observing elapsed nanoseconds into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter_ns() - self._start)


def _source_dict(stats) -> dict:
    """Export one registered stat source as a plain dict."""
    if isinstance(stats, dict):
        return dict(stats)
    if hasattr(stats, "to_dict"):
        return stats.to_dict()
    raise TypeError(f"unsupported stat source type {type(stats).__name__}")


class MetricsRegistry:
    """Named metrics plus weakly-held component stat sources.

    Args:
        enabled: initial state of the instrumentation flag.  The
            process-wide :data:`registry` starts disabled; the CLI's
            ``--profile`` / ``--slow-ms`` flags, ``repro serve`` and the
            benchmarks enable it explicitly.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # Span name -> its ``span.<name>`` histogram, so a finished span
        # builds no prefixed name.
        self._span_histograms: dict[str, Histogram] = {}
        # Finished spans not yet folded: ``(histogram, duration_ns)``.
        self._pending: deque = deque()
        self._fold_lock = threading.Lock()
        # Gauge name -> weak reference to the method that reads it.
        self._watched: dict[str, Callable[[], Callable | None]] = {}
        # kind -> list of (name, weakref-to-stats).  Dead refs are
        # pruned on snapshot; names repeat when many instances share
        # one (e.g. every test's "u" pool) and are suffixed on export.
        self._sources: dict[str, list[tuple[str, weakref.ref]]] = {}

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> None:
        """Turn instrumentation on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn instrumentation off (guards short-circuit again)."""
        self.enabled = False

    def reset(self) -> None:
        """Zero every named metric and unlist it until it is next
        written or looked up (registered sources and watched gauges
        are kept)."""
        self._pending.clear()
        with self._lock:
            for metric in (
                *self._counters.values(),
                *self._gauges.values(),
                *self._histograms.values(),
            ):
                metric._clear()

    # -- named metrics ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``, listed from now on."""
        counter = self.bind_counter(name)
        counter.listed = True
        return counter

    def bind_counter(self, name: str) -> Counter:
        """Get or create the counter ``name`` for a caller that keeps
        it: it is listed once first incremented."""
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``, listed from now on."""
        try:
            gauge = self._gauges[name]
        except KeyError:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge())
        gauge.listed = True
        return gauge

    def watch(self, name: str, read: Callable[[], float]) -> None:
        """Report gauge ``name`` as what the bound method ``read``
        returns at each snapshot, while its object lives.

        Held weakly; a later watch of the same name replaces it.  A
        watched gauge is listed whether or not it was reset.
        """
        with self._lock:
            self._watched[name] = weakref.WeakMethod(read)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``, listed from now on
        (finished spans are folded in first)."""
        self._fold()
        try:
            histogram = self._histograms[name]
        except KeyError:
            with self._lock:
                histogram = self._histograms.setdefault(name, Histogram())
        histogram.listed = True
        return histogram

    def _span_histogram(self, span_name: str) -> Histogram:
        """``histogram("span." + span_name)``, remembered per span name
        and listed once a span is folded into it."""
        histogram = self._span_histograms.get(span_name)
        if histogram is None:
            with self._lock:
                name = f"span.{span_name}"
                histogram = self._histograms.setdefault(name, Histogram())
                self._span_histograms[span_name] = histogram
        return histogram

    def _fold(self) -> None:
        """Fold every pending span record into its histogram."""
        pending = self._pending
        if not pending:
            return
        with self._fold_lock:
            batches: dict[Histogram, list[float]] = {}
            while pending:
                try:
                    histogram, elapsed = pending.popleft()
                except IndexError:  # a reset cleared the queue meanwhile
                    break
                batch = batches.get(histogram)
                if batch is None:
                    batches[histogram] = [float(elapsed)]
                else:
                    batch.append(float(elapsed))
            for histogram, batch in batches.items():
                histogram._observe_all(batch)

    def timer(self, name: str) -> _Timer:
        """Time a ``with`` block into ``histogram(name)`` (nanoseconds)."""
        return _Timer(self.histogram(name))

    # -- component stat sources ------------------------------------------

    def register_source(self, kind: str, name: str, stats) -> None:
        """Weakly register a component's stat struct for export.

        ``stats`` is a dataclass with ``to_dict`` (``PoolStats``,
        ``IOStats``) or a plain dict owned by the component.  The
        registry never keeps it alive: when the owning pool or pager is
        garbage collected the entry silently disappears from snapshots.
        """
        entry: tuple[str, Callable[[], object | None]]
        try:
            entry = (name, weakref.ref(stats))
        except TypeError:
            # dicts are not weakref-able; they are tiny, hold directly.
            entry = (name, lambda stats=stats: stats)
        with self._lock:
            self._sources.setdefault(kind, []).append(entry)

    def _live_sources(self, kind: str) -> Iterator[tuple[str, object]]:
        entries = self._sources.get(kind, [])
        alive = []
        for name, ref in entries:
            stats = ref()
            if stats is None:
                continue
            alive.append((name, ref))
            yield name, stats
        if len(alive) != len(entries):
            with self._lock:
                self._sources[kind] = alive

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything the registry knows, as one JSON-ready dict.

        Pending spans are folded first.  The metric maps are copied
        under the registry lock so a thread creating a new counter
        mid-snapshot cannot break the iteration.
        """
        self._fold()
        with self._lock:
            counters = dict(self._counters)
            gauges = {name: g.value for name, g in self._gauges.items() if g.listed}
            histograms = dict(self._histograms)
            watched = dict(self._watched)
        for name, ref in watched.items():
            read = ref()
            if read is not None:
                gauges[name] = float(read())
        out: dict = {
            "enabled": self.enabled,
            "counters": {
                name: counter.value
                for name, counter in sorted(counters.items())
                if counter.listed
            },
            "gauges": dict(sorted(gauges.items())),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(histograms.items())
                if histogram.listed
            },
        }
        for kind in sorted(self._sources):
            exported: dict[str, dict] = {}
            for name, stats in self._live_sources(kind):
                key = name
                suffix = 2
                while key in exported:
                    key = f"{name}#{suffix}"
                    suffix += 1
                exported[key] = _source_dict(stats)
            out[kind] = exported
        return out


#: The process-wide default registry.  Disabled until a caller (CLI
#: ``--profile``, ``repro serve``, a benchmark, a test) enables it.
registry = MetricsRegistry()
