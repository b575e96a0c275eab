"""Process-wide metrics registry.

The paper argues in *counters* — disk accesses per reconstructed cell,
passes over the data, deltas retained — so the reproduction keeps a
single registry through which every layer's counters are reachable:

- **counters / gauges / histograms** created on demand by name
  (``registry.counter("delta.lookups").inc()``), histograms carrying
  nanosecond-precision timing observations from the span tracer;
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

All metric mutations are **thread-safe**: counters and histograms take
a per-metric lock (an uncontended CPython lock is tens of nanoseconds),
gauges expose an atomic ``add`` for in-flight accounting, and
``snapshot`` copies the metric maps under the registry lock so
concurrent metric creation cannot corrupt an export.  This is what
keeps the pool/pager counters honest while ``repro serve``'s handler
threads answer queries at once.
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from typing import Callable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
]


class Counter:
    """A monotonically increasing integer metric.

    ``inc`` is thread-safe: Python's ``+=`` on an attribute is a
    read-modify-write that can interleave between threads, so the
    increment happens under a per-counter lock.  Reading ``value`` needs
    no lock (it is a single attribute load of an int).
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1); safe to call from any thread."""
        with self._lock:
            self.value += int(amount)


class Gauge:
    """A point-in-time numeric metric (last write wins).

    ``set`` is a single atomic attribute store and needs no lock;
    ``add`` (for in-flight style gauges) is a read-modify-write and
    takes one.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def add(self, delta: float) -> float:
        """Shift the gauge by ``delta`` atomically; returns the new value."""
        with self._lock:
            self.value += float(delta)
            return self.value


#: Log-scale bucket layout shared by every histogram: bucket ``i``
#: covers values in ``(2**(i/4 - 1/4), 2**(i/4)]`` — a ~19% growth
#: factor, fine enough that a p99 read off a bucket bound is within
#: one fifth of the true value.  176 buckets span 1 ns .. ~2**44 ns
#: (about five hours), the full range a span duration can plausibly
#: take; values outside clamp to the end buckets.
_BUCKET_COUNT = 176
_BUCKETS_PER_OCTAVE = 4
_LOG2_SCALE = 1.0 / math.log(2.0) * _BUCKETS_PER_OCTAVE
#: Upper bound of each bucket (inclusive), precomputed once.
_BUCKET_BOUNDS = tuple(
    2.0 ** ((index + 1) / _BUCKETS_PER_OCTAVE) for index in range(_BUCKET_COUNT)
)


def _bucket_index(value: float) -> int:
    """The log-scale bucket a positive value falls into (clamped)."""
    if value <= 1.0:
        return 0
    index = int(math.log(value) * _LOG2_SCALE)
    # Float log can land exactly on a bound's neighbour; nudge so the
    # bucket's upper bound is truly >= value.
    if index > 0 and value <= _BUCKET_BOUNDS[index - 1]:
        index -= 1
    if index >= _BUCKET_COUNT:
        return _BUCKET_COUNT - 1
    return index


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

    __slots__ = ("count", "total", "minimum", "maximum", "buckets", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.buckets = [0] * _BUCKET_COUNT
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation; safe to call from any thread."""
        value = float(value)
        index = _bucket_index(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
            self.buckets[index] += 1

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
            count = self.count
            if count == 0:
                return None
            target = q * count
            cumulative = 0
            bound = self.maximum
            for index, bucket in enumerate(self.buckets):
                cumulative += bucket
                if cumulative >= target:
                    bound = _BUCKET_BOUNDS[index]
                    break
            return min(max(bound, self.minimum), self.maximum)

    def percentiles(self) -> dict:
        """The standard latency quantiles: p50/p95/p99 (None when empty)."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_dict(self) -> dict:
        """Summary plus p50/p95/p99, JSON-ready (bounds None when empty)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            **self.percentiles(),
        }


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
        # builds no prefixed name; emptied by :meth:`reset` with the rest.
        self._span_histograms: dict[str, Histogram] = {}
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
        """Drop all named metrics (registered sources are kept)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._span_histograms.clear()

    # -- named metrics ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, Histogram())

    def _span_histogram(self, span_name: str) -> Histogram:
        """``histogram("span." + span_name)``, remembered per span name."""
        histogram = self._span_histograms.get(span_name)
        if histogram is None:
            # One locked step, so a racing reset() cannot leave a
            # histogram remembered here that the registry has dropped.
            with self._lock:
                name = f"span.{span_name}"
                histogram = self._histograms.setdefault(name, Histogram())
                self._span_histograms[span_name] = histogram
        return histogram

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

        The metric maps are copied under the registry lock so a thread
        creating a new counter mid-snapshot cannot break the iteration.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        out: dict = {
            "enabled": self.enabled,
            "counters": {
                name: counter.value for name, counter in sorted(counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(gauges.items())
            },
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(histograms.items())
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
