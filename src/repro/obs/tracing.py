"""Lightweight span-based tracing with context propagation.

A span is a named, timed section of work.  Spans nest through a
``contextvars`` stack, so a layer can open a span without knowing who
called it — ``QueryEngine.aggregate`` opens ``query.aggregate`` and the
factor fast path's ``query.factor.gemm`` attaches underneath it
automatically, which is how a :class:`~repro.obs.profile.QueryProfile`
recovers per-phase timings without the engine threading timer objects
through every call.

When the process-wide registry is disabled, :func:`span` returns a
shared no-op singleton: no allocation, no clock read, no context-var
write — the hot path pays one attribute load and a branch.

Every *finished* span also records its duration into the registry
histogram ``span.<name>``, so long-lived processes accumulate timing
distributions (e.g. ``span.build.pass2`` across many builds) that
``repro serve``'s ``/metrics`` and ``/snapshot`` export.  A span is
recorded once, as it closes, and takes no lock: its duration joins the
registry's pending queue (folded into the histogram when histograms
are read) and is added to its parent's per-name totals, so
:meth:`Span.total_ns` — a query profile's phase times — is a lookup,
not a walk of the tree.

Every root span carries a ``trace_id`` — taken from the ambient
:func:`trace` context when one is active, freshly minted otherwise —
and child spans inherit their parent's: the join key between span
trees, profiles, structured log lines and the slow log.
"""

from __future__ import annotations

import contextvars
import os
import random
import time

from repro.obs.registry import FOLD_AT, registry

__all__ = [
    "NULL_SPAN",
    "Span",
    "current_span",
    "current_trace_id",
    "new_trace_id",
    "span",
    "trace",
]

_ACTIVE: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_active_span", default=None
)

_TRACE: contextvars.ContextVar["str | None"] = contextvars.ContextVar(
    "repro_obs_trace_id", default=None
)


# One generator per process, seeded from the OS once, so drawing an id
# is no system call (``uuid4`` reads ``os.urandom``, dropping the GIL,
# per id).  A forked child re-seeds or it would replay its parent's ids.
_ids = random.Random(os.urandom(16))
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _ids.seed(os.urandom(16)))


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (``Random.randbytes(8)``'s bytes)."""
    return _ids.getrandbits(64).to_bytes(8, "little").hex()


def current_trace_id() -> str | None:
    """The trace id of the ambient :func:`trace` context, if any."""
    return _TRACE.get()


class _TraceContext:
    """Context manager binding a trace id to the current context."""

    __slots__ = ("trace_id", "_token")

    def __init__(self, trace_id: str | None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self._token: contextvars.Token | None = None

    def __enter__(self) -> str:
        self._token = _TRACE.set(self.trace_id)
        return self.trace_id

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _TRACE.reset(self._token)
            self._token = None


def trace(trace_id: str | None = None) -> _TraceContext:
    """Bind ``trace_id`` (fresh when None) to the context for a block.

    Root spans opened inside the block adopt it, as do structured log
    records — the join key between logs, profiles and span trees.
    """
    return _TraceContext(trace_id)


class Span:
    """One timed section; use as a context manager.  Made by :func:`span`."""

    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "start_ns",
        "end_ns",
        "children",
        "totals",
        "_parent",
        "_token",
    )

    def __enter__(self) -> "Span":
        parent = self._parent = _ACTIVE.get()
        if parent is not None:
            parent.children.append(self)
            self.trace_id = parent.trace_id
        else:
            # Root span: join the ambient trace, or start a new one
            # (new_trace_id, inline).
            self.trace_id = _TRACE.get() or _ids.getrandbits(64).to_bytes(8, "little").hex()
        self._token = _ACTIVE.set(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end_ns = end = time.perf_counter_ns()
        _ACTIVE.reset(self._token)
        elapsed = end - self.start_ns
        name = self.name
        parent = self._parent
        if parent is not None:
            totals = parent.totals
            totals[name] = totals.get(name, 0) + elapsed
            for inner, spent in self.totals.items():
                totals[inner] = totals.get(inner, 0) + spent
        histogram = _span_histograms.get(name) or registry._span_histogram(name)
        _pending.append((histogram, elapsed))
        if len(_pending) >= FOLD_AT:
            registry._fold()

    def set(self, **attrs) -> "Span":
        """Attach key/value attributes to the span."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds (0 until the span has finished)."""
        if self.end_ns:
            return self.end_ns - self.start_ns
        return 0

    def find(self, name: str) -> "Span | None":
        """First descendant span named ``name`` (depth-first), or None."""
        for child in self.children:
            if child.name == name:
                return child
            nested = child.find(name)
            if nested is not None:
                return nested
        return None

    def total_ns(self, name: str) -> int:
        """Summed duration of the finished descendant spans named
        ``name`` (each added up as it closed)."""
        return self.totals.get(name, 0)

    def to_dict(self) -> dict:
        """The span tree (name, trace id, duration, attrs, children),
        JSON-ready."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }


_new_span = object.__new__
_span_histograms = registry._span_histograms
_pending = registry._pending


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    children: tuple = ()
    attrs: dict = {}
    totals: dict = {}
    start_ns = end_ns = duration_ns = 0
    trace_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def find(self, name: str) -> None:
        return None

    def total_ns(self, name: str) -> int:
        return 0


NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """A span named ``name`` to open with ``with`` (the no-op singleton
    when disabled)."""
    if not registry.enabled:
        return NULL_SPAN
    made = _new_span(Span)
    made.name = name
    made.attrs = attrs
    made.children = []
    made.totals = {}
    made.trace_id = None
    made.end_ns = 0
    return made


def current_span() -> Span | None:
    """The innermost active real span in this context, if any."""
    return _ACTIVE.get()
