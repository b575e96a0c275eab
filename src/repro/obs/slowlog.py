"""Threshold-triggered slow-query log.

A serving fleet's outliers matter more than its averages: the paper's
cost model promises ~1 page access per reconstructed cell, so a query
that took 50 ms deserves a full forensic record, not a bucket increment.
While configured with a threshold, every profiled query whose total
wall time crosses it is captured as one structured JSON record carrying
the query text, the complete
:class:`~repro.obs.profile.QueryProfile`, and the finished span tree —
everything needed to answer "why was *this* query slow" after the
fact, joined to metrics and log lines by its ``trace_id``.

The log is **off by default** and free when off: the engine's hook
only runs inside the telemetry-enabled branch, and an unconfigured log
is a single attribute check.  Records go to a JSONL file (or any
stream) and into a bounded in-memory ring that ``repro top`` and tests
read without touching disk.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from datetime import datetime, timezone
from pathlib import Path

from repro.obs.registry import registry

__all__ = ["SlowQueryLog", "slow_query_log"]


def _utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


class SlowQueryLog:
    """Captures full profiles of queries slower than a threshold.

    Configure with :meth:`configure`; until then every
    :meth:`maybe_record` call returns immediately after one attribute
    load.  Thread-safe: serve's handler threads all record through
    one instance.
    """

    def __init__(self, capacity: int = 64) -> None:
        #: Nanosecond threshold; None means the log is disabled.
        self.threshold_ns: int | None = None
        self._path: Path | None = None
        self._stream = None
        self._lock = threading.Lock()
        self.recent: deque = deque(maxlen=capacity)

    @property
    def enabled(self) -> bool:
        """True while a threshold is configured."""
        return self.threshold_ns is not None

    def configure(
        self,
        threshold_ms: float,
        path: str | os.PathLike | None = None,
        stream=None,
        capacity: int | None = None,
    ) -> "SlowQueryLog":
        """Arm the log: capture queries slower than ``threshold_ms``.

        Records append to the JSONL file at ``path`` and/or write to
        ``stream``; with neither, they are only kept in :attr:`recent`.
        Returns ``self`` for chaining.
        """
        with self._lock:
            self.threshold_ns = int(threshold_ms * 1e6)
            self._path = Path(path) if path is not None else None
            self._stream = stream
            if capacity is not None:
                self.recent = deque(self.recent, maxlen=capacity)
        return self

    def disable(self) -> None:
        """Disarm the log and drop the in-memory ring."""
        with self._lock:
            self.threshold_ns = None
            self._path = None
            self._stream = None
            self.recent.clear()

    def maybe_record(self, query, profile, root_span=None) -> dict | None:
        """Record ``query`` if its profile crossed the threshold.

        Called by the engine after building a profile; ``root_span`` is
        the query's finished span (its tree is serialized into the
        record).  Returns the record when one was captured, else None.
        """
        threshold = self.threshold_ns
        if threshold is None or profile.total_ns < threshold:
            return None
        record = {
            "event": "query.slow",
            "time": _utc_now_iso(),
            "trace_id": profile.trace_id,
            "query": self._format_query(query),
            "threshold_ms": threshold / 1e6,
            "total_ms": profile.total_ns / 1e6,
            "profile": profile.to_dict(),
            "span_tree": (
                root_span.to_dict()
                if root_span is not None and hasattr(root_span, "to_dict")
                else None
            ),
        }
        line = json.dumps(record, default=str)
        with self._lock:
            self.recent.append(record)
            if self._stream is not None:
                self._stream.write(line + "\n")
            if self._path is not None:
                with open(self._path, "a") as sink:
                    sink.write(line + "\n")
        registry.counter("slowlog.records").inc()
        return record

    @staticmethod
    def _format_query(query) -> str:
        """A query's canonical text form for the log record."""
        function = getattr(query, "function", None)
        selection = getattr(query, "selection", None)
        if function is not None and selection is not None:
            rows = selection.rows
            cols = selection.cols
            def _fmt(part):
                if part is None:
                    return ":"
                if isinstance(part, range):
                    return f"{part.start}:{part.stop}"
                return str(part)
            return f"{function}() rows {_fmt(rows)} cols {_fmt(cols)}"
        if isinstance(query, tuple) and len(query) == 2:
            row, col = query  # the engine's plain (row, col) cell probe
        else:
            row = getattr(query, "row", None)
            col = getattr(query, "col", None)
        if row is not None and col is not None:
            return f"cell({row}, {col})"
        return repr(query)


#: Process-wide slow-query log used by the engine's hook.
slow_query_log = SlowQueryLog()
