"""Telemetry: metrics registry, span tracing, structured logs, profiles.

The paper's headline claims are *cost* claims — ~1 disk access per
reconstructed cell, O(k) reconstruction arithmetic, a 3-pass build —
and this package is how the reproduction measures them instead of
asserting them:

- :data:`~repro.obs.registry.registry` — the process-wide
  :class:`MetricsRegistry` of counters, gauges and ns-precision
  histograms, which also exports every live buffer pool's and pager's
  always-on stat structs (``PoolStats``/``IOStats``) in one
  :meth:`~repro.obs.registry.MetricsRegistry.snapshot`;
- :func:`~repro.obs.tracing.span` — context-propagating span tracing
  (``query.aggregate`` → ``query.factor.gemm`` nest automatically);
- :func:`~repro.obs.logging.log_event` — one-JSON-object-per-line
  structured logging (build pass events, etc.);
- :class:`~repro.obs.profile.QueryProfile` — per-query cost breakdown
  attached to :class:`~repro.query.engine.QueryResult` while telemetry
  is enabled;
- :func:`~repro.obs.bench.git_sha` — the commit a benchmark result is
  stamped with;
- :func:`~repro.obs.export.render_openmetrics` — Prometheus-scrapeable
  OpenMetrics text over the registry, served as ``/metrics`` by
  ``repro serve`` (:mod:`repro.serve.server`);
- :data:`~repro.obs.slowlog.slow_query_log` — threshold-triggered
  structured log of full profiles + span trees for outlier queries.

Everything is **off by default**: call ``registry.enable()`` (the CLI's
``--profile`` flag and ``serve`` command do) and the instrumented hot
paths start recording.  Disabled, every site costs one attribute load
and a branch — no allocation, no clock reads.
"""

from repro.obs.bench import git_sha
from repro.obs.export import render_openmetrics, validate_openmetrics
from repro.obs.logging import JsonLogger, log_event, set_log_stream
from repro.obs.profile import QueryProfile
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, registry
from repro.obs.slowlog import SlowQueryLog, slow_query_log
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    current_span,
    current_trace_id,
    new_trace_id,
    span,
    trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLogger",
    "MetricsRegistry",
    "NULL_SPAN",
    "QueryProfile",
    "SlowQueryLog",
    "Span",
    "current_span",
    "current_trace_id",
    "git_sha",
    "log_event",
    "new_trace_id",
    "registry",
    "render_openmetrics",
    "set_log_stream",
    "slow_query_log",
    "span",
    "trace",
    "validate_openmetrics",
]
