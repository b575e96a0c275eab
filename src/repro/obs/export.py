"""Metric export: OpenMetrics text rendering.

:func:`render_openmetrics` turns a
:meth:`~repro.obs.registry.MetricsRegistry.snapshot` into the
Prometheus/OpenMetrics text format scrapers eat (``# TYPE``
declarations, labeled samples, trailing ``# EOF``).  Counters become
``repro_<name>_total``, gauges ``repro_<name>``, histograms
**summaries** with p50/p95/p99 quantile samples plus ``_count``/``_sum``
(values keep the registry's native unit — nanoseconds for span
histograms), and registered component sources (pools, pagers, delta
indexes) become per-instance labeled gauges such as
``repro_pools_hits{name="u.mat"}``.

:func:`validate_openmetrics` is the strict line-format check the tests
and the CI smoke step run over everything the renderer emits — a
malformed exposition fails loudly here rather than silently dropping
series at the scraper.
"""

from __future__ import annotations

import math
import re

from repro.obs.registry import MetricsRegistry, registry as _default_registry

__all__ = ["OPENMETRICS_CONTENT_TYPE", "render_openmetrics", "validate_openmetrics"]

#: The ``Content-Type`` of :func:`render_openmetrics`'s text.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: Sample line: name, optional {labels}, and a value.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\")*\})?"
    r" (?P<value>\S+)$"
)
_COMMENT_RE = re.compile(
    r"^# (?:TYPE (?P<type_name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r" (?P<type>counter|gauge|summary|histogram|untyped)"
    r"|HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*|EOF)$"
)


def _metric_name(name: str, prefix: str) -> str:
    """``span.query.cell`` -> ``repro_span_query_cell``."""
    return f"{prefix}_{_NAME_OK.sub('_', name)}"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value) -> str:
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_openmetrics(
    snapshot: dict | None = None,
    registry: MetricsRegistry | None = None,
    prefix: str = "repro",
) -> str:
    """Render a registry snapshot as OpenMetrics exposition text.

    With no arguments, snapshots the process-wide registry.  The output
    always ends with ``# EOF`` and passes
    :func:`validate_openmetrics`; non-finite values are skipped rather
    than emitted (an ``inf`` sample poisons scrapes).
    """
    if snapshot is None:
        snapshot = (registry or _default_registry).snapshot()
    lines: list[str] = []

    for name, value in snapshot.get("counters", {}).items():
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_format_value(value)}")

    for name, value in snapshot.get("gauges", {}).items():
        if not math.isfinite(float(value)):
            continue
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    for name, summary in snapshot.get("histograms", {}).items():
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            value = summary.get(key)
            if value is None or not math.isfinite(float(value)):
                continue
            lines.append(
                f'{metric}{{quantile="{quantile}"}} {_format_value(value)}'
            )
        lines.append(f"{metric}_count {_format_value(summary.get('count', 0))}")
        lines.append(f"{metric}_sum {_format_value(summary.get('total', 0.0))}")

    # Component stat sources: {kind: {instance: {field: value}}} becomes
    # per-field gauge families labeled by instance name.
    reserved = {"enabled", "counters", "gauges", "histograms"}
    for kind in sorted(set(snapshot) - reserved):
        instances = snapshot[kind]
        if not isinstance(instances, dict):
            continue
        fields: dict[str, list[tuple[str, float]]] = {}
        for instance, stats in instances.items():
            if not isinstance(stats, dict):
                continue
            for field, value in stats.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                if not math.isfinite(float(value)):
                    continue
                fields.setdefault(field, []).append((instance, value))
        for field in sorted(fields):
            metric = _metric_name(f"{kind}.{field}", prefix)
            lines.append(f"# TYPE {metric} gauge")
            for instance, value in fields[field]:
                lines.append(
                    f'{metric}{{name="{_escape_label(instance)}"}} '
                    f"{_format_value(value)}"
                )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def validate_openmetrics(text: str) -> dict[str, str]:
    """Strictly check OpenMetrics exposition text; returns {family: type}.

    Enforces the line grammar (comments and samples only), a single
    terminal ``# EOF``, ``# TYPE`` declared before a family's samples,
    the ``_total`` suffix on counter samples, and parseable finite
    sample values.  Raises :class:`ValueError` naming the offending
    line on any violation.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    families: dict[str, str] = {}
    for number, line in enumerate(lines, start=1):
        if line == "# EOF":
            if number != len(lines):
                raise ValueError(f"line {number}: '# EOF' before end of text")
            continue
        comment = _COMMENT_RE.match(line)
        if comment:
            if comment.group("type_name"):
                families[comment.group("type_name")] = comment.group("type")
            continue
        if line.startswith("#"):
            raise ValueError(f"line {number}: malformed comment: {line!r}")
        sample = _SAMPLE_RE.match(line)
        if sample is None:
            raise ValueError(f"line {number}: malformed sample: {line!r}")
        value = sample.group("value")
        try:
            float(value)
        except ValueError:
            raise ValueError(
                f"line {number}: unparseable sample value {value!r}"
            ) from None
        name = sample.group("name")
        family = None
        for suffix in ("_total", "_count", "_sum", ""):
            base = name[: len(name) - len(suffix)] if suffix else name
            if name.endswith(suffix) and base in families:
                family = base
                break
        if family is None:
            raise ValueError(f"line {number}: sample {name!r} has no # TYPE")
        if families[family] == "counter" and not name.endswith("_total"):
            raise ValueError(
                f"line {number}: counter sample {name!r} must end in '_total'"
            )
    return families
