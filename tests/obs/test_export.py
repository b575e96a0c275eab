"""Tests for metric export: OpenMetrics text, rendered and validated.

Includes the concurrent-export stress test: registry writers on eight
threads while the main thread snapshots and renders continuously —
exports must never be torn (internally inconsistent) and counters must
never run backwards.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.export import render_openmetrics, validate_openmetrics
from repro.obs.registry import Histogram, MetricsRegistry


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry(enabled=True)
    registry.counter("executor.queries").inc(7)
    registry.gauge("executor.workers").set(4)
    histogram = registry.histogram("span.query.cell")
    for value in (1_000.0, 2_000.0, 500_000.0):
        histogram.observe(value)
    return registry

class TestRenderOpenMetrics:
    def test_render_validates_and_ends_with_eof(self):
        text = render_openmetrics(registry=_sample_registry())
        families = validate_openmetrics(text)
        assert text.endswith("# EOF\n")
        assert families["repro_executor_queries"] == "counter"
        assert families["repro_executor_workers"] == "gauge"
        assert families["repro_span_query_cell"] == "summary"

    def test_counter_sample_has_total_suffix(self):
        text = render_openmetrics(registry=_sample_registry())
        assert "repro_executor_queries_total 7" in text.splitlines()

    def test_histogram_renders_quantiles_count_sum(self):
        lines = render_openmetrics(registry=_sample_registry()).splitlines()
        assert any(
            line.startswith('repro_span_query_cell{quantile="0.5"} ')
            for line in lines
        )
        assert any(
            line.startswith('repro_span_query_cell{quantile="0.99"} ')
            for line in lines
        )
        assert "repro_span_query_cell_count 3" in lines
        assert "repro_span_query_cell_sum 503000" in lines

    def test_empty_histogram_renders_no_quantile_samples(self):
        registry = MetricsRegistry(enabled=True)
        registry.histogram("span.empty")
        text = render_openmetrics(registry=registry)
        assert "quantile" not in text
        assert "repro_span_empty_count 0" in text
        validate_openmetrics(text)

    def test_sources_render_as_labeled_gauges(self):
        from repro.storage.buffer_pool import PoolStats

        registry = MetricsRegistry(enabled=True)
        stats = PoolStats()
        stats.hits = 9
        registry.register_source("pools", "u.mat", stats)
        text = render_openmetrics(registry=registry)
        assert 'repro_pools_hits{name="u.mat"} 9' in text.splitlines()
        validate_openmetrics(text)

    def test_label_values_escaped(self):
        registry = MetricsRegistry(enabled=True)
        registry.register_source("pools", 'we"ird\\name', {"hits": 1})
        text = render_openmetrics(registry=registry)
        assert 'name="we\\"ird\\\\name"' in text
        validate_openmetrics(text)

    def test_dotted_names_become_underscored(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("a.b-c.d").inc()
        text = render_openmetrics(registry=registry)
        assert "repro_a_b_c_d_total 1" in text.splitlines()

    def test_empty_registry_is_valid(self):
        text = render_openmetrics(registry=MetricsRegistry())
        assert text == "# EOF\n"
        assert validate_openmetrics(text) == {}


class TestValidateOpenMetrics:
    def test_missing_eof_rejected(self):
        with pytest.raises(ValueError, match="EOF"):
            validate_openmetrics("# TYPE x counter\nx_total 1\n")

    def test_sample_without_type_rejected(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            validate_openmetrics("orphan 1\n# EOF\n")

    def test_counter_without_total_suffix_rejected(self):
        with pytest.raises(ValueError, match="_total"):
            validate_openmetrics("# TYPE x counter\nx 1\n# EOF\n")

    def test_malformed_sample_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            validate_openmetrics("# TYPE x gauge\nx one two three\n# EOF\n")

    def test_unparseable_value_rejected(self):
        with pytest.raises(ValueError, match="unparseable"):
            validate_openmetrics("# TYPE x gauge\nx banana\n# EOF\n")

    def test_eof_must_be_last(self):
        with pytest.raises(ValueError, match="before end"):
            validate_openmetrics("# EOF\n# TYPE x gauge\nx 1\n# EOF\n")


class TestConcurrentExport:
    """Exports under fire: 8 writer threads.

    Every snapshot/render taken while writers are running must be
    internally consistent (validatable, quantiles inside [min, max])
    and counters must be monotonic across successive exports.
    """

    WRITER_THREADS = 8
    ROUNDS = 120

    def test_exports_never_torn_or_non_monotonic(self, enabled_registry):
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(index: int) -> None:
            histogram = enabled_registry.histogram("span.query.cell")
            counter = enabled_registry.counter("hammer.writes")
            value = 100.0 * (index + 1)
            try:
                while not stop.is_set():
                    histogram.observe(value)
                    counter.inc()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(index,))
            for index in range(self.WRITER_THREADS)
        ]
        for thread in threads:
            thread.start()
        previous_counters: dict[str, float] = {}
        previous_hist_count = 0
        try:
            for _ in range(self.ROUNDS):
                snapshot = enabled_registry.snapshot()
                validate_openmetrics(render_openmetrics(snapshot))
                counters = snapshot["counters"]
                for name, before in previous_counters.items():
                    assert counters.get(name, 0) >= before, name
                previous_counters = dict(counters)
                summary = snapshot["histograms"].get("span.query.cell")
                if summary and summary["count"]:
                    assert summary["count"] >= previous_hist_count
                    previous_hist_count = summary["count"]
                    assert summary["min"] <= summary["p50"]
                    assert summary["p50"] <= summary["p95"] <= summary["p99"]
                    # The p99 bucket bound may round one step above
                    # the true maximum, never more.
                    assert summary["p99"] <= summary["max"] * 1.2
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        final = enabled_registry.snapshot()
        assert final["counters"]["hammer.writes"] == (
            final["histograms"]["span.query.cell"]["count"]
        )

    def test_merged_histograms_equal_sum_of_parts(self):
        import numpy as np

        rng = np.random.default_rng(11)
        values = rng.lognormal(mean=9.0, sigma=1.5, size=4_000)
        whole = Histogram()
        parts = [Histogram() for _ in range(self.WRITER_THREADS)]
        barrier = threading.Barrier(self.WRITER_THREADS)

        def fill(index: int) -> None:
            barrier.wait()
            for value in values[index :: self.WRITER_THREADS]:
                parts[index].observe(float(value))
                whole.observe(float(value))

        threads = [
            threading.Thread(target=fill, args=(index,))
            for index in range(self.WRITER_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        merged = Histogram()
        for part in parts:
            merged.merge(part)
        assert merged.count == whole.count == len(values)
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum
        for q in (0.5, 0.9, 0.95, 0.99):
            assert merged.quantile(q) == whole.quantile(q)
