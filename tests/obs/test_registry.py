"""Tests for the metrics registry."""

from __future__ import annotations

import pytest

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


class TestMetricTypes:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.set(1.25)
        assert gauge.value == 1.25

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (10.0, 20.0, 60.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 90.0
        assert histogram.minimum == 10.0
        assert histogram.maximum == 60.0
        assert histogram.mean == pytest.approx(30.0)

    def test_empty_histogram_exports_none_bounds(self):
        empty = Histogram().to_dict()
        assert empty["count"] == 0
        assert empty["min"] is None and empty["max"] is None
        assert empty["mean"] == 0.0

    def test_gauge_add_is_atomic_delta(self):
        gauge = Gauge()
        gauge.set(10.0)
        assert gauge.add(2.5) == 12.5
        assert gauge.add(-5.0) == 7.5
        assert gauge.value == 7.5


class TestHistogramQuantiles:
    """Log-scale bucket quantiles: ~19% resolution, clamped to the
    observed range, exact under merge."""

    def test_empty_histogram_has_no_quantiles(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) is None
        assert histogram.percentiles() == {"p50": None, "p95": None, "p99": None}

    def test_quantile_rejects_out_of_range(self):
        histogram = Histogram()
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_single_observation_all_quantiles_equal_it(self):
        histogram = Histogram()
        histogram.observe(12_345.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(12_345.0)

    def test_quantiles_within_bucket_resolution(self):
        import numpy as np

        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=11.0, sigma=1.2, size=5_000)
        histogram = Histogram()
        for value in values:
            histogram.observe(float(value))
        for q in (0.5, 0.95, 0.99):
            true = float(np.quantile(values, q))
            estimate = histogram.quantile(q)
            # Buckets grow by 2**0.25 (~19%); the estimate is a bucket
            # upper bound, so it sits within one bucket of the truth.
            assert true * 0.8 <= estimate <= true * 1.25

    def test_quantiles_clamped_to_observed_range(self):
        histogram = Histogram()
        for value in (100.0, 105.0, 110.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) >= 100.0
        assert histogram.quantile(1.0) <= 110.0

    def test_to_dict_includes_percentiles_and_legacy_keys(self):
        histogram = Histogram()
        for value in (10.0, 20.0, 60.0):
            histogram.observe(value)
        exported = histogram.to_dict()
        for key in ("count", "total", "min", "max", "mean", "p50", "p95", "p99"):
            assert key in exported
        assert exported["p50"] is not None

    def test_merge_equals_single_histogram(self):
        import numpy as np

        rng = np.random.default_rng(3)
        values = rng.lognormal(mean=10.0, sigma=1.0, size=2_000)
        merged, whole = Histogram(), Histogram()
        parts = [Histogram() for _ in range(4)]
        for index, value in enumerate(values):
            parts[index % 4].observe(float(value))
            whole.observe(float(value))
        for part in parts:
            assert merged.merge(part) is merged
        assert merged.count == whole.count
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum
        assert merged.total == pytest.approx(whole.total)
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == whole.quantile(q)

    def test_merge_empty_is_identity(self):
        histogram = Histogram()
        histogram.observe(5.0)
        before = histogram.to_dict()
        histogram.merge(Histogram())
        assert histogram.to_dict() == before


class TestThreadSafety:
    """The registry is shared by executor workers; increments must not
    be lost to read-modify-write races."""

    THREADS = 8
    INCREMENTS = 2_000

    def _hammer(self, work):
        import threading

        barrier = threading.Barrier(self.THREADS)

        def body():
            barrier.wait()
            for _ in range(self.INCREMENTS):
                work()

        threads = [threading.Thread(target=body) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_inc_from_threads_exact_total(self):
        counter = Counter()
        self._hammer(lambda: counter.inc())
        assert counter.value == self.THREADS * self.INCREMENTS

    def test_gauge_add_from_threads_balances_to_zero(self):
        gauge = Gauge()

        def up_down():
            gauge.add(1.0)
            gauge.add(-1.0)

        self._hammer(up_down)
        assert gauge.value == 0.0

    def test_histogram_observe_from_threads_exact_count(self):
        histogram = Histogram()
        self._hammer(lambda: histogram.observe(1.0))
        expected = self.THREADS * self.INCREMENTS
        assert histogram.count == expected
        assert histogram.total == float(expected)

    def test_histogram_merge_during_observes_loses_nothing(self):
        source = Histogram()
        destination = Histogram()

        def observe_and_merge():
            source.observe(100.0)
            Histogram().merge(source)  # concurrent reader of source

        self._hammer(observe_and_merge)
        destination.merge(source)
        assert destination.count == self.THREADS * self.INCREMENTS
        assert destination.quantile(0.5) == pytest.approx(100.0)

    def test_snapshot_during_metric_creation(self):
        import threading

        registry = MetricsRegistry(enabled=True)
        stop = threading.Event()

        def churn():
            index = 0
            while not stop.is_set():
                registry.counter(f"churn.{index % 64}").inc()
                index += 1

        worker = threading.Thread(target=churn)
        worker.start()
        try:
            for _ in range(200):
                snapshot = registry.snapshot()
                assert "counters" in snapshot
        finally:
            stop.set()
            worker.join()


class TestRegistry:
    def test_disabled_by_default(self):
        assert MetricsRegistry().enabled is False

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_enable_disable(self):
        reg = MetricsRegistry()
        reg.enable()
        assert reg.enabled
        reg.disable()
        assert not reg.enabled

    def test_reset_drops_named_metrics(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.counter("a").value == 0

    def test_timer_observes_nanoseconds(self):
        reg = MetricsRegistry()
        with reg.timer("work"):
            pass
        histogram = reg.histogram("work")
        assert histogram.count == 1
        assert histogram.total >= 0

    def test_snapshot_structure(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(7.0)
        snap = reg.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1


class TestSources:
    def test_registered_object_source_exported(self):
        from repro.storage.buffer_pool import PoolStats

        reg = MetricsRegistry()
        stats = PoolStats()
        stats.hits = 4
        reg.register_source("pools", "u", stats)
        assert reg.snapshot()["pools"]["u"]["hits"] == 4

    def test_registered_dict_source_exported(self):
        reg = MetricsRegistry()
        stats = {"lookups": 2}
        reg.register_source("deltas", "idx", stats)
        assert reg.snapshot()["deltas"]["idx"] == {"lookups": 2}

    def test_name_collisions_suffixed(self):
        from repro.storage.buffer_pool import PoolStats

        reg = MetricsRegistry()
        first, second = PoolStats(), PoolStats()
        reg.register_source("pools", "u", first)
        reg.register_source("pools", "u", second)
        assert set(reg.snapshot()["pools"]) == {"u", "u#2"}

    def test_dead_sources_pruned(self):
        from repro.storage.buffer_pool import PoolStats

        reg = MetricsRegistry()
        stats = PoolStats()
        reg.register_source("pools", "u", stats)
        del stats
        assert reg.snapshot()["pools"] == {}

    def test_live_components_register_themselves(self, tmp_path, enabled_registry):
        import numpy as np

        from repro.storage import MatrixStore

        store = MatrixStore.create(tmp_path / "m.mat", np.eye(4))
        try:
            snap = enabled_registry.snapshot()
            assert "m.mat" in snap["pools"]
            assert "m.mat" in snap["pagers"]
        finally:
            store.close()


class TestBoundMetrics:
    """A metric object lives as long as its registry: bound once, it
    keeps counting across resets, and a snapshot lists what was written
    or looked up since the last reset."""

    def test_a_bound_counter_is_listed_once_incremented(self):
        reg = MetricsRegistry()
        bound = reg.bind_counter("hot.path")
        assert "hot.path" not in reg.snapshot()["counters"]
        bound.inc(0)
        assert reg.snapshot()["counters"] == {"hot.path": 0}
        assert reg.counter("hot.path") is bound

    def test_reset_zeroes_in_place_and_unlists(self):
        reg = MetricsRegistry()
        bound = reg.bind_counter("a")
        bound.inc(5)
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(3.0)
        reg.reset()
        assert reg.snapshot()["counters"] == {}
        assert reg.snapshot()["gauges"] == {}
        assert reg.snapshot()["histograms"] == {}
        bound.inc()
        assert reg.snapshot()["counters"] == {"a": 1}
        assert reg.counter("a") is bound

    def test_a_lookup_by_name_lists_the_metric(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        reg.counter("c")
        reg.histogram("h")
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 0}
        assert snap["histograms"]["h"]["count"] == 0

    def test_a_watched_gauge_is_read_at_snapshot_while_its_owner_lives(self):
        reg = MetricsRegistry()

        class Owner:
            depth = 3

            def read(self) -> float:
                return self.depth

        owner = Owner()
        reg.watch("queue.depth", owner.read)
        reg.reset()
        assert reg.snapshot()["gauges"] == {"queue.depth": 3.0}
        owner.depth = 0
        assert reg.snapshot()["gauges"] == {"queue.depth": 0.0}
        del owner
        assert reg.snapshot()["gauges"] == {}

    def test_bucket_is_the_first_bound_at_or_above_the_value(self):
        from repro.obs.registry import _BUCKET_BOUNDS

        histogram = Histogram()
        for value in (0.5, 1.0, _BUCKET_BOUNDS[0], _BUCKET_BOUNDS[0] * 1.0001,
                      _BUCKET_BOUNDS[40], 2.0**60):
            histogram.observe(value)
        assert [i for i, n in enumerate(histogram.buckets) for _ in range(n)] == [
            0, 0, 0, 1, 40, 175,
        ]
