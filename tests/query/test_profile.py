"""QueryProfile correctness against known workloads.

The profile is the paper's cost model made measurable, so these tests
pin its numbers to the claims: factor-path aggregates over in-memory
models read zero pages; over the persistent store they fetch exactly
the selected U rows (~1 page each); the stream path fetches every
selected row; a single-cell probe costs one page.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressedMatrix, SVDDCompressor
from repro.query import AggregateQuery, QueryEngine, Selection


@pytest.fixture(scope="module")
def memory_model(phone_small):
    return SVDDCompressor(budget_fraction=0.10).fit(phone_small)


@pytest.fixture(scope="module")
def disk_store(tmp_path_factory, memory_model):
    store = CompressedMatrix.save(
        memory_model, tmp_path_factory.mktemp("profile") / "model"
    )
    yield store
    store.close()


@pytest.fixture()
def query():
    return AggregateQuery("sum", Selection(rows=range(0, 120), cols=range(0, 60)))


class TestDisabled:
    def test_profile_is_none_when_telemetry_off(self, disk_store, query):
        engine = QueryEngine(disk_store)
        result = engine.aggregate(query)
        assert result.profile is None
        assert engine.cell((3, 7)).profile is None

    def test_overhead_smoke(self, memory_model, query):
        """Disabled telemetry stays within noise of the hot path.

        The guard is one attribute load and a branch; wall-clock
        assertions on shared CI boxes are inherently noisy, so the bound
        is deliberately loose — it catches accidental always-on
        allocation or clock reads (which show up as 2x+), approximating
        the <5% budget the design targets.
        """
        import time

        from repro.obs import registry

        engine = QueryEngine(memory_model)
        engine.aggregate(query)  # warm caches and code paths

        def best_of(repeats: int = 7, rounds: int = 20) -> float:
            best = np.inf
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(rounds):
                    engine.aggregate(query)
                best = min(best, time.perf_counter() - start)
            return best

        disabled = best_of()
        registry.enable()
        try:
            enabled = best_of()
        finally:
            registry.disable()
            registry.reset()
        assert disabled <= enabled * 1.5


class TestFactorPath:
    def test_memory_backend_reads_no_pages(self, memory_model, query, enabled_registry):
        engine = QueryEngine(memory_model)
        profile = engine.aggregate(query).profile
        assert profile.path == "factor"
        assert profile.function == "sum"
        assert profile.cells == 120 * 60
        assert profile.rows_fetched == 0
        assert profile.pages_read == 0
        assert profile.total_ns > 0

    def test_disk_backend_matches_explain(self, disk_store, query, enabled_registry):
        engine = QueryEngine(disk_store)
        plan = engine.explain(query)
        profile = engine.aggregate(query).profile
        assert plan["path"] == profile.path == "factor"
        assert plan["cells"] == profile.cells
        # One U row lives in one page: the profile's measured pool
        # accesses equal the plan's row-fetch estimate.
        assert profile.rows_fetched == plan["estimated_row_fetches"] == 120
        assert profile.pages_read == plan["estimated_row_fetches"]
        # A gather serves its pages around the pool, with no pager read.
        assert profile.pool_bypasses == 120
        assert (profile.pool_hits, profile.pool_misses, profile.io_reads) == (0, 0, 0)

    def test_value_unchanged_by_profiling(self, disk_store, query, enabled_registry):
        engine = QueryEngine(disk_store)
        profiled = engine.aggregate(query)
        enabled_registry.disable()
        plain = engine.aggregate(query)
        enabled_registry.enable()
        assert profiled.value == pytest.approx(plain.value, rel=1e-12)
        assert plain.profile is None

    def test_delta_probes_counted(self, disk_store, query, enabled_registry):
        engine = QueryEngine(disk_store)
        profile = engine.aggregate(query).profile
        # The SVDD model stores outliers; the factor path folds them in
        # through one vectorized delta-index select.
        assert len(disk_store.delta_index) > 0
        assert profile.delta_lookups >= 1

    def test_phase_timings_within_total(self, disk_store, query, enabled_registry):
        engine = QueryEngine(disk_store)
        profile = engine.aggregate(query).profile
        phase_sum = (
            profile.gather_ns + profile.gemm_ns + profile.delta_ns + profile.stream_ns
        )
        assert 0 < phase_sum <= profile.total_ns
        assert profile.stream_ns == 0  # factor path never streamed


class TestStreamPath:
    def test_min_streams_selected_rows(self, disk_store, enabled_registry):
        engine = QueryEngine(disk_store)
        query = AggregateQuery("min", Selection(rows=range(0, 50), cols=range(0, 30)))
        plan = engine.explain(query)
        profile = engine.aggregate(query).profile
        assert plan["path"] == profile.path == "stream"
        assert profile.rows_fetched == plan["estimated_row_fetches"] == 50
        assert profile.stream_ns > 0
        assert profile.gemm_ns == 0

    def test_fast_path_disabled_streams_sum(self, memory_model, query, enabled_registry):
        engine = QueryEngine(memory_model, use_fast_path=False)
        profile = engine.aggregate(query).profile
        assert profile.path == "stream"
        assert profile.rows_fetched == 120


class TestCellPath:
    def test_cold_cell_costs_one_page(self, disk_store, enabled_registry):
        engine = QueryEngine(disk_store)
        disk_store._u_store._pool.invalidate()
        profile = engine.cell((17, 200)).profile
        assert profile.path == "cell"
        assert profile.cells == 1
        assert profile.rows_fetched == 1
        # Section 4.1's claim: one U-page access reconstructs the cell.
        assert profile.pages_read == 1
        assert profile.pool_misses == 1
        assert (profile.pool_hits, profile.pool_bypasses, profile.pool_evictions) == (0, 0, 0)
        assert profile.io_reads == 1
        assert profile.io_bytes_read == disk_store.u_store.page_size
        assert profile.delta_lookups == profile.delta_keys_probed == 1

    def test_warm_cell_hits_pool(self, disk_store, enabled_registry):
        engine = QueryEngine(disk_store)
        engine.cell((23, 5))
        profile = engine.cell((23, 9)).profile
        assert profile.pages_read == 1
        assert profile.pool_hits == 1
        assert profile.pool_hit_rate == 1.0
        assert (profile.pool_misses, profile.pool_evictions, profile.io_reads) == (0, 0, 0)

    def test_profile_serializes_to_json(self, disk_store, enabled_registry):
        import json

        engine = QueryEngine(disk_store)
        profile = engine.cell((3, 3)).profile
        loaded = json.loads(profile.to_json())
        assert loaded["path"] == "cell"
        assert loaded["pages_read"] == profile.pages_read
        assert "pool_hit_rate" in loaded
