"""Tests for the LRU buffer pool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, PageError
from repro.storage import BufferPool, FilePager, MatrixStore
from repro.storage.buffer_pool import read_span


@pytest.fixture()
def pager(tmp_path):
    with FilePager(tmp_path / "data.pg", page_size=128, create=True) as pager:
        for page_id in range(10):
            pager.write_page(page_id, bytes([page_id]) * 128)
        yield pager


class TestCaching:
    def test_hit_after_miss(self, pager):
        pool = BufferPool(pager, capacity=4)
        pool.get_page(3)
        pool.get_page(3)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1

    def test_contents_correct(self, pager):
        pool = BufferPool(pager, capacity=4)
        assert pool.get_page(7) == bytes([7]) * 128

    def test_lru_evicts_least_recent(self, pager):
        pool = BufferPool(pager, capacity=2)
        pool.get_page(0)
        pool.get_page(1)
        pool.get_page(0)  # refresh 0; 1 is now LRU
        pool.get_page(2)  # evicts 1
        assert pool.stats.evictions == 1
        pool.get_page(0)
        assert pool.stats.hits == 2  # 0 stayed resident

    def test_capacity_bounded(self, pager):
        pool = BufferPool(pager, capacity=3)
        for page_id in range(10):
            pool.get_page(page_id)
        assert pool.cached_pages() == 3

    def test_invalid_capacity(self, pager):
        with pytest.raises(ConfigurationError):
            BufferPool(pager, capacity=0)

    def test_hit_rate(self, pager):
        pool = BufferPool(pager, capacity=4)
        assert pool.stats.hit_rate == 0.0
        pool.get_page(0)
        pool.get_page(0)
        pool.get_page(0)
        assert pool.stats.hit_rate == pytest.approx(2 / 3)

    def test_invalidate_one(self, pager):
        pool = BufferPool(pager, capacity=4)
        pool.get_page(1)
        pool.invalidate(1)
        pool.get_page(1)
        assert pool.stats.misses == 2

    def test_invalidate_all(self, pager):
        pool = BufferPool(pager, capacity=4)
        pool.get_page(1)
        pool.get_page(2)
        pool.invalidate()
        assert pool.cached_pages() == 0


class TestBatchedBypassAccounting:
    """Pages a batched gather serves around the cache count as
    ``bypasses``, so batched workloads cannot fake a high hit rate."""

    def test_resident_set_survives_scan(self, tmp_path):
        data = np.arange(80.0).reshape(10, 8)
        with MatrixStore.create(
            tmp_path / "m.mat", data, page_size=64, pool_capacity=4
        ) as store:
            store.row(0)
            store.read_rows(range(1, 10))  # 9 pages >= capacity
            store.row(0)
            assert store.pool_stats.hits == 1  # page of row 0 not evicted
            assert store.pool_stats.bypasses == 9
            assert store.pool_stats.evictions == 0

    def test_hit_rate_stays_honest_under_bypasses(self, pager):
        pool = BufferPool(pager, capacity=4)
        pool.get_page(9)
        pool.stats.add(bypasses=9)  # 0 hits over 10 accesses
        assert pool.stats.hit_rate == 0.0
        pool.get_page(9)
        assert pool.stats.hit_rate == pytest.approx(1 / 11)

    def test_reset_zeroes_bypasses(self, pager):
        pool = BufferPool(pager, capacity=4)
        pool.stats.add(bypasses=8)
        assert pool.stats.accesses == 8
        pool.stats.reset()
        assert pool.stats.bypasses == 0
        assert pool.stats.accesses == 0

    def test_to_dict_exports_all_counters(self, pager):
        pool = BufferPool(pager, capacity=4)
        pool.get_page(8)
        pool.get_page(9)
        pool.stats.add(bypasses=8)
        pool.get_page(9)
        exported = pool.stats.to_dict()
        assert exported["hits"] == 1
        assert exported["misses"] == 2
        assert exported["bypasses"] == 8
        assert exported["accesses"] == 11
        assert exported["hit_rate"] == pytest.approx(1 / 11)


class TestPinning:
    def test_pinned_pages_survive_pressure(self, pager):
        pool = BufferPool(pager, capacity=2)
        pool.pin(0)
        for page_id in range(1, 10):
            pool.get_page(page_id)
        pool.get_page(0)
        assert pool.stats.misses == 10  # page 0 missed only once

    def test_unpin_allows_eviction(self, pager):
        pool = BufferPool(pager, capacity=2)
        pool.pin(0)
        pool.unpin(0)
        for page_id in range(1, 5):
            pool.get_page(page_id)
        pool.get_page(0)
        assert pool.stats.misses == 6  # page 0 was evicted and re-read

    def test_all_pinned_overflow_tolerated(self, pager):
        pool = BufferPool(pager, capacity=2)
        pool.pin(0)
        pool.pin(1)
        data = pool.get_page(2)  # no evictable page; must still succeed
        assert data == bytes([2]) * 128


class TestReadSpan:
    def test_within_one_page(self, pager):
        pool = BufferPool(pager, capacity=4)
        assert read_span(pool, 130, 5) == bytes([1]) * 5

    def test_across_page_boundary(self, pager):
        pool = BufferPool(pager, capacity=4)
        data = read_span(pool, 120, 16)
        assert data == bytes([0]) * 8 + bytes([1]) * 8

    def test_many_pages(self, pager):
        pool = BufferPool(pager, capacity=8)
        data = read_span(pool, 0, 128 * 3)
        assert data == bytes([0]) * 128 + bytes([1]) * 128 + bytes([2]) * 128

    def test_negative_span_rejected(self, pager):
        pool = BufferPool(pager, capacity=4)
        with pytest.raises(PageError):
            read_span(pool, -1, 4)
        with pytest.raises(PageError):
            read_span(pool, 0, -4)

    def test_past_eof_rejected(self, pager):
        pool = BufferPool(pager, capacity=4)
        with pytest.raises(PageError):
            read_span(pool, 128 * 9, 200)


class TestClockPolicy:
    def test_invalid_policy_rejected(self, pager):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            BufferPool(pager, capacity=2, policy="mru")

    def test_contents_correct(self, pager):
        pool = BufferPool(pager, capacity=3, policy="clock")
        for page_id in [0, 1, 2, 3, 4, 0, 2, 4, 1]:
            assert pool.get_page(page_id) == bytes([page_id]) * 128

    def test_capacity_bounded(self, pager):
        pool = BufferPool(pager, capacity=3, policy="clock")
        for page_id in range(10):
            pool.get_page(page_id)
        assert pool.cached_pages() == 3

    def test_unreferenced_victim_chosen(self, pager):
        """After a sweep clears reference bits, the next eviction takes
        the page that was not touched since — second-chance semantics."""
        pool = BufferPool(pager, capacity=2, policy="clock")
        pool.get_page(0)
        pool.get_page(1)
        pool.get_page(2)  # full sweep clears 0 and 1, wraps, evicts 0
        # Resident: {1 (bit clear), 2 (bit set from insert)}.
        pool.get_page(3)  # hand finds 1 unreferenced -> evicts 1
        assert pool.get_page(2) == bytes([2]) * 128
        assert pool.stats.misses == 4  # pages 0,1,2,3 missed once; 2 stayed hot

    def test_pinned_pages_never_evicted(self, pager):
        pool = BufferPool(pager, capacity=2, policy="clock")
        pool.pin(0)
        for page_id in range(1, 8):
            pool.get_page(page_id)
        pool.get_page(0)
        assert pool.stats.misses == 8  # one miss per page; 0 stayed pinned

    def test_invalidate_resets_clock_state(self, pager):
        pool = BufferPool(pager, capacity=2, policy="clock")
        pool.get_page(0)
        pool.get_page(1)
        pool.invalidate()
        assert pool.cached_pages() == 0
        for page_id in range(5):
            pool.get_page(page_id)
        assert pool.cached_pages() == 2

    def test_invalidate_single_page(self, pager):
        pool = BufferPool(pager, capacity=4, policy="clock")
        pool.get_page(0)
        pool.get_page(1)
        pool.invalidate(0)
        assert pool.cached_pages() == 1
        pool.get_page(0)
        assert pool.stats.misses == 3

    def test_read_span_works_with_clock(self, pager):
        from repro.storage.buffer_pool import read_span

        pool = BufferPool(pager, capacity=2, policy="clock")
        data = read_span(pool, 120, 16)
        assert data == bytes([0]) * 8 + bytes([1]) * 8

    def test_hit_rate_comparable_to_lru_on_skewed_workload(self, pager):
        """On a Zipf-ish workload CLOCK approximates LRU's hit rate."""
        import numpy as np

        rng = np.random.default_rng(5)
        workload = rng.zipf(1.5, size=2000) % 10
        rates = {}
        for policy in ("lru", "clock"):
            pool = BufferPool(pager, capacity=4, policy=policy)
            for page_id in workload:
                pool.get_page(int(page_id))
            rates[policy] = pool.stats.hit_rate
        assert rates["clock"] > rates["lru"] - 0.10


class TestSharding:
    """Lock striping: shard selection, capacity split, concurrent use."""

    def _big_pager(self, tmp_path, pages=64):
        pager = FilePager(tmp_path / "big.pg", page_size=128, create=True)
        for page_id in range(pages):
            pager.write_page(page_id, bytes([page_id % 251]) * 128)
        return pager

    def test_small_pools_stay_single_shard(self, pager):
        # Historical exact-LRU semantics depend on one shard; small
        # capacities must not silently stripe.
        assert BufferPool(pager, capacity=16).num_shards == 1

    def test_large_pools_stripe_automatically(self, tmp_path):
        pager = self._big_pager(tmp_path)
        try:
            assert BufferPool(pager, capacity=64).num_shards > 1
        finally:
            pager.close()

    def test_explicit_shard_count(self, tmp_path):
        pager = self._big_pager(tmp_path)
        try:
            pool = BufferPool(pager, capacity=64, shards=4)
            assert pool.num_shards == 4
            with pytest.raises(ConfigurationError):
                BufferPool(pager, capacity=4, shards=8)
            with pytest.raises(ConfigurationError):
                BufferPool(pager, capacity=4, shards=0)
        finally:
            pager.close()

    def test_shard_capacities_sum_to_total(self, tmp_path):
        pager = self._big_pager(tmp_path)
        try:
            pool = BufferPool(pager, capacity=63, shards=4)
            assert sum(s.capacity for s in pool._shards) == 63
            for page_id in range(64):
                pool.get_page(page_id)
            assert pool.cached_pages() <= 63
        finally:
            pager.close()

    def test_sharded_pool_serves_correct_bytes(self, tmp_path):
        pager = self._big_pager(tmp_path)
        try:
            pool = BufferPool(pager, capacity=64, shards=4)
            for page_id in (0, 1, 4, 5, 63, 17):
                assert pool.get_page(page_id) == bytes([page_id % 251]) * 128
                # Second access is a hit with the same bytes.
                assert pool.get_page(page_id) == bytes([page_id % 251]) * 128
        finally:
            pager.close()

    def test_concurrent_readers_agree(self, tmp_path):
        import threading

        pager = self._big_pager(tmp_path)
        try:
            pool = BufferPool(pager, capacity=32, shards=4)
            barrier = threading.Barrier(8)
            errors = []

            def body(seed):
                import random

                rng = random.Random(seed)
                barrier.wait()
                for _ in range(300):
                    page_id = rng.randrange(64)
                    got = pool.get_page(page_id)
                    if got != bytes([page_id % 251]) * 128:
                        errors.append(page_id)

            threads = [
                threading.Thread(target=body, args=(seed,)) for seed in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert pool.cached_pages() <= 32
            stats = pool.stats
            assert stats.hits + stats.misses == 8 * 300
        finally:
            pager.close()
