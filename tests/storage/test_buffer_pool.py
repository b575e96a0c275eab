"""Tests for the LRU buffer pool."""

from __future__ import annotations

import random
import sys
import threading

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


@pytest.fixture()
def big_pager(tmp_path):
    with FilePager(tmp_path / "big.pg", page_size=128, create=True) as pager:
        for page_id in range(200):
            pager.write_page(page_id, bytes([page_id]) * 128)
        yield pager


def _run_threads(bodies):
    """Run each callable on its own thread under a shortened switch
    interval; a body that raises or hangs fails the test."""
    errors = []

    def guarded(body):
        try:
            body()
        except Exception as error:  # reported below, on the test's thread
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(body,)) for body in bodies]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


def _reader(pool, seed, pages, barrier, reads=2000):
    """A thread body: ``reads`` seeded random pages out of the first
    ``pages``, each checked against what ``big_pager`` wrote."""

    def body():
        rng = random.Random(seed)
        barrier.wait(timeout=30)
        for _ in range(reads):
            page_id = rng.randrange(pages)
            assert pool.get_page(page_id) == bytes([page_id]) * 128

    return body


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

    def test_eviction_is_global_lru_at_default_capacity(self, big_pager):
        # One recency order over all 64 pages: whichever page was used
        # longest ago goes, wherever its id falls.
        pool = BufferPool(big_pager, capacity=64)
        for page_id in range(64):
            pool.get_page(page_id)
        pool.get_page(0)  # refresh 0; 1 is now the least recent of 64
        pool.get_page(64)
        assert pool.stats.evictions == 1
        hits = pool.stats.hits
        pool.get_page(0)
        assert pool.stats.hits == hits + 1  # 0 stayed resident
        pool.get_page(1)
        assert pool.stats.hits == hits + 1  # 1 was the victim
        assert pool.cached_pages() == 64

    def test_concurrent_readers_agree(self, big_pager):
        pool = BufferPool(big_pager, capacity=32)
        barrier = threading.Barrier(8)
        _run_threads([_reader(pool, seed, 200, barrier) for seed in range(8)])
        assert pool.stats.hits + pool.stats.misses == 16_000
        assert pool.cached_pages() <= 32

    def test_racing_double_miss_caches_one_copy(self, pager):
        # Both readers are inside the pager's read before either caches
        # the page: two misses, one resident copy, nothing evicted.
        both_reading = threading.Barrier(2)

        class MeetInRead:
            path = pager.path

            def read_page(self, page_id):
                both_reading.wait(timeout=30)
                return pager.read_page(page_id)

        pool = BufferPool(MeetInRead(), capacity=1)
        got = []
        _run_threads([lambda: got.append(pool.get_page(5))] * 2)
        assert got == [bytes([5]) * 128] * 2
        assert (pool.stats.misses, pool.stats.hits) == (2, 0)
        assert pool.stats.evictions == 0
        assert pool.cached_pages() == 1

    def test_invalidate_during_reads(self, big_pager):
        pool = BufferPool(big_pager, capacity=16)
        barrier = threading.Barrier(5)

        def invalidator():
            rng = random.Random(99)
            barrier.wait(timeout=30)
            for _ in range(2000):
                pool.invalidate(rng.choice([None, rng.randrange(40)]))

        readers = [_reader(pool, seed, 40, barrier) for seed in range(4)]
        _run_threads(readers + [invalidator])
        assert pool.stats.hits + pool.stats.misses == 8_000
        assert pool.cached_pages() <= 16


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


class TestReadSpan:
    def test_within_one_page(self, pager):
        pool = BufferPool(pager, capacity=4)
        assert read_span(pool, 130, 5) == bytes([1]) * 5

    def test_whole_page_is_the_page_read(self, pager):
        pool = BufferPool(pager, capacity=4)
        data = read_span(pool, 128 * 3, 128)
        assert type(data) is bytes and data == pager.read_page(3)
        assert read_span(pool, 128 * 3, 128) == pager.read_page(3)
        assert (pool.stats.misses, pool.stats.hits) == (1, 1)

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
