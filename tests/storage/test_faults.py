"""Chaos suite: scripted I/O faults against the real storage stack.

Every injected failure must end in one of exactly three outcomes —
retry to success, a typed :class:`ReproError`, or a degraded open —
and never in silently wrong bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.exceptions import ReproError, RetryExhaustedError
from repro.obs.registry import registry
from repro.storage import BufferPool, FilePager, MatrixStore
from repro.storage import faults
from repro.storage.atomic import STAGING_SUFFIX
from repro.storage.faults import FaultPlan


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """Injection must never leak across tests."""
    yield
    faults.clear()


def _paged_file(tmp_path, pages=8, page_size=256):
    path = tmp_path / "data.pg"
    with FilePager(path, page_size=page_size, create=True) as pager:
        for page_id in range(pages):
            pager.write_page(page_id, bytes([page_id + 1]) * page_size)
    return path


class TestReadFaults:
    def test_off_by_default(self, tmp_path):
        assert faults.plan_for(tmp_path / "x") is None

    def test_transient_eio_is_retried_to_success(self, tmp_path):
        path = _paged_file(tmp_path)
        with FilePager(path, page_size=256) as pager:
            with faults.inject(FaultPlan(fail_read_at=1, fail_reads=1)) as plan:
                data = pager.read_page(3)
            assert data == bytes([4]) * 256
            assert pager.stats.retries == 1
            assert plan.injected == 1

    def test_retries_counted_in_registry(self, tmp_path):
        path = _paged_file(tmp_path)
        before = registry.counter("pager.retries").value
        with FilePager(path, page_size=256) as pager:
            with faults.inject(FaultPlan(fail_read_at=1, fail_reads=2)):
                pager.read_page(0)
            assert pager.stats.retries == 2
        assert registry.counter("pager.retries").value == before + 2

    def test_persistent_eio_raises_typed_error(self, tmp_path):
        path = _paged_file(tmp_path)
        with FilePager(path, page_size=256) as pager:
            with faults.inject(FaultPlan(fail_read_at=1, fail_reads=100)):
                with pytest.raises(RetryExhaustedError):
                    pager.read_page(0)
            # The pager survives: the next (healthy) read works.
            assert pager.read_page(0) == bytes([1]) * 256

    def test_retry_exhausted_is_a_repro_error(self):
        assert issubclass(RetryExhaustedError, ReproError)
        assert issubclass(RetryExhaustedError, OSError)

    def test_short_read_is_resumed_not_padded(self, tmp_path):
        """A mid-file short read must yield the true bytes, never a
        zero-padded gap."""
        path = _paged_file(tmp_path)
        with FilePager(path, page_size=256) as pager:
            with faults.inject(FaultPlan(short_read_at=1)) as plan:
                data = pager.read_page(5)
            assert plan.injected == 1
            assert data == bytes([6]) * 256

    def test_short_read_in_multi_page_row(self, tmp_path, rng):
        """The cell path's row read spans several pages; a short read on
        one of them must not leak zero padding into the row."""
        data = rng.standard_normal((6, 40))  # 320-byte rows, 64-byte pages
        with MatrixStore.create(tmp_path / "m.mat", data, page_size=64) as store:
            with faults.inject(FaultPlan(short_read_at=2)) as plan:
                row = store.row(4)
            assert plan.injected == 1
            assert np.array_equal(row, data[4])

    def test_fault_through_buffer_pool_is_transparent(self, tmp_path):
        path = _paged_file(tmp_path)
        with FilePager(path, page_size=256) as pager:
            pool = BufferPool(pager, capacity=4)
            with faults.inject(FaultPlan(fail_read_at=1, fail_reads=1)):
                assert pool.get_page(2) == bytes([3]) * 256
            assert pager.stats.retries == 1
            # Cached copy serves later hits without touching the disk.
            assert pool.get_page(2) == bytes([3]) * 256

    def test_path_filter_spares_other_files(self, tmp_path):
        healthy = _paged_file(tmp_path)
        with FilePager(healthy, page_size=256) as pager:
            with faults.inject(
                FaultPlan(path_substring="nonexistent", fail_read_at=1, fail_reads=100)
            ) as plan:
                assert pager.read_page(0) == bytes([1]) * 256
            assert plan.injected == 0
            assert pager.stats.retries == 0


class TestWriteFaults:
    def test_torn_create_leaves_no_file(self, tmp_path, rng):
        """A write failure mid-create must not leave a store behind."""
        path = tmp_path / "torn.mat"
        with faults.inject(FaultPlan(fail_write_at=2)):
            with pytest.raises(OSError):
                MatrixStore.create(path, rng.random((40, 8)))
        assert not path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_torn_create_preserves_previous_file(self, tmp_path, rng):
        path = tmp_path / "m.mat"
        original = rng.random((10, 4))
        MatrixStore.create(path, original).close()
        with faults.inject(FaultPlan(fail_write_at=2)):
            with pytest.raises(OSError):
                MatrixStore.create(path, rng.random((10, 4)))
        with MatrixStore.open(path) as store:
            np.testing.assert_allclose(store.read_all(), original)

    def test_torn_save_preserves_previous_model(self, tmp_path, rng):
        """A torn write mid-build leaves the committed model untouched."""
        data = rng.random((60, 12)) * 10
        data[3, 7] += 300.0
        directory = tmp_path / "m"
        with build_compressed(data, directory, 0.20) as store:
            committed = store.reconstruct_all()
        with faults.inject(FaultPlan(path_substring="u.mat", fail_write_at=2)):
            with pytest.raises(OSError):
                build_compressed(data * 2.0, directory, 0.20)
        assert not directory.with_name(directory.name + STAGING_SUFFIX).exists()
        with CompressedMatrix.open(directory) as store:
            assert not store.degraded
            np.testing.assert_array_equal(store.reconstruct_all(), committed)

    def test_torn_save_to_fresh_directory_leaves_nothing(self, tmp_path, rng):
        data = rng.random((40, 8))
        directory = tmp_path / "fresh"
        with faults.inject(FaultPlan(path_substring="u.mat", fail_write_at=2)):
            with pytest.raises(OSError):
                build_compressed(data, directory, 0.30)
        assert not directory.exists()
        assert not directory.with_name(directory.name + STAGING_SUFFIX).exists()


class TestRetryBackoff:
    def test_each_retry_observes_backoff_histogram(self, tmp_path):
        path = _paged_file(tmp_path)
        histogram = registry.histogram("pager.retry_backoff_ns")
        before = histogram.count
        with FilePager(path, page_size=256) as pager:
            with faults.inject(FaultPlan(fail_read_at=1, fail_reads=2)):
                pager.read_page(0)
        assert histogram.count == before + 2
        # Backoff sleeps are nanoseconds within the configured bounds.
        assert histogram.maximum <= FilePager._RETRY_MAX_SLEEP_S * 1e9

    def test_sleeps_stay_within_jitter_bounds(self, tmp_path, monkeypatch):
        """Every decorrelated-jitter draw lands in [base, max_sleep],
        and the first is at most 3x base."""
        import time as time_module

        path = _paged_file(tmp_path)
        sleeps: list[float] = []
        monkeypatch.setattr(time_module, "sleep", sleeps.append)
        with FilePager(path, page_size=256) as pager:
            with faults.inject(FaultPlan(fail_read_at=1, fail_reads=3)):
                assert pager.read_page(0) == bytes([1]) * 256
        assert len(sleeps) == 3
        for delay in sleeps:
            assert FilePager._RETRY_BASE_DELAY <= delay
            assert delay <= FilePager._RETRY_MAX_SLEEP_S
        assert sleeps[0] <= 3.0 * FilePager._RETRY_BASE_DELAY

    def test_elapsed_cap_bounds_the_backoff_ladder(self, tmp_path, monkeypatch):
        """Even with attempts to spare, a read stops retrying once the
        total-elapsed budget is spent — serving callers are never stuck
        behind an unbounded ladder."""
        path = _paged_file(tmp_path)
        monkeypatch.setattr(FilePager, "_RETRY_ATTEMPTS", 10**6)
        monkeypatch.setattr(FilePager, "_RETRY_MAX_ELAPSED_S", -1.0)
        with FilePager(path, page_size=256) as pager:
            with faults.inject(FaultPlan(fail_read_at=1, fail_reads=10**6)):
                with pytest.raises(RetryExhaustedError) as excinfo:
                    pager.read_page(0)
        assert "cap" in str(excinfo.value)


class TestPlanAccounting:
    def test_counters_track_attempts(self, tmp_path):
        path = _paged_file(tmp_path)
        with FilePager(path, page_size=256) as pager:
            with faults.inject(FaultPlan()) as plan:
                pager.read_page(0)
                pager.read_page(1)
                pager.write_page(0, b"x" * 256)
            assert plan.reads_seen == 2
            assert plan.writes_seen == 1
            assert plan.injected == 0

    def test_inject_clears_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with faults.inject(FaultPlan(fail_read_at=1)):
                raise RuntimeError("boom")
        assert faults.plan_for(tmp_path / "anything") is None
