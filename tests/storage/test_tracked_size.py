"""The pager's tracked file size.

A :class:`FilePager` reads its file's size once, at open, and its own
writes move it.  ``num_pages`` and ``read_page``'s range check read that
size, so a pooled cell probe makes no ``fstat``, while every page the
pager wrote is readable at once and a read past the end is still a
:class:`PageError`.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.data.phone import PhoneConfig, phone_matrix
from repro.exceptions import PageError
from repro.query.engine import QueryEngine
from repro.storage import FilePager, faults
from repro.storage.faults import FaultPlan


@pytest.fixture()
def fstat_calls(monkeypatch):
    """Every ``os.fstat`` from here on, by file descriptor."""
    calls = []
    real = os.fstat

    def counted(fd, *args, **kwargs):
        calls.append(fd)
        return real(fd, *args, **kwargs)

    monkeypatch.setattr(os, "fstat", counted)
    return calls


class TestPooledProbe:
    def test_a_probe_loop_calls_fstat_zero_times(self, tmp_path, fstat_calls):
        # The harness's model in small: phone data at a 10% budget, 8-byte
        # values, one U row a page, a 64-page pool against more rows.
        raw = phone_matrix(400, PhoneConfig(num_days=128))
        build_compressed(
            raw, tmp_path / "m", budget_fraction=0.10, bytes_per_value=8, jobs=1
        ).close()
        with CompressedMatrix.open(tmp_path / "m", 64) as store:
            rows, cols = store.shape
            assert store.u_store.page_size == store.cutoff * 8
            engine = QueryEngine(store)
            rng = np.random.default_rng(1997)
            probes = zip(
                (rng.zipf(1.3, 5_000) % rows).tolist(),
                rng.integers(0, cols, 5_000).tolist(),
            )
            pool, io = store.u_pool_stats, store.u_io_stats
            pool.reset()
            reads_before = io.reads
            fstat_calls.clear()  # the open's
            for probe in probes:
                engine.cell(probe)
            assert fstat_calls == []
            assert pool.misses > 0 and pool.evictions > 0
            assert io.reads - reads_before == pool.misses


class TestPagesItWrote:
    def test_written_and_appended_pages_read_at_once(self, tmp_path, fstat_calls):
        with FilePager(tmp_path / "p.pg", page_size=16, create=True) as pager:
            assert pager.num_pages() == 0
            pager.write_page(0, b"a" * 16)
            assert pager.read_page(0) == b"a" * 16
            pager.append_raw(b"b" * 20)  # one page and a quarter
            assert pager.num_pages() == 3
            assert pager.read_page(1) == b"b" * 16
            assert pager.read_page(2) == b"b" * 4 + bytes(12)
            pager.write_page(2, b"c" * 16)  # over the short tail page
            pager.write_page(3, b"d")
            assert pager.num_pages() == 4
            assert pager.read_page(2) == b"c" * 16
            assert pager.read_page(3) == b"d" + bytes(15)
        # The first fstat is the open's; writes and reads make none.
        assert len(fstat_calls) == 1

    def test_a_reopened_pager_reads_the_size_once(self, tmp_path, fstat_calls):
        path = tmp_path / "p.pg"
        with FilePager(path, page_size=16, create=True) as pager:
            pager.append_raw(b"x" * 40)
        with FilePager(path, page_size=16) as pager:
            assert pager.num_pages() == 3
            assert pager.read_page(2) == b"x" * 8 + bytes(8)
        assert len(fstat_calls) == 2  # each open's one
        assert os.path.getsize(path) == 40

    def test_a_torn_write_counts_the_bytes_that_landed(self, tmp_path):
        path = tmp_path / "p.pg"
        with FilePager(path, page_size=16, create=True) as pager:
            pager.write_page(0, b"a" * 16)
            with faults.inject(FaultPlan(fail_write_at=1, torn_bytes=5)):
                with pytest.raises(OSError):
                    pager.append_raw(b"b" * 32)
            assert pager.num_pages() == 2
            assert pager.read_page(1) == b"b" * 5 + bytes(11)
            pager.append_raw(b"c" * 3)  # appends after the torn bytes
        assert path.read_bytes() == b"a" * 16 + b"b" * 5 + b"c" * 3


class TestReadPastTheEnd:
    def test_read_page_num_pages_raises(self, tmp_path, fstat_calls):
        with FilePager(tmp_path / "p.pg", page_size=16, create=True) as pager:
            for pages in range(2):
                with pytest.raises(PageError, match=r"out of range \[0, %d\)" % pages):
                    pager.read_page(pager.num_pages())
                pager.append_raw(b"z" * 10)
            with pytest.raises(PageError):
                pager.read_page(-1)
            assert pager.stats.reads == 0
        assert len(fstat_calls) == 1
