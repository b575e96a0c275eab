"""Tests for the file pager."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, PageError, StoreClosedError
from repro.storage import FilePager


@pytest.fixture()
def pager(tmp_path):
    with FilePager(tmp_path / "data.pg", page_size=128, create=True) as pager:
        yield pager


class TestLifecycle:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PageError):
            FilePager(tmp_path / "nope.pg")

    def test_tiny_page_size_rejected(self, tmp_path):
        # The smallest page holds one float32: a U row of one component.
        with pytest.raises(ConfigurationError):
            FilePager(tmp_path / "x.pg", page_size=3, create=True)
        FilePager(tmp_path / "x.pg", page_size=4, create=True).close()

    def test_operations_after_close(self, tmp_path):
        pager = FilePager(tmp_path / "x.pg", page_size=128, create=True)
        pager.close()
        with pytest.raises(StoreClosedError):
            pager.read_page(0)
        with pytest.raises(StoreClosedError):
            pager.write_page(0, b"x")

    def test_close_is_idempotent(self, tmp_path):
        pager = FilePager(tmp_path / "x.pg", page_size=128, create=True)
        pager.close()
        pager.close()


class TestPageIO:
    def test_roundtrip(self, pager):
        pager.write_page(0, b"hello")
        data = pager.read_page(0)
        assert data[:5] == b"hello"
        assert len(data) == 128

    def test_write_pads_to_page_size(self, pager):
        pager.write_page(0, b"ab")
        assert pager.num_pages() == 1
        assert pager.read_page(0)[2:] == b"\x00" * 126

    def test_sequential_growth(self, pager):
        pager.write_page(0, b"a")
        pager.write_page(1, b"b")
        assert pager.num_pages() == 2

    def test_write_beyond_end_rejected(self, pager):
        with pytest.raises(PageError):
            pager.write_page(5, b"x")

    def test_read_out_of_range(self, pager):
        pager.write_page(0, b"a")
        with pytest.raises(PageError):
            pager.read_page(1)
        with pytest.raises(PageError):
            pager.read_page(-1)

    def test_oversized_payload_rejected(self, pager):
        with pytest.raises(PageError):
            pager.write_page(0, b"x" * 129)

    def test_short_final_page_zero_padded(self, pager):
        pager.append_raw(b"z" * 100)  # not a multiple of the page size
        page = pager.read_page(0)
        assert page[:100] == b"z" * 100
        assert page[100:] == b"\x00" * 28


class TestStats:
    def test_counters_accumulate(self, pager):
        pager.write_page(0, b"a" * 128)
        pager.read_page(0)
        pager.read_page(0)
        assert pager.stats.writes == 1
        assert pager.stats.reads == 2
        assert pager.stats.bytes_read == 256

    def test_reset(self, pager):
        pager.write_page(0, b"a")
        pager.stats.reset()
        assert pager.stats.writes == 0
        assert pager.stats.bytes_written == 0

    def test_snapshot_is_independent(self, pager):
        pager.write_page(0, b"a")
        snap = pager.stats.snapshot()
        pager.write_page(1, b"b")
        assert snap.writes == 1
        assert pager.stats.writes == 2
