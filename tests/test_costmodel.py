"""Tests for the storage-tier cost model."""

from __future__ import annotations

import pytest

from repro.lab.costmodel import (
    DISK,
    MEMORY,
    TAPE,
    PhysicalDesign,
    StorageTier,
    gzip_design,
    raw_design,
    svdd_design,
)
from repro.exceptions import ConfigurationError


class TestStorageTier:
    def test_access_latency_formula(self):
        tier = StorageTier("t", seek_ms=10.0, mb_per_s=100.0)
        # 1 MB at 100 MB/s = 10 ms transfer + 10 ms seek.
        assert tier.access_ms(1_000_000) == pytest.approx(20.0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            StorageTier("t", seek_ms=-1.0, mb_per_s=10.0)
        with pytest.raises(ConfigurationError):
            StorageTier("t", seek_ms=1.0, mb_per_s=0.0)

    def test_tier_ordering(self):
        """Memory << disk << tape for a small random access."""
        block = 4096
        assert MEMORY.access_ms(block) < DISK.access_ms(block) < TAPE.access_ms(block)


class TestDesigns:
    N, M = 100_000, 366  # the paper's phone100K

    def test_tape_cell_query_is_next_to_impossible(self):
        """The paper's opening claim, in numbers: minutes per cell."""
        design = raw_design(self.N, self.M, TAPE)
        assert design.cell_query_ms() > 60_000  # over a minute

    def test_disk_cell_query_is_milliseconds(self):
        design = raw_design(self.N, self.M, DISK)
        assert design.cell_query_ms() < 50

    def test_gzip_wholesale_penalty(self):
        """Even on disk, monolithic compression pays a full scan per query."""
        gzip = gzip_design(self.N, self.M, DISK)
        raw = raw_design(self.N, self.M, DISK)
        assert gzip.cell_query_ms() > 100 * raw.cell_query_ms()

    def test_svdd_matches_raw_disk_latency_at_fraction_of_space(self):
        """The paper's pitch: ~1 access like raw, ~10x less space."""
        raw = raw_design(self.N, self.M, DISK)
        svdd = svdd_design(self.N, self.M, cutoff=35, num_deltas=100_000, tier=DISK)
        assert svdd.cell_query_ms() == pytest.approx(raw.cell_query_ms(), rel=0.2)
        assert svdd.total_bytes < raw.total_bytes / 8

    def test_svdd_fits_in_memory_when_raw_does_not(self):
        """The enabling move: 10:1 compression can turn a disk-resident
        dataset into a memory-resident one."""
        svdd = svdd_design(self.N, self.M, cutoff=35, num_deltas=100_000, tier=MEMORY)
        raw = raw_design(self.N, self.M, DISK)
        assert svdd.cell_query_ms() < raw.cell_query_ms() / 1000

    def test_aggregate_scales_with_rows_touched(self):
        design = raw_design(self.N, self.M, DISK)
        assert design.aggregate_query_ms(1000) == pytest.approx(
            1000 * DISK.access_ms(self.M * 8)
        )

    def test_invalid_gzip_ratio(self):
        with pytest.raises(ConfigurationError):
            gzip_design(10, 10, DISK, ratio=0.0)

    def test_wholesale_design_ignores_cell_bytes(self):
        design = PhysicalDesign(
            "x", DISK, total_bytes=10**9, cell_access_bytes=8, wholesale=True
        )
        assert design.cell_query_ms() == pytest.approx(DISK.access_ms(10**9))
