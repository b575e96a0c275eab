"""Tests for reduced-precision (float32) model storage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressedMatrix, SVDDCompressor, build_compressed
from repro.exceptions import FormatError
from repro.metrics import rmspe


@pytest.fixture(scope="module")
def data():
    from repro.data import phone_matrix

    return phone_matrix(200)


#: Budget high enough to buy several components and many deltas.
BUDGET = 0.40


@pytest.fixture(scope="module")
def half_compressor():
    return SVDDCompressor(BUDGET, bytes_per_value=4, raw_bytes_per_value=8)


class TestFloat32Storage:
    def test_roundtrip(self, tmp_path, data):
        store = build_compressed(data, tmp_path / "m32", BUDGET, bytes_per_value=4)
        assert store.bytes_per_value == 4
        reopened = CompressedMatrix.open(tmp_path / "m32")
        assert reopened.bytes_per_value == 4
        reopened.close()
        store.close()

    def test_quantization_noise_is_tiny(self, tmp_path, data, half_compressor):
        """One model at two precisions: the b=4 compressor's in-memory
        fit (float64) and its build (float32 on disk) share k and the
        deltas, so they differ by the quantization alone."""
        full = half_compressor.fit(data)
        half = build_compressed(data, tmp_path / "m32", compressor=half_compressor)
        assert (half.bytes_per_value, half.cutoff) == (4, full.cutoff)
        assert half.num_deltas == full.num_deltas
        err_full = rmspe(data, full.reconstruct())
        err_half = rmspe(data, half.reconstruct_all())
        # float32 adds ~1e-7 relative noise; invisible next to the
        # truncation error itself.
        assert err_half == pytest.approx(err_full, rel=1e-3)
        half.close()

    def test_on_disk_u_is_half_the_size(self, tmp_path, data):
        full = build_compressed(data, tmp_path / "m64", BUDGET)
        # The same k at b=4: the float32 U rows halve.
        capped = SVDDCompressor(BUDGET, k_max=full.cutoff, bytes_per_value=4)
        half = build_compressed(data, tmp_path / "m32", compressor=capped)
        assert half.cutoff == full.cutoff
        size_full = (tmp_path / "m64" / "u.mat").stat().st_size
        size_half = (tmp_path / "m32" / "u.mat").stat().st_size
        assert size_half < size_full * 0.6
        full.close()
        half.close()

    def test_space_accounting_uses_b(self, tmp_path, data):
        full = build_compressed(data, tmp_path / "m64", BUDGET)
        capped = SVDDCompressor(BUDGET, k_max=full.cutoff, bytes_per_value=4)
        half = build_compressed(data, tmp_path / "m32", compressor=capped)
        # Same k: the SVD part's bytes halve, and each delta drops from
        # 10 bytes (2-byte column + float64) to 6 (2-byte column +
        # float32); the row starts cost both the same — the accounting
        # follows the disk.
        from repro.core import space

        rows, cols = full.shape
        assert half.cutoff == full.cutoff and half.num_deltas > 0
        svd_diff = space.svd_space_bytes(rows, cols, full.cutoff, 8) - (
            space.svd_space_bytes(rows, cols, full.cutoff, 4)
        )
        delta_diff = full.num_deltas * space.delta_record_bytes(8) - (
            half.num_deltas * space.delta_record_bytes(4)
        )
        assert full.space_bytes() - half.space_bytes() == svd_diff + delta_diff
        full.close()
        half.close()

    def test_delta_file_on_disk_matches_accounting(self, tmp_path, data):
        """Eq. 9's delta term equals the actual deltas.bin payload size."""
        from repro.core import space
        from repro.storage.delta_file import DeltaFile

        rows, cols = data.shape
        for b, name in ((4, "m32"), (8, "m64")):
            store = build_compressed(data, tmp_path / name, BUDGET, bytes_per_value=b)
            k, count = store.cutoff, store.num_deltas
            on_disk = (tmp_path / name / "deltas.bin").stat().st_size
            assert on_disk == DeltaFile.size_bytes(count, rows, b)
            # size_bytes = header + row starts + deltas; the accounting
            # charges the row starts and the deltas, so the two agree up
            # to the fixed header.
            table = space.svdd_space_bytes(rows, cols, k, count, b) - space.svd_space_bytes(
                rows, cols, k, b
            )
            assert table == space.row_table_bytes(rows) + count * space.delta_record_bytes(b)
            header = DeltaFile.size_bytes(0, rows, b) - space.row_table_bytes(rows)
            assert on_disk - header == table
            store.close()

    def test_one_disk_access_preserved(self, tmp_path, data):
        store = build_compressed(data, tmp_path / "m32", BUDGET, bytes_per_value=4)
        assert store._u_store.pages_per_row() == 1
        store.close()

    def test_invalid_precision_rejected(self, tmp_path, data):
        with pytest.raises(FormatError):
            build_compressed(data, tmp_path / "bad", BUDGET, bytes_per_value=2)


class TestPrecisionVsComponentsTradeoff:
    def test_halving_b_doubles_affordable_k(self, data):
        """The end-to-end win: at the same byte budget, b=4 admits about
        twice the principal components, and the extra components beat
        the float32 quantization noise by orders of magnitude."""
        budget = 0.05
        model_b8 = SVDDCompressor(budget_fraction=budget, bytes_per_value=8).fit(data)
        model_b4 = SVDDCompressor(
            budget_fraction=budget, bytes_per_value=4, raw_bytes_per_value=8
        ).fit(data)
        assert model_b4.k_max >= model_b8.k_max * 1.8

    def test_paper_accounting_is_b_invariant(self, data):
        """Without a separate raw size, the fraction budget cancels b —
        the paper's accounting (data and model share the same 'b')."""
        budget = 0.05
        model_b8 = SVDDCompressor(budget_fraction=budget, bytes_per_value=8).fit(data)
        model_b4 = SVDDCompressor(budget_fraction=budget, bytes_per_value=4).fit(data)
        assert model_b4.k_max == model_b8.k_max
