"""Tests for the constant-memory build pipeline."""

from __future__ import annotations

import io
import json
import tracemalloc

import numpy as np
import pytest

from repro.core import CompressedMatrix, SVDDCompressor
from repro.core.build import build_compressed, estimate_build_memory
from repro.core.svd import _CHUNK_ROWS
from repro.data import PhoneConfig, phone_matrix
from repro.exceptions import FormatError, ShapeError
from repro.obs import set_log_stream
from repro.storage import MatrixStore


@pytest.fixture(scope="module")
def data():
    return phone_matrix(200)


class TestBuildCompressed:
    def test_from_disk_source_with_pass_counting(self, tmp_path, data):
        source = MatrixStore.create(tmp_path / "x.mat", data)
        store = build_compressed(source, tmp_path / "model", 0.10)
        # gram + error pass + U pass = the paper's 3 sequential scans; the
        # zero-row flags ride on the error pass.
        assert source.pass_count == 3
        assert store.shape == data.shape
        store.close()
        source.close()

    def test_store_and_ndarray_sources_build_the_same_bytes(self, tmp_path):
        """A streamed store and an in-memory array are chunked alike."""
        x = phone_matrix(300)  # one 256-row store block and a 44-row tail
        x[17] = 0.0
        with MatrixStore.create(tmp_path / "x.mat", x) as source:
            build_compressed(source, tmp_path / "from_store", 0.10).close()
        build_compressed(x, tmp_path / "from_array", 0.10).close()
        names = sorted(f.name for f in (tmp_path / "from_array").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "from_store").iterdir())
        for name in names:
            assert (tmp_path / "from_store" / name).read_bytes() == (
                tmp_path / "from_array" / name
            ).read_bytes(), name

    def test_a_matrix_wider_than_a_uint16_column_is_refused(self, tmp_path):
        """Refused before pass 1, whose Gram would be 65,536 x 65,536."""
        with pytest.raises(FormatError, match="65535 columns"):
            build_compressed(np.ones((2, 65_536)), tmp_path / "wide", 0.5)
        assert not (tmp_path / "wide").exists()

    def test_reopenable(self, tmp_path, data):
        build_compressed(data, tmp_path / "model", 0.10).close()
        store = CompressedMatrix.open(tmp_path / "model")
        assert store.shape == (200, 366)
        assert np.isfinite(store.cell(10, 10))
        store.close()

    def test_zero_rows_flagged(self, tmp_path):
        x = phone_matrix(150).copy()
        x[42] = 0.0
        store = build_compressed(x, tmp_path / "model", 0.15)
        assert store.num_zero_rows >= 1
        assert store.cell(42, 5) == 0.0
        store.close()

    def test_float32_build(self, tmp_path, data):
        store = build_compressed(data, tmp_path / "m32", 0.10, bytes_per_value=4)
        assert store.bytes_per_value == 4
        assert store._u_store.dtype == np.float32
        assert store._u_store.pages_per_row() == 1
        store.close()

    def test_one_row_per_page(self, tmp_path, data):
        store = build_compressed(data, tmp_path / "model", 0.10)
        assert store._u_store.pages_per_row() == 1
        store.close()

    def test_invalid_precision(self, tmp_path, data):
        with pytest.raises(FormatError):
            build_compressed(data, tmp_path / "bad", 0.10, bytes_per_value=2)

    def test_custom_compressor(self, tmp_path, data):
        fitter = SVDDCompressor(budget_fraction=0.05, k_max=2)
        store = build_compressed(data, tmp_path / "model", compressor=fitter)
        assert store.cutoff <= 2
        store.close()

    def test_space_within_budget(self, tmp_path, data):
        store = build_compressed(data, tmp_path / "model", 0.10)
        assert store.space_bytes() <= 0.10 * data.size * 8 + 1e-9
        store.close()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["build_compressed", "fit"])
    def test_non_finite_source_refused(self, tmp_path, data, entry, bad):
        """A NaN or inf in the source reaches the Gram, whose solve
        refuses it by type; no model directory is left behind."""
        x = data.copy()
        x[7, 11] = bad
        with pytest.raises(ShapeError):
            if entry == "fit":
                SVDDCompressor(budget_fraction=0.10).fit(x)
            else:
                build_compressed(x, tmp_path / "model", 0.10)
        assert list(tmp_path.iterdir()) == []


class TestPassTwoReport:
    def test_admits_a_few_times_what_it_keeps(self, tmp_path, enabled_registry):
        rows, cols = 2000, 366
        stream = io.StringIO()
        set_log_stream(stream)
        try:
            build_compressed(phone_matrix(rows), tmp_path / "model", 0.10).close()
        finally:
            set_log_stream(None)
        fitter = SVDDCompressor(0.10)
        kept = sum(
            fitter._gamma(rows, cols, k)
            for k in range(1, fitter.candidate_cutoffs(rows, cols) + 1)
        )
        admitted = enabled_registry.gauge("build.pass2.admitted").value
        assert kept <= admitted <= 3 * kept  # unfloored queues admit 6.89x
        assert enabled_registry.gauge("build.pass2.short_queues").value == 0
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        (pass2,) = [e for e in events if e["event"] == "build.pass" and e["number"] == 2]
        assert (pass2["admitted"], pass2["short_queues"]) == (admitted, 0)


class TestMemoryEstimate:
    def test_dominated_by_gram_for_wide_matrices(self):
        estimate = estimate_build_memory(2000, 0.01, 10_000)
        assert estimate >= 2000 * 2000 * 8

    def test_selection_peak_flat_in_n(self):
        """Passes 1-2 hold the M x M arrays, a chunk and one histogram
        per candidate, none of which grows with N: four times the rows
        stay under 1.25 times the peak."""
        peaks = []
        for rows in (2000, 8000):
            x = phone_matrix(rows, PhoneConfig(num_days=366))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                SVDDCompressor(budget_fraction=0.10).select_cutoff(x)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks

    @pytest.mark.parametrize("rows, cols", [(2000, 366), (500, 1098)])
    def test_within_half_again_of_the_measured_peak(self, rows, cols):
        x = phone_matrix(rows, PhoneConfig(num_days=cols))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            SVDDCompressor(budget_fraction=0.10).select_cutoff(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        estimate = estimate_build_memory(cols, 0.10, rows)
        assert peak / 1.5 <= estimate <= peak * 1.5

    def test_pass_two_keeps_scores_not_cells(self):
        """Pass 2's queues cost 10 bytes per unit of capacity (8-byte
        scores, 1.25 slots each): the peak stays under 12 bytes a unit
        beside pass 1's four M x M arrays and four chunk arrays, where
        ``(key, delta)`` pairs in twice the slots cost 32."""
        rows, cols = 2000, 366
        x = phone_matrix(rows, PhoneConfig(num_days=cols))
        fitter = SVDDCompressor(budget_fraction=0.10)
        capacity = sum(
            fitter._gamma(rows, cols, k)
            for k in range(1, fitter.candidate_cutoffs(rows, cols) + 1)
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fitter.select_cutoff(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 12 * capacity + 4 * cols * cols * 8 + 4 * _CHUNK_ROWS * cols * 8
