"""Tests for the parallel build passes (``jobs > 1``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.build import build_compressed
from repro.core.svd import (
    _row_bands,
    compute_gram,
    compute_u_to_store,
    spectrum_from_gram,
)
from repro.data import phone_matrix
from repro.exceptions import FormatError
from repro.storage import MatrixStore


@pytest.fixture(scope="module")
def data():
    return phone_matrix(150)


class TestRowBands:
    def test_bands_partition_the_range(self):
        bands = _row_bands(103, 4)
        assert bands[0][0] == 0 and bands[-1][1] == 103
        for (_, prev_end), (begin, _) in zip(bands, bands[1:]):
            assert begin == prev_end
        assert len(bands) == 4

    def test_jobs_clamped_to_rows(self):
        assert _row_bands(3, 8) == [(0, 1), (1, 2), (2, 3)]
        assert _row_bands(5, 1) == [(0, 5)]


class TestParallelGram:
    def test_matches_sequential_on_ndarray(self, data):
        sequential = compute_gram(data)
        for jobs in (2, 3, 4):
            np.testing.assert_allclose(
                compute_gram(data, jobs=jobs), sequential, rtol=1e-12, atol=1e-9
            )

    def test_matches_sequential_on_store(self, tmp_path, data):
        source = MatrixStore.create(tmp_path / "x.mat", data)
        np.testing.assert_allclose(
            compute_gram(source, jobs=4), compute_gram(source), rtol=1e-12, atol=1e-9
        )
        source.close()

    def test_banded_scan_counts_one_pass(self, tmp_path, data):
        source = MatrixStore.create(tmp_path / "x.mat", data)
        before = source.pass_count
        compute_gram(source, jobs=3)
        assert source.pass_count == before + 1
        source.close()


class TestOverlappedPass3:
    def test_output_identical_to_sequential(self, tmp_path, data):
        """Double buffering reorders no arithmetic: same bytes on disk."""
        gram = compute_gram(data)
        singular, v = spectrum_from_gram(gram, 6)
        seq = compute_u_to_store(data, singular, v, tmp_path / "seq.mat")
        ovl = compute_u_to_store(data, singular, v, tmp_path / "ovl.mat", jobs=2)
        np.testing.assert_array_equal(seq.read_all(), ovl.read_all())
        seq.close()
        ovl.close()
        assert (tmp_path / "seq.mat").read_bytes() == (
            tmp_path / "ovl.mat"
        ).read_bytes()

    def test_producer_error_propagates(self, tmp_path):
        class Exploding:
            shape = (64, 8)

            def __array__(self, dtype=None):
                raise RuntimeError("boom")

        singular = np.ones(2)
        v = np.zeros((8, 2))
        v[0, 0] = v[1, 1] = 1.0
        with pytest.raises(Exception):
            compute_u_to_store(Exploding(), singular, v, tmp_path / "u.mat", jobs=2)


class TestParallelBuild:
    def test_jobs_build_agrees_with_sequential(self, tmp_path, data):
        one = build_compressed(data, tmp_path / "one", 0.10, jobs=1)
        four = build_compressed(data, tmp_path / "four", 0.10, jobs=4)
        assert four.shape == one.shape
        assert four.cutoff == one.cutoff
        assert four.num_deltas == one.num_deltas
        rng = np.random.default_rng(3)
        for row, col in rng.integers(0, data.shape, size=(40, 2)):
            assert four.cell(int(row), int(col)) == pytest.approx(
                one.cell(int(row), int(col)), rel=1e-9, abs=1e-9
            )
        one.close()
        four.close()

    def test_jobs_from_disk_source_pass_count(self, tmp_path, data):
        source = MatrixStore.create(tmp_path / "x.mat", data)
        store = build_compressed(source, tmp_path / "model", 0.10, jobs=4)
        # Banded gram + error pass + U pass: still the paper's 3 passes.
        assert source.pass_count == 3
        store.close()
        source.close()

    def test_invalid_jobs_rejected(self, tmp_path, data):
        with pytest.raises(FormatError):
            build_compressed(data, tmp_path / "model", 0.10, jobs=0)
