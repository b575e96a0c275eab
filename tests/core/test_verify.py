"""Tests for the model-verification audit tool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CompressedMatrix,
    SVDCompressor,
    SVDDCompressor,
    append_columns,
    build_compressed,
    verify_model,
)
from repro.data import PhoneConfig, phone_matrix
from repro.exceptions import ShapeError
from repro.metrics import rmspe
from repro.storage import MatrixStore


@pytest.fixture(scope="module")
def data():
    return phone_matrix(150)


@pytest.fixture(scope="module")
def svdd(data):
    return SVDDCompressor(budget_fraction=0.10).fit(data)


class TestVerify:
    def test_report_matches_direct_metrics(self, data, svdd):
        report = verify_model(data, svdd)
        assert report.rmspe == pytest.approx(rmspe(data, svdd.reconstruct()))
        assert report.rows == 150 and report.cols == 366
        assert report.num_deltas == svdd.num_deltas

    def test_bound_check_passes_for_honest_model(self, data, svdd):
        report = verify_model(data, svdd)
        assert report.certified_bound is not None
        assert report.bound_holds is True
        assert report.ok

    def test_bound_violation_detected(self, data, svdd):
        """Verifying against the WRONG source must trip the bound."""
        tampered = data.copy()
        tampered[0, 0] += 1e9
        report = verify_model(tampered, svdd)
        assert report.bound_holds is False
        assert not report.ok

    def test_plain_svd_has_no_bound(self, data):
        svd = SVDCompressor(budget_fraction=0.10).fit(data)
        report = verify_model(data, svd)
        assert report.certified_bound is None
        assert report.ok

    def test_shape_mismatch_raises(self, data, svdd):
        with pytest.raises(ShapeError):
            verify_model(data[:100], svdd)

    def test_works_against_stores(self, tmp_path, data, svdd):
        raw = MatrixStore.create(tmp_path / "raw.mat", data)
        compressed = build_compressed(data, tmp_path / "model", 0.10)  # svdd's compressor
        report = verify_model(raw, compressed)
        assert report.ok
        assert report.rmspe == pytest.approx(rmspe(data, svdd.reconstruct()), rel=1e-9)
        compressed.close()
        raw.close()

    def test_summary_is_readable(self, data, svdd):
        text = verify_model(data, svdd).summary()
        assert "RMSPE" in text
        assert "HOLDS" in text

    def test_an_appended_model_is_not_certified(self, tmp_path):
        """``min |delta|`` bounds a fresh build's unstored cells only:
        after appends the old unstored cells never compete again, so a
        healthy appended model must not read VIOLATED."""
        data = phone_matrix(1200, PhoneConfig(num_days=171))
        compressed = build_compressed(data[:, :150], tmp_path / "model", 0.10)
        fresh = verify_model(data[:, :150], compressed)
        assert fresh.certified_bound is not None and fresh.bound_holds is True
        compressed.close()
        for start in range(150, 171, 7):
            append_columns(tmp_path / "model", data[:, start : start + 7])
        with CompressedMatrix.open(tmp_path / "model") as appended:
            report = verify_model(data, appended)
            assert report.certified_bound is None and report.bound_holds is None
            assert report.ok
            assert appended.appends == 3
