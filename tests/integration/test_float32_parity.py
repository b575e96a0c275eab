"""End-to-end ``bytes_per_value=4`` parity: build, query, fsck, append.

The float32 storage mode must be a first-class citizen of the whole
lifecycle: the streamed build writes float32
factors and 12-byte delta records, queries agree with the float64 model
to float32 noise, ``fsck`` verifies the manifest, and an append folds
new days in about as well as at float64.  That every appended file
keeps the build's precision is the lifecycle machine's invariant
(``test_lifecycle.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.core.space import delta_record_bytes
from repro.core.update import append_columns
from repro.data import phone_matrix
from repro.query import AggregateQuery, CellQuery, QueryEngine, Selection
from repro.storage.delta_file import DeltaFile
from repro.storage.integrity import verify_manifest


@pytest.fixture(scope="module")
def data():
    return phone_matrix(220)


@pytest.fixture(scope="module")
def models(data, tmp_path_factory):
    """The same 200 x 366 prefix built at b=8 and b=4."""
    root = tmp_path_factory.mktemp("parity")
    base = data[:200, :]
    build_compressed(base, root / "m64", 0.10, bytes_per_value=8).close()
    build_compressed(base, root / "m32", 0.10, bytes_per_value=4).close()
    return root / "m64", root / "m32"


class TestBuildParity:
    def test_both_models_stay_within_budget(self, models):
        """The honest 6-byte delta accounting legitimately shifts the
        b=4 optimum (deltas are relatively pricier than at b=8, so k_opt
        may grow); what must hold is that each model fits its own
        b-sized budget."""
        m64, m32 = models
        with CompressedMatrix.open(m64) as full, CompressedMatrix.open(m32) as half:
            assert half.bytes_per_value == 4
            assert full.space_bytes() <= 0.10 * 200 * 366 * 8 + 1e-9
            assert half.space_bytes() <= 0.10 * 200 * 366 * 4 + 1e-9
            # Pricier records -> the optimizer never buys more deltas
            # per component than the b=8 model affords.
            assert half.cutoff >= full.cutoff

    def test_delta_records_are_6_bytes_on_disk(self, models):
        _m64, m32 = models
        with CompressedMatrix.open(m32) as half:
            count, rows = half.num_deltas, half.shape[0]
        assert count > 0
        on_disk = (m32 / "deltas.bin").stat().st_size
        assert on_disk == DeltaFile.size_bytes(count, rows, bytes_per_value=4)
        assert on_disk == DeltaFile.size_bytes(0, rows, bytes_per_value=4) + count * (
            delta_record_bytes(4)
        )
        assert delta_record_bytes(4) == 6

    def test_factors_stored_as_float32(self, models):
        _m64, m32 = models
        assert np.load(m32 / "lambda.npy").dtype == np.float32
        assert np.load(m32 / "v.npy").dtype == np.float32


class TestQueryParity:
    def test_reconstruction_error_comparable_to_float64(self, data, models):
        """At the same budget fraction the b=4 model must reconstruct
        the data about as well as the b=8 one — quantization noise is
        invisible next to the truncation error."""
        from repro.metrics import rmspe

        m64, m32 = models
        base = data[:200, :]
        with CompressedMatrix.open(m64) as full, CompressedMatrix.open(m32) as half:
            err64 = rmspe(base, full.reconstruct_all())
            err32 = rmspe(base, half.reconstruct_all())
        assert err32 <= err64 * 1.5

    def test_aggregates_agree_between_precisions(self, models):
        """Aggregates average over many cells, so the two models (built
        at the same fraction) agree closely despite different k_opt."""
        m64, m32 = models
        with CompressedMatrix.open(m64) as full, CompressedMatrix.open(m32) as half:
            engine64, engine32 = QueryEngine(full), QueryEngine(half)
            for function in ("sum", "avg"):
                query = AggregateQuery(
                    function, Selection(rows=range(0, 60), cols=range(10, 40))
                )
                a = engine64.aggregate(query).value
                b = engine32.aggregate(query).value
                assert b == pytest.approx(a, rel=0.02)

    def test_cell_queries_are_finite_and_plausible(self, data, models):
        _m64, m32 = models
        rng = np.random.default_rng(11)
        scale = float(np.abs(data).max())
        with CompressedMatrix.open(m32) as half:
            engine = QueryEngine(half)
            for row, col in rng.integers(0, [200, 366], size=(25, 2)):
                value = engine.cell(CellQuery(int(row), int(col))).value
                assert np.isfinite(value)
                assert abs(value) <= scale * 2


class TestFsckParity:
    def test_manifest_verifies_clean(self, models):
        for directory in models:
            report = verify_manifest(directory, deep=True)
            assert report.ok, report.problems()


class TestAppendParity:
    def test_appended_answers_close_to_float64_pipeline(self, data, models, tmp_path):
        """Both precisions fold the same new days in about equally well
        (measured against the data — the models differ in k_opt)."""
        import shutil

        m64, m32 = models
        d64, d32 = tmp_path / "m64", tmp_path / "m32"
        shutil.copytree(m64, d64)
        shutil.copytree(m32, d32)
        new_cols = data[:200, :7] * 1.01
        append_columns(d64, new_cols)
        append_columns(d32, new_cols)
        with CompressedMatrix.open(d64) as full, CompressedMatrix.open(d32) as half:
            recon64 = full.reconstruct_all()[:, 366:]
            recon32 = half.reconstruct_all()[:, 366:]
        norm = np.linalg.norm(new_cols)
        rel64 = np.linalg.norm(recon64 - new_cols) / norm
        rel32 = np.linalg.norm(recon32 - new_cols) / norm
        assert rel32 <= max(rel64 * 1.5, rel64 + 0.01)
