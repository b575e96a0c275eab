"""Tests for the persistent CompressedMatrix store."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import CompressedMatrix, SVDDCompressor
from repro.core.build import build_compressed
from repro.core.update import append_columns
from repro.data import phone_matrix
from repro.exceptions import FormatError, QueryError


@pytest.fixture(scope="module")
def data():
    return phone_matrix(150)


@pytest.fixture(scope="module")
def svdd_model(data):
    return SVDDCompressor(budget_fraction=0.10).fit(data)


@pytest.fixture()
def saved(tmp_path, data):
    # The same compressor as ``svdd_model``: same k and deltas, and U
    # equal to the in-memory fit's to ~1e-12.
    store = build_compressed(data, tmp_path / "model", 0.10)
    yield store
    store.close()


class TestPersistence:
    def test_save_open_roundtrip(self, tmp_path, svdd_model, data):
        directory = tmp_path / "model"
        build_compressed(data, directory, 0.10).close()
        with CompressedMatrix.open(directory) as store:
            assert store.shape == data.shape
            assert store.cutoff == svdd_model.cutoff
            assert store.num_deltas == svdd_model.num_deltas
            assert np.allclose(store.reconstruct_all(), svdd_model.reconstruct())

    def test_svd_model_without_deltas(self, tmp_path, data):
        """A ``kind: "svd"`` directory (what a writer of SVD-only models
        left) is no model this code writes: open, degraded open and
        append all refuse it, naming the kind."""
        directory = tmp_path / "svd"
        build_compressed(data, directory, 0.10).close()
        meta = json.loads((directory / "meta.json").read_text())
        meta.update(kind="svd", num_deltas=0, zero_rows=0)
        (directory / "meta.json").write_text(json.dumps(meta))
        for on_corrupt in ("raise", "degraded"):
            with pytest.raises(FormatError, match="svdd"):
                CompressedMatrix.open(directory, on_corrupt=on_corrupt)
        with pytest.raises(FormatError, match="svdd"):
            append_columns(directory, np.ones((data.shape[0], 2)))

    def test_mapped_open_maps_u_only(self, tmp_path, data):
        """A ``mapped=True`` open maps ``u.mat`` and nothing else: the
        delta table is one private in-memory copy (§4.1)."""
        maps = Path("/proc/self/maps")
        if not maps.exists():
            pytest.skip("no /proc/self/maps on this platform")
        directory = (tmp_path / "model").resolve()
        build_compressed(data, directory, 0.10).close()
        with CompressedMatrix.open(directory, mapped=True) as store:
            mappings = maps.read_text()
            assert str(directory / "u.mat") in mappings
            assert str(directory / "deltas.bin") not in mappings
            index = store.delta_index
            for array in (index.row_start, index.cols, index.values):
                while isinstance(array.base, np.ndarray):
                    array = array.base
                assert array.flags.owndata  # a heap array, not a buffer's view

    def test_missing_meta_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FormatError):
            CompressedMatrix.open(tmp_path / "empty")

    def test_meta_shape_mismatch_rejected(self, tmp_path, data):
        directory = tmp_path / "model"
        build_compressed(data, directory, 0.10).close()
        meta = json.loads((directory / "meta.json").read_text())
        meta["rows"] += 1
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError):
            CompressedMatrix.open(directory)

    def test_missing_delta_file_rejected(self, tmp_path, data):
        directory = tmp_path / "model"
        build_compressed(data, directory, 0.10).close()
        (directory / "deltas.bin").unlink()
        with pytest.raises(FormatError):
            CompressedMatrix.open(directory)


class TestQueries:
    def test_cell_matches_model(self, saved, svdd_model):
        for row, col in [(0, 0), (17, 200), (149, 365), (75, 100)]:
            assert saved.cell(row, col) == pytest.approx(
                svdd_model.reconstruct_cell(row, col), abs=1e-9
            )

    def test_row_matches_model(self, saved, svdd_model):
        row = saved.reconstruct_range([42], range(saved.shape[1]))[0]
        assert np.allclose(row, svdd_model.reconstruct_row(42), atol=1e-9)

    def test_column_matches_model(self, saved, svdd_model):
        full = svdd_model.reconstruct()
        column = saved.reconstruct_range(range(saved.shape[0]), [17])[:, 0]
        assert np.allclose(column, full[:, 17], atol=1e-9)

    def test_bounds_checked(self, saved):
        with pytest.raises(QueryError):
            saved.cell(150, 0)
        with pytest.raises(QueryError):
            saved.cell(0, 366)
        with pytest.raises(QueryError):
            saved.reconstruct_range([-1], [0])
        with pytest.raises(QueryError):
            saved.reconstruct_range([0], [366])

    def test_space_bytes_positive(self, saved, svdd_model):
        assert saved.space_bytes() == svdd_model.space_bytes()


class TestBlockedScans:
    """``reconstruct_all`` gathers U in blocks; the row at a time loop
    it replaced stays here as the reference.  One GEMM
    sums a cell's k products in another order than k mat-vecs did, so
    the results agree to 1e-12 of the cell — or, where the terms (or a
    delta and the value it corrects) cancel, of the largest cell."""

    @pytest.fixture(params=[1024, 64, 7], ids=lambda rows: f"block{rows}")
    def block_rows(self, request, monkeypatch):
        # 150 rows: one short block, two blocks and a ragged tail, many.
        monkeypatch.setattr("repro.core.store._U_BLOCK_ROWS", request.param)
        return request.param

    def test_reconstruct_all_equals_the_per_row_loop(self, saved, block_rows):
        cutoff, eigenvalues, v = saved.cutoff, saved._eigenvalues, saved._v
        want = np.empty(saved.shape)
        for index, u_row in saved.u_store.iter_rows():
            want[index] = (u_row[:cutoff] * eigenvalues) @ v.T
        index = saved.delta_index
        want[index.rows, index.cols] += index.values
        passes = saved.u_store.pass_count
        np.testing.assert_allclose(
            saved.reconstruct_all(), want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
        )
        assert saved.u_store.pass_count == passes + 1  # still one full scan

    def test_scans_read_no_page_through_the_pager(self, saved):
        reads = saved.u_io_stats.reads
        saved.reconstruct_all()
        assert saved.u_io_stats.reads == reads
        assert saved.u_pool_stats.hits == saved.u_pool_stats.misses == 0


class TestDiskAccessClaim:
    """Section 4.1: 'only a single disk access is required' per cell."""

    def test_one_page_miss_per_cold_row(self, tmp_path, data):
        store = build_compressed(data, tmp_path / "m", 0.10)
        store.u_pool_stats.reset()
        store.stats["zero_row_skips"] = 0
        # 30 distinct cold rows -> one page miss each, except rows the
        # Section 6.2 zero-row flag answers without touching the disk.
        for row in range(0, 150, 5):
            store.cell(row, 100)
        assert store.u_pool_stats.misses + store.stats["zero_row_skips"] == 30
        assert store.u_pool_stats.misses <= 30
        store.close()

    def test_repeated_cell_hits_cache(self, tmp_path, data):
        store = build_compressed(data, tmp_path / "m", 0.10)
        store.cell(5, 5)
        store.u_pool_stats.reset()
        store.cell(5, 99)  # same U row: zero further misses
        assert store.u_pool_stats.misses == 0
        store.close()

    def test_u_row_fits_one_page(self, saved):
        # The U store is created with page_size >= one row of U.
        assert saved._u_store.pages_per_row() == 1


class TestReconstructRange:
    def test_matches_full_reconstruction(self, saved, svdd_model):
        rows, cols = [3, 17, 149], [0, 100, 365]
        block = saved.reconstruct_range(rows, cols)
        full = svdd_model.reconstruct()
        assert np.allclose(block, full[np.ix_(rows, cols)], atol=1e-9)

    def test_single_cell_range(self, saved):
        block = saved.reconstruct_range([5], [7])
        assert block.shape == (1, 1)
        assert block[0, 0] == pytest.approx(saved.cell(5, 7))

    def test_includes_delta_corrections(self, saved, svdd_model):
        outliers = svdd_model.outlier_cells()
        if outliers:
            row, col, _delta = outliers[0]
            block = saved.reconstruct_range([row], [col])
            assert block[0, 0] == pytest.approx(
                svdd_model.reconstruct_cell(row, col), abs=1e-9
            )

    def test_repeated_indices_keep_their_deltas(self, saved, svdd_model):
        # Every occurrence of a repeated row or column carries its delta
        # corrections, on the store and on the in-memory model alike.
        row, col, _delta = svdd_model.outlier_cells()[0]
        other = (row + 1) % saved.shape[0]
        rows = [row, row, other, row]
        cols = [col, (col + 5) % saved.shape[1], col, col]
        block = saved.reconstruct_range(rows, cols)
        assert np.allclose(
            block, saved.reconstruct_all()[np.ix_(rows, cols)], atol=1e-9
        )
        assert np.allclose(
            svdd_model.reconstruct_range(rows, cols),
            svdd_model.reconstruct()[np.ix_(rows, cols)],
            atol=1e-9,
        )
        assert block[0, 0] == block[3, 3] == pytest.approx(saved.cell(row, col))

    def test_accepts_arrays_ranges_and_iterables(self, saved, svdd_model):
        want = saved.reconstruct_range([3, 4, 5], [10, 11])
        for backend in (saved, svdd_model):
            for rows, cols in [
                (np.arange(3, 6), np.array([10, 11])),
                (range(3, 6), range(10, 12)),
                ((r for r in (3, 4, 5)), iter([10, 11])),
            ]:
                got = backend.reconstruct_range(rows, cols)
                assert np.allclose(got, want, atol=1e-9)

    def test_bounds_checked(self, saved):
        with pytest.raises(QueryError):
            saved.reconstruct_range([9999], [0])
        with pytest.raises(QueryError):
            saved.reconstruct_range([0], [])


def _assert_answers_like_model(store, model):
    """Every cell of ``store`` equals the in-memory model's, through the
    rectangle path (whole grid) and the scalar path (every outlier cell
    and as many cells without a delta)."""
    rows, cols = store.shape
    expected = model.reconstruct()
    np.testing.assert_allclose(
        store.reconstruct_range(range(rows), range(cols)),
        expected,
        rtol=1e-12,
        atol=1e-9,
    )
    outliers = [(row, col) for row, col, _delta in model.outlier_cells()]
    plain = [(row, (col + 1) % cols) for row, col in outliers]
    for row, col in outliers + plain:
        assert store.cell(row, col) == pytest.approx(expected[row, col], abs=1e-9)


class TestBloomFprPersistence:
    """``bloom``/``bloom_fpr`` were build provenance in older
    ``meta.json`` files: writers no longer emit them, and the opened
    store answers deltas from the sorted index alone whether or not a
    directory still carries them."""

    def test_strict_fpr_round_trips(self, tmp_path, data, svdd_model):
        """Writers emit neither key; a directory stamped with a strict
        filter target by an older build still opens and answers."""
        built = tmp_path / "built"
        build_compressed(data, built, budget_fraction=0.10).close()
        meta = json.loads((built / "meta.json").read_text())
        assert "bloom" not in meta and "bloom_fpr" not in meta
        meta.update(bloom=True, bloom_fpr=0.001)
        (built / "meta.json").write_text(json.dumps(meta))
        with CompressedMatrix.open(built) as store:
            assert store.num_deltas > 0
            assert json.loads((built / "meta.json").read_text())["bloom_fpr"] == 0.001
            _assert_answers_like_model(store, svdd_model)

    def test_old_directory_without_fpr_defaults(self, tmp_path, data, svdd_model):
        directory = tmp_path / "legacy"
        build_compressed(data, directory, 0.10).close()
        meta = json.loads((directory / "meta.json").read_text())
        meta["bloom"] = True  # a directory from before bloom_fpr was recorded
        (directory / "meta.json").write_text(json.dumps(meta))
        with CompressedMatrix.open(directory) as store:
            _assert_answers_like_model(store, svdd_model)

    def test_parent_commit_bloom_meta_opens(self, tmp_path, data, svdd_model):
        # meta.json exactly as the last Bloom-rebuilding commit wrote it.
        directory = tmp_path / "parent"
        build_compressed(data, directory, 0.10).close()
        rows, cols = svdd_model.shape
        meta = {
            "kind": "svdd",
            "rows": rows,
            "cols": cols,
            "cutoff": svdd_model.cutoff,
            "num_deltas": svdd_model.num_deltas,
            "bloom": True,
            "bloom_fpr": 0.01,
            "zero_rows": json.loads((directory / "meta.json").read_text())["zero_rows"],
            "bytes_per_value": 8,
        }
        (directory / "meta.json").write_text(json.dumps(meta, indent=2))
        for mapped in (False, True):
            with CompressedMatrix.open(directory, mapped=mapped) as store:
                assert store.num_deltas == svdd_model.num_deltas
                _assert_answers_like_model(store, svdd_model)


class TestBatchCells:
    """A batch of cells is a rectangle: ``reconstruct_range``."""

    def test_cells_match_scalar_cell(self, saved):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 150, size=40)
        cols = rng.integers(0, 366, size=40)
        batch = saved.reconstruct_range(rows, cols)
        scalar = [[saved.cell(int(r), int(c)) for c in cols] for r in rows]
        np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-12)

    def test_duplicate_rows_coalesce_page_reads(self, tmp_path, data):
        store = build_compressed(data, tmp_path / "m", 0.10)
        store.u_pool_stats.reset()
        store.reconstruct_range([5, 5, 5, 5], [0, 1, 2, 3])
        assert store.u_pool_stats.accesses == 1  # one page for all sixteen cells
        store.close()

    def test_batch_bounds_checked(self, saved):
        with pytest.raises(QueryError):
            saved.reconstruct_range([0, 9999], [0, 0])
