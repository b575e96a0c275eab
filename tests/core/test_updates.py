"""Tests for batched off-line updates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SVDDCompressor
from repro.lab.updates import BatchUpdater
from repro.exceptions import ConfigurationError, QueryError
from repro.storage import MatrixStore


@pytest.fixture()
def base(tmp_path, rng):
    matrix = rng.random((50, 12)) * 10
    store = MatrixStore.create(tmp_path / "base.mat", matrix)
    yield store, matrix
    store.close()


class TestQueueing:
    def test_counts(self, base, rng):
        store, _ = base
        updater = BatchUpdater(store)
        updater.update_cell(3, 4, 99.0)
        updater.update_cell(3, 5, 98.0)
        updater.append_row(rng.random(12))
        assert updater.pending_cell_updates == 2
        assert updater.pending_appends == 1

    def test_duplicate_cell_update_overwrites(self, base):
        store, _ = base
        updater = BatchUpdater(store)
        updater.update_cell(0, 0, 1.0)
        updater.update_cell(0, 0, 2.0)
        assert updater.pending_cell_updates == 1

    def test_bounds_checked(self, base):
        store, _ = base
        updater = BatchUpdater(store)
        with pytest.raises(QueryError):
            updater.update_cell(50, 0, 1.0)
        with pytest.raises(QueryError):
            updater.update_cell(0, 12, 1.0)

    def test_append_shape_checked(self, base):
        store, _ = base
        updater = BatchUpdater(store)
        with pytest.raises(ConfigurationError):
            updater.append_row(np.ones(13))

    def test_append_returns_future_index(self, base, rng):
        store, _ = base
        updater = BatchUpdater(store)
        assert updater.append_row(rng.random(12)) == 50
        assert updater.append_row(rng.random(12)) == 51

    def test_can_patch_appended_row(self, base, tmp_path, rng):
        store, _ = base
        updater = BatchUpdater(store)
        idx = updater.append_row(np.zeros(12))
        updater.update_cell(idx, 7, 42.0)
        new_store, _ = updater.rebuild(tmp_path / "v2.mat")
        assert new_store.cell(idx, 7) == 42.0
        new_store.close()


class TestRebuild:
    def test_patches_applied(self, base, tmp_path):
        store, matrix = base
        updater = BatchUpdater(store)
        updater.update_cell(10, 2, -5.0)
        new_store, model = updater.rebuild(tmp_path / "v2.mat")
        expected = matrix.copy()
        expected[10, 2] = -5.0
        assert np.allclose(new_store.read_all(), expected)
        assert model is None
        new_store.close()

    def test_appends_applied(self, base, tmp_path, rng):
        store, matrix = base
        updater = BatchUpdater(store)
        new_rows = rng.random((3, 12))
        for row in new_rows:
            updater.append_row(row)
        new_store, _ = updater.rebuild(tmp_path / "v2.mat")
        assert new_store.shape == (53, 12)
        assert np.allclose(new_store.read_all()[50:], new_rows)
        new_store.close()

    def test_refit_with_compressor(self, base, tmp_path):
        store, _ = base
        updater = BatchUpdater(store)
        updater.update_cell(0, 0, 500.0)  # plant an outlier
        new_store, model = updater.rebuild(
            tmp_path / "v2.mat", compressor=SVDDCompressor(budget_fraction=0.30)
        )
        assert model is not None
        assert model.reconstruct_cell(0, 0) == pytest.approx(500.0, rel=0.05)
        new_store.close()

    def test_single_scan_of_base(self, base, tmp_path):
        store, _ = base
        before = store.pass_count
        BatchUpdater(store).rebuild(tmp_path / "v2.mat")[0].close()
        assert store.pass_count == before + 1

    def test_queue_cleared_after_rebuild(self, base, tmp_path, rng):
        store, _ = base
        updater = BatchUpdater(store)
        updater.update_cell(1, 1, 7.0)
        updater.append_row(rng.random(12))
        updater.rebuild(tmp_path / "v2.mat")[0].close()
        assert updater.pending_cell_updates == 0
        assert updater.pending_appends == 0
