"""Tests for the Section 6.2 zero-row fast path in CompressedMatrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressedMatrix, SVDDCompressor, build_compressed


@pytest.fixture(scope="module")
def matrix_with_inactive(rng=None):
    """Data where specific customers made no purchases at all."""
    sample_rng = np.random.default_rng(33)
    x = np.outer(sample_rng.random(120) * 5 + 1, sample_rng.random(30) + 0.5)
    x += 0.05 * sample_rng.standard_normal(x.shape)
    x = np.maximum(x, 0.0)
    inactive = [7, 42, 99]
    x[inactive] = 0.0
    return x, inactive


class TestZeroRowFlagging:
    def test_inactive_rows_flagged(self, tmp_path, matrix_with_inactive):
        x, inactive = matrix_with_inactive
        store = build_compressed(x, tmp_path / "m", 0.20)
        assert store.num_zero_rows >= len(inactive)
        store.close()

    def test_zero_cells_answered_without_disk_access(
        self, tmp_path, matrix_with_inactive
    ):
        x, inactive = matrix_with_inactive
        store = build_compressed(x, tmp_path / "m", 0.20)
        store.u_pool_stats.reset()
        for row in inactive:
            assert store.cell(row, 5) == 0.0
            assert np.array_equal(
                store.reconstruct_range([row], range(30)), np.zeros((1, 30))
            )
        assert store.u_pool_stats.misses == 0
        assert store.stats["zero_row_skips"] == 2 * len(inactive)
        store.close()

    def test_active_rows_unaffected(self, tmp_path, matrix_with_inactive):
        x, _inactive = matrix_with_inactive
        model = SVDDCompressor(budget_fraction=0.20).fit(x)
        store = build_compressed(x, tmp_path / "m", 0.20)
        assert store.cell(0, 0) == pytest.approx(model.reconstruct_cell(0, 0))
        store.close()

    def test_flag_survives_reopen(self, tmp_path, matrix_with_inactive):
        x, inactive = matrix_with_inactive
        build_compressed(x, tmp_path / "m", 0.20).close()
        store = CompressedMatrix.open(tmp_path / "m")
        assert store.num_zero_rows >= len(inactive)
        assert store.cell(inactive[0], 3) == 0.0
        store.close()

    def test_no_flags_when_all_rows_active(self, tmp_path, phone_small):
        active = phone_small + 1.0  # shift away from zero everywhere
        store = build_compressed(active, tmp_path / "m", 0.10)
        assert store.num_zero_rows == 0
        store.close()

    def test_column_respects_zero_rows(self, tmp_path, matrix_with_inactive):
        x, inactive = matrix_with_inactive
        store = build_compressed(x, tmp_path / "m", 0.20)
        column = store.reconstruct_range(range(store.shape[0]), [3])[:, 0]
        for row in inactive:
            # Zero U rows reconstruct to zero through the normal path too;
            # the flag is an access optimization, not a semantic change.
            assert column[row] == pytest.approx(0.0, abs=1e-9)
        store.close()


def _flagged(directory) -> np.ndarray:
    """The flagged rows as persisted: the ground truth the store's
    per-row flag array must reproduce."""
    return np.load(directory / "zero_rows.npy")


class TestZeroFlagMasksBatches:
    """Batched reads mask zero rows by indexing a per-row flag; the
    answers are the ones testing membership in the sorted zero-row list
    (``np.isin``) gives."""

    @pytest.fixture()
    def built(self, tmp_path, matrix_with_inactive):
        x, inactive = matrix_with_inactive
        store = build_compressed(x, tmp_path / "m", budget_fraction=0.20)
        yield store, inactive
        store.close()

    @pytest.mark.parametrize(
        "rows",
        [[7, 42, 99], [99, 7, 7], [0, 7, 8, 42, 43, 119], [0, 1, 2, 100]],
        ids=["only-flagged", "flagged-unsorted-repeated", "mixed", "none-flagged"],
    )
    def test_batches_equal_the_isin_answers(self, built, rows):
        store, _inactive = built
        flagged = _flagged(store.directory)
        row_idx = np.asarray(rows)
        want_mask = np.isin(row_idx, flagged)
        np.testing.assert_array_equal(store._zero_flag[row_idx], want_mask)

        dense = store.reconstruct_all()
        cols = np.arange(3, 3 + row_idx.size)
        skips = store.stats["zero_row_skips"]
        reads = store.u_pool_stats.bypasses
        block = store.reconstruct_range(row_idx, cols)
        np.testing.assert_allclose(block, dense[np.ix_(row_idx, cols)], atol=1e-12)
        assert not block[want_mask].any()
        assert store.stats["zero_row_skips"] == skips + int(want_mask.sum())
        # Only the live rows are gathered: one logical page each.
        live_pages = store.u_store.pages_for_rows(row_idx[~want_mask])
        assert store.u_pool_stats.bypasses == reads + live_pages

    def test_flag_tracks_zero_rows_across_append_rows_and_reopen(self, built):
        from repro.core.update import append_rows

        store, inactive = built
        num_rows, num_cols = store.shape
        new_rows = np.vstack(
            [np.zeros(num_cols), np.full(num_cols, 2.5), np.zeros(num_cols)]
        )
        append_rows(store.directory, new_rows)
        # The open store keeps its snapshot, flag array included.
        assert store._zero_flag[np.arange(num_rows)].sum() == store.num_zero_rows
        with store.reopen() as grown:
            assert grown.shape == (num_rows + 3, num_cols)
            flagged = _flagged(grown.directory)
            assert {num_rows, num_rows + 2} <= set(flagged.tolist())
            assert set(inactive) <= set(flagged.tolist())
            everything = np.arange(num_rows + 3)
            np.testing.assert_array_equal(
                grown._zero_flag[everything], np.isin(everything, flagged)
            )
            assert grown.num_zero_rows == flagged.size
            assert [grown.cell(num_rows + i, i) == 0.0 for i in range(3)] == [
                True,
                False,
                True,
            ]

    def test_model_without_zero_rows_masks_nothing(self, tmp_path, phone_small):
        with build_compressed(phone_small + 1.0, tmp_path / "m", 0.10) as store:
            assert store.num_zero_rows == 0
            assert not store._zero_flag.any()
