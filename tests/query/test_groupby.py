"""Tests for grouped aggregates (row/column totals, top-k rows)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SVDCompressor, SVDDCompressor
from repro.exceptions import QueryError
from repro.query import Selection, column_totals, row_totals, top_rows


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(63)
    x = rng.random((120, 25)) * 10
    x[7, 3] += 900.0  # outlier cell to exercise delta correction
    return x


@pytest.fixture(scope="module")
def svdd(data):
    model = SVDDCompressor(budget_fraction=0.25).fit(data)
    assert model.num_deltas > 0
    return model


class TestExactBackend:
    def test_row_totals_match_numpy(self, data):
        totals = row_totals(data, Selection(cols=range(5)))
        assert np.allclose(totals, data[:, :5].sum(axis=1))

    def test_column_totals_match_numpy(self, data):
        totals = column_totals(data, Selection(rows=range(30)))
        assert np.allclose(totals, data[:30].sum(axis=0))

    def test_sub_selection(self, data):
        selection = Selection(rows=[2, 5, 8], cols=[1, 4])
        assert np.allclose(
            row_totals(data, selection),
            data[np.ix_([2, 5, 8], [1, 4])].sum(axis=1),
        )

    def test_top_rows(self, data):
        found = top_rows(data, 3)
        expected = np.argsort(data.sum(axis=1))[::-1][:3]
        assert list(found) == list(expected)

    def test_top_rows_invalid_count(self, data):
        with pytest.raises(QueryError):
            top_rows(data, 0)


class TestFactorBackend:
    def test_row_totals_match_streaming(self, svdd):
        fast = row_totals(svdd, Selection(cols=range(10)))
        recon = svdd.reconstruct()
        assert np.allclose(fast, recon[:, :10].sum(axis=1), atol=1e-8)

    def test_column_totals_match_streaming(self, svdd):
        fast = column_totals(svdd, Selection(rows=range(50)))
        recon = svdd.reconstruct()
        assert np.allclose(fast, recon[:50].sum(axis=0), atol=1e-8)

    def test_delta_correction_applied(self, data, svdd):
        """The 900-unit outlier must show up in its row's total."""
        totals = row_totals(svdd, Selection(cols=[3]))
        assert totals[7] == pytest.approx(data[7, 3], rel=0.05)

    def test_plain_svd_backend(self, data):
        model = SVDCompressor(budget_fraction=0.25).fit(data)
        fast = row_totals(model)
        assert np.allclose(fast, model.reconstruct().sum(axis=1), atol=1e-8)

    def test_top_rows_identifies_whales(self, data, svdd):
        """The factor path finds the same big customers as exact math
        (approximately — it ranks by reconstructed totals)."""
        approx_top = set(top_rows(svdd, 10).tolist())
        exact_top = set(top_rows(data, 10).tolist())
        assert len(approx_top & exact_top) >= 8


class TestPersistentBackend:
    """Group-bys over a ``CompressedMatrix`` take the factor path: one
    batched U gather and one delta ``select``, not a Python loop of
    per-row reconstructions."""

    @pytest.fixture(scope="class")
    def model_dir(self, tmp_path_factory, svdd):
        from repro.core import CompressedMatrix

        directory = tmp_path_factory.mktemp("groupby") / "model"
        CompressedMatrix.save(svdd, directory).close()
        return directory

    @pytest.mark.parametrize("mapped", [False, True], ids=["paged", "mapped"])
    def test_totals_match_oracle_with_bounded_gathers(self, model_dir, mapped):
        from repro.core import CompressedMatrix
        from repro.obs import registry

        rows = [3, 7, 110, 41, 8, 64]  # unsorted, holds the outlier row
        cols = range(2, 19)  # never a full axis: no summary shortcut
        selection = Selection(rows=rows, cols=cols)
        with CompressedMatrix.open(model_dir, mapped=mapped) as store:
            want = store.reconstruct_all()[np.ix_(sorted(rows), list(cols))]
            registry.enable()
            try:
                gathers = registry.counter("store.read_rows.calls")
                select_before = store.delta_index.stats["lookups"]
                gathers_before = gathers.value
                accesses_before = store.u_pool_stats.accesses
                by_row = row_totals(store, selection)
                by_col = column_totals(store, selection)
                best = top_rows(store, 2, selection)
                # Three group-bys: one batched gather and one select
                # each, whatever |R| is.
                assert gathers.value - gathers_before == 3
                assert store.delta_index.stats["lookups"] - select_before == 3
            finally:
                registry.disable()
            if not mapped:  # each selected row's page once per gather
                assert store.u_pool_stats.accesses - accesses_before == 3 * len(rows)
        np.testing.assert_allclose(by_row, want.sum(axis=1), atol=1e-8)
        np.testing.assert_allclose(by_col, want.sum(axis=0), atol=1e-8)
        assert list(best) == [sorted(rows)[i] for i in np.argsort(want.sum(axis=1))[::-1][:2]]
