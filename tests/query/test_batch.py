"""Equivalence and accounting tests for the vectorized query paths.

The blocked streaming aggregate and ``CompressedMatrix.reconstruct_range``
over the DeltaIndex must agree with the scalar paths to float
tolerance, and the execution accounting must report real work: row
fetches on the factor fast path against a disk-resident backend, and a
side-effect-free ``explain``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressedMatrix, DeltaIndex, SVDDCompressor, SVDDModel, SVDModel, build_compressed
from repro.storage.delta_file import DeltaTable
from repro.exceptions import QueryError
from repro.query import AggregateQuery, QueryEngine, Selection
from tests.conftest import run_route


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(1203)
    x = rng.random((120, 30)) * 10
    x[11, 3] += 400.0  # force outliers so SVDD stores deltas
    x[47, 21] += 350.0
    x[90, 0] += 500.0
    return x


@pytest.fixture(scope="module")
def svdd_model(data):
    model = SVDDCompressor(budget_fraction=0.20).fit(data)
    assert model.num_deltas > 0
    return model


@pytest.fixture(scope="module")
def saved(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("batch") / "model"
    store = build_compressed(data, directory, 0.20)  # svdd_model's compressor
    yield store
    store.close()


def delta_heavy_model(num_rows=60, num_cols=24, num_deltas=300, seed=5):
    """A synthetic SVDD model with a dense outlier set."""
    rng = np.random.default_rng(seed)
    k = 4
    u = rng.standard_normal((num_rows, k))
    v = rng.standard_normal((num_cols, k))
    eigenvalues = np.sort(rng.random(k) * 5 + 1)[::-1]
    svd = SVDModel(u=u, eigenvalues=eigenvalues, v=v)
    keys = rng.choice(num_rows * num_cols, size=num_deltas, replace=False)
    values = rng.standard_normal(num_deltas) * 3
    table = DeltaTable.from_cells(*np.divmod(keys, num_cols), values, num_rows)
    return SVDDModel(svd=svd, deltas=DeltaIndex(table, num_cols))


class TestVectorizedAggregates:
    SELECTIONS = [
        Selection(rows=[0, 11, 47, 90], cols=[0, 3, 21, 29]),
        Selection(rows=range(0, 120, 3), cols=range(0, 30, 2)),
        Selection(),
    ]

    @pytest.mark.parametrize("function", ["sum", "avg", "stddev", "min", "max"])
    @pytest.mark.parametrize("selection_idx", range(len(SELECTIONS)))
    def test_streamed_block_path_matches_row_loop(
        self, data, function, selection_idx
    ):
        """The blocked ndarray streaming equals a hand-rolled row loop."""
        query = AggregateQuery(function, self.SELECTIONS[selection_idx])
        engine = QueryEngine(data)
        row_idx, col_idx = query.selection.resolve(engine.shape)
        reference = {
            "sum": np.sum,
            "avg": np.mean,
            "stddev": np.std,
            "min": np.min,
            "max": np.max,
        }[function](data[np.ix_(row_idx, col_idx)])
        assert engine.aggregate(query).value == pytest.approx(
            float(reference), rel=1e-9, abs=1e-9
        )

    @pytest.mark.parametrize("function", ["sum", "avg", "stddev"])
    def test_fast_path_matches_streaming_on_delta_heavy_model(self, function):
        model = delta_heavy_model()
        query = AggregateQuery(
            function, Selection(rows=range(0, 60, 2), cols=range(0, 24, 3))
        )
        engine = QueryEngine(model)
        fast = run_route(engine, query, "factor").value
        slow = run_route(engine, query, "stream").value
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-8)

    @pytest.mark.parametrize("function", ["sum", "avg", "stddev", "min", "max"])
    def test_compressed_store_matches_in_memory_model(
        self, saved, svdd_model, function
    ):
        query = AggregateQuery(
            function, Selection(rows=range(0, 120, 7), cols=range(0, 30, 4))
        )
        disk = QueryEngine(saved).aggregate(query).value
        memory = QueryEngine(svdd_model).aggregate(query).value
        assert disk == pytest.approx(memory, rel=1e-9, abs=1e-7)

    def test_delta_heavy_range_reconstruction_roundtrip(self, tmp_path):
        data = delta_heavy_model().reconstruct()  # rank 4 + 300 spikes
        model = SVDDCompressor(budget_fraction=0.5).fit(data)
        store = build_compressed(data, tmp_path / "dh", 0.5)
        assert store.num_deltas == model.num_deltas > 100
        rows = [17, 3, 44]  # deliberately unsorted
        cols = [20, 1, 9, 0]
        block = store.reconstruct_range(rows, cols)
        expected = model.reconstruct()[np.ix_(rows, cols)]
        np.testing.assert_allclose(block, expected, rtol=1e-9, atol=1e-9)
        store.close()


class TestAccounting:
    def test_fast_path_reports_real_row_fetches_on_disk(self, saved):
        # Forced: a full-column selection would otherwise be answered
        # from the materialized rollups without touching U.
        query = AggregateQuery("sum", Selection(rows=range(10)))
        result = run_route(QueryEngine(saved), query, "factor")
        assert result.route == "factor"
        assert result.rows_fetched == 10  # U rows really fetched from disk

    def test_fast_path_reports_zero_fetches_in_memory(self, svdd_model):
        engine = QueryEngine(svdd_model)
        result = engine.aggregate(AggregateQuery("sum", Selection(rows=range(10))))
        assert result.route == "factor"
        assert result.rows_fetched == 0

    def test_count_needs_no_fetches_anywhere(self, saved):
        result = QueryEngine(saved).aggregate(
            AggregateQuery("count", Selection(rows=range(10)))
        )
        assert result.rows_fetched == 0

    def test_explain_performs_no_disk_access(self, saved):
        # Partial on both axes, so the rollups cannot answer it.
        engine = QueryEngine(saved)
        before = saved.u_pool_stats.accesses
        plan = engine.explain(
            AggregateQuery("sum", Selection(rows=range(25), cols=range(10)))
        )
        assert saved.u_pool_stats.accesses == before  # side-effect free
        assert plan["path"] == "factor"
        assert plan["estimated_row_fetches"] == 25

    def test_explain_reports_summary_path_for_covered_selection(self, saved):
        engine = QueryEngine(saved)
        plan = engine.explain(AggregateQuery("sum", Selection(cols=range(25))))
        assert plan["path"] == "summary"
        assert plan["estimated_row_fetches"] == 0

    def test_explain_estimate_matches_execution(self, saved):
        engine = QueryEngine(saved)
        query = AggregateQuery("stddev", Selection(rows=range(0, 120, 5)))
        plan = engine.explain(query)
        result = engine.aggregate(query)
        assert plan["estimated_row_fetches"] == result.rows_fetched

    def test_explain_in_memory_factor_path_is_free(self, svdd_model):
        plan = QueryEngine(svdd_model).explain(AggregateQuery("sum", Selection()))
        assert plan["path"] == "factor"
        assert plan["cells"] == svdd_model.num_rows * svdd_model.num_cols
        assert plan["estimated_row_fetches"] == 0
        assert plan["estimated_pages"] == 0
        assert plan["error_bound"] == 0.0


class TestEmptySelections:
    def test_empty_row_slice_raises_query_error(self, data):
        engine = QueryEngine(data)
        with pytest.raises(QueryError):
            engine.aggregate(AggregateQuery("sum", Selection(rows=slice(5, 5))))

    def test_empty_col_slice_raises_query_error(self, data):
        engine = QueryEngine(data)
        with pytest.raises(QueryError):
            engine.aggregate(AggregateQuery("min", Selection(cols=slice(3, 3))))
