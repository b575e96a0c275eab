"""Equivalence and accounting tests for the vectorized query paths.

The batch APIs (``QueryEngine.cells``, the blocked streaming aggregate,
``CompressedMatrix.cells``/``reconstruct_range`` over the DeltaIndex)
must agree with the scalar paths to float tolerance, and the execution
accounting must report real work: row fetches on the factor fast path
against a disk-resident backend, and a side-effect-free ``explain``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressedMatrix, DeltaIndex, SVDDCompressor, SVDDModel, SVDModel
from repro.exceptions import QueryError
from repro.query import AggregateQuery, CellQuery, QueryEngine, Selection
from repro.storage import MatrixStore


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
def saved(tmp_path_factory, svdd_model):
    directory = tmp_path_factory.mktemp("batch") / "model"
    store = CompressedMatrix.save(svdd_model, directory)
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
    return SVDDModel(svd=svd, deltas=DeltaIndex(keys, values, num_cols))


class TestBatchCells:
    def test_matches_scalar_cells_on_compressed(self, saved):
        rng = np.random.default_rng(7)
        queries = [
            (int(r), int(c))
            for r, c in zip(rng.integers(0, 120, 50), rng.integers(0, 30, 50))
        ]
        engine = QueryEngine(saved)
        batch = engine.cells(queries)
        assert len(batch) == 50
        for (row, col), result in zip(queries, batch):
            assert result.value == pytest.approx(
                engine.cell((row, col)).value, rel=1e-12, abs=1e-12
            )
            assert result.cells_touched == 1
            assert result.rows_fetched == 1

    def test_accepts_cellquery_objects(self, saved):
        engine = QueryEngine(saved)
        batch = engine.cells([CellQuery(0, 0), (1, 1)])
        assert batch[0].value == pytest.approx(engine.cell((0, 0)).value)
        assert batch[1].value == pytest.approx(engine.cell((1, 1)).value)

    def test_empty_batch(self, saved):
        assert QueryEngine(saved).cells([]) == []

    def test_bounds_checked(self, saved):
        with pytest.raises(QueryError):
            QueryEngine(saved).cells([(0, 0), (999, 0)])

    @pytest.mark.parametrize("backend_kind", ["ndarray", "model", "store"])
    def test_matches_scalar_on_all_backends(
        self, tmp_path, data, svdd_model, backend_kind
    ):
        backend = {
            "ndarray": data,
            "model": svdd_model,
            "store": None,
        }[backend_kind]
        if backend_kind == "store":
            backend = MatrixStore.create(tmp_path / "m.mat", data)
        engine = QueryEngine(backend)
        queries = [(3, 4), (3, 4), (119, 29), (0, 0)]  # duplicates allowed
        batch = engine.cells(queries)
        for pair, result in zip(queries, batch):
            assert result.value == pytest.approx(engine.cell(pair).value)
        if backend_kind == "store":
            backend.close()


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
        engine = QueryEngine(data, use_fast_path=False)
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
        fast = QueryEngine(model, use_fast_path=True).aggregate(query).value
        slow = QueryEngine(model, use_fast_path=False).aggregate(query).value
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
        model = delta_heavy_model()
        store = CompressedMatrix.save(model, tmp_path / "dh")
        rows = [17, 3, 44]  # deliberately unsorted
        cols = [20, 1, 9, 0]
        block = store.reconstruct_range(rows, cols)
        expected = model.reconstruct()[np.ix_(rows, cols)]
        np.testing.assert_allclose(block, expected, rtol=1e-9, atol=1e-9)
        store.close()


class TestAccounting:
    def test_fast_path_reports_real_row_fetches_on_disk(self, saved):
        # use_summaries=False: a full-column selection would otherwise be
        # answered from the materialized rollups without touching U.
        engine = QueryEngine(saved, use_fast_path=True, use_summaries=False)
        query = AggregateQuery("sum", Selection(rows=range(10)))
        result = engine.aggregate(query)
        assert engine.stats["fast_path_hits"] == 1
        assert result.rows_fetched == 10  # U rows really fetched from disk

    def test_fast_path_reports_zero_fetches_in_memory(self, svdd_model):
        engine = QueryEngine(svdd_model, use_fast_path=True)
        result = engine.aggregate(AggregateQuery("sum", Selection(rows=range(10))))
        assert result.rows_fetched == 0

    def test_count_needs_no_fetches_anywhere(self, saved):
        result = QueryEngine(saved).aggregate(
            AggregateQuery("count", Selection(rows=range(10)))
        )
        assert result.rows_fetched == 0

    def test_explain_performs_no_disk_access(self, saved):
        engine = QueryEngine(saved, use_summaries=False)
        before = saved.u_pool_stats.accesses
        plan = engine.explain(AggregateQuery("sum", Selection(rows=range(25))))
        assert saved.u_pool_stats.accesses == before  # side-effect free
        assert plan["path"] == "factor"
        assert plan["estimated_row_fetches"] == 25

    def test_explain_reports_summary_path_for_covered_selection(self, saved):
        engine = QueryEngine(saved)
        plan = engine.explain(AggregateQuery("sum", Selection(rows=range(25))))
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
