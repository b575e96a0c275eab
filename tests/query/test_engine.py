"""Tests for the query engine over its supported backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SVDDCompressor, build_compressed
from repro.exceptions import QueryError
from repro.query import AggregateQuery, CellQuery, QueryEngine, Selection
from repro.storage import MatrixStore
from tests.conftest import run_route


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(77)
    return rng.random((40, 12)) * 10


@pytest.fixture(scope="module")
def engine(data):
    return QueryEngine(data)


class TestCellQueries:
    def test_exact_value(self, engine, data):
        result = engine.cell(CellQuery(7, 3))
        assert result.value == data[7, 3]
        assert result.cells_touched == 1

    def test_tuple_shorthand(self, engine, data):
        assert engine.cell((0, 0)).value == data[0, 0]

    def test_bounds(self, engine):
        with pytest.raises(QueryError):
            engine.cell(CellQuery(40, 0))
        with pytest.raises(QueryError):
            engine.cell(CellQuery(0, 12))


class TestAggregates:
    @pytest.mark.parametrize(
        "function,reference",
        [
            ("sum", np.sum),
            ("avg", np.mean),
            ("min", np.min),
            ("max", np.max),
            ("stddev", np.std),
        ],
    )
    def test_matches_numpy(self, engine, data, function, reference):
        selection = Selection(rows=[1, 5, 9], cols=[0, 3, 7, 11])
        query = AggregateQuery(function, selection)
        expected = reference(data[np.ix_([1, 5, 9], [0, 3, 7, 11])])
        assert engine.aggregate(query).value == pytest.approx(float(expected))

    def test_count(self, engine):
        query = AggregateQuery("count", Selection(rows=[0, 1], cols=[2, 3, 4]))
        assert engine.aggregate(query).value == 6.0

    def test_full_matrix_sum(self, engine, data):
        query = AggregateQuery("sum", Selection())
        assert engine.aggregate(query).value == pytest.approx(float(data.sum()))

    def test_accounting(self, engine):
        query = AggregateQuery("avg", Selection(rows=[0, 1, 2], cols=[0, 1]))
        result = engine.aggregate(query)
        assert result.cells_touched == 6
        assert result.rows_fetched == 3

    def test_unknown_function_rejected(self):
        with pytest.raises(QueryError):
            AggregateQuery("median", Selection())


class TestBackends:
    def test_matrix_store_backend(self, tmp_path, data):
        store = MatrixStore.create(tmp_path / "m.mat", data)
        engine = QueryEngine(store)
        query = AggregateQuery("sum", Selection(rows=[2, 3], cols=[1]))
        assert engine.aggregate(query).value == pytest.approx(
            float(data[[2, 3], 1].sum())
        )
        assert engine.cell((5, 5)).value == data[5, 5]
        store.close()

    def test_model_backend_approximates(self, data):
        model = SVDDCompressor(budget_fraction=0.30).fit(data)
        exact = QueryEngine(data)
        approx = QueryEngine(model)
        query = AggregateQuery("avg", Selection(rows=list(range(20)), cols=[0, 5]))
        exact_value = exact.aggregate(query).value
        approx_value = approx.aggregate(query).value
        assert approx_value == pytest.approx(exact_value, rel=0.1)

    def test_compressed_store_backend(self, tmp_path, data):
        model = SVDDCompressor(budget_fraction=0.30).fit(data)
        store = build_compressed(data, tmp_path / "cm", 0.30)
        engine = QueryEngine(store)
        assert engine.cell((3, 3)).value == pytest.approx(
            model.reconstruct_cell(3, 3)
        )
        store.close()

    def test_unsupported_backend_rejected(self):
        with pytest.raises(QueryError):
            QueryEngine("not a backend")

    def test_1d_array_rejected(self):
        with pytest.raises(QueryError):
            QueryEngine(np.ones(5))


class TestExplain:
    def test_cell_query(self, engine):
        plan = engine.explain(CellQuery(1, 1))
        assert plan == {"path": "cell", "cells": 1, "estimated_row_fetches": 1}

    @pytest.mark.parametrize("cell", [(99999, 0), (0, 99999), (-1, 0), (0, -1)])
    def test_out_of_range_cell_fails_as_execute_does(self, engine, cell):
        with pytest.raises(QueryError, match="out of range") as executed:
            engine.execute(cell)
        with pytest.raises(QueryError, match="out of range") as explained:
            engine.explain(cell)
        assert str(explained.value) == str(executed.value)

    def test_stream_path_for_ndarray(self, engine):
        plan = engine.explain(AggregateQuery("sum", Selection(rows=range(5))))
        assert plan["path"] == "stream"
        assert plan["estimated_row_fetches"] == 5
        assert plan["cells"] == 5 * 12

    def test_factor_path_for_model(self, data):
        model = SVDDCompressor(budget_fraction=0.30).fit(data)
        engine = QueryEngine(model)
        plan = engine.explain(AggregateQuery("avg", Selection()))
        assert plan["path"] == "factor"
        assert plan["estimated_row_fetches"] == 0

    def test_min_streams_even_on_model(self, data):
        model = SVDDCompressor(budget_fraction=0.30).fit(data)
        engine = QueryEngine(model)
        plan = engine.explain(AggregateQuery("min", Selection()))
        assert plan["path"] == "stream"

    def test_disabled_fast_path_streams(self, data):
        model = SVDDCompressor(budget_fraction=0.30).fit(data)
        result = run_route(QueryEngine(model), AggregateQuery("sum", Selection()), "stream")
        assert result.route == "stream"
        assert result.rows_fetched == model.num_rows
