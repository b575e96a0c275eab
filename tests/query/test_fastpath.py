"""Tests for the factor-space aggregate fast path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SVDCompressor, SVDDCompressor, build_compressed
from repro.exceptions import QueryError
from repro.lab.methods import SVDDMethod
from repro.query import AggregateQuery, QueryEngine, Selection
from repro.query.fastpath import factor_aggregate
from tests.conftest import run_route


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(41)
    x = rng.random((200, 40)) * 10
    x[17, 3] += 500.0  # ensure deltas exist
    x[90, 22] += 300.0
    return x


@pytest.fixture(scope="module")
def svd_model(data):
    return SVDCompressor(budget_fraction=0.20).fit(data)


@pytest.fixture(scope="module")
def svdd_model(data):
    return SVDDCompressor(budget_fraction=0.20).fit(data)


SELECTIONS = [
    Selection(rows=[0, 5, 17, 90], cols=[0, 3, 22, 39]),
    Selection(rows=range(50), cols=range(10)),
    Selection(),  # everything
    Selection(rows=[17], cols=[3]),  # a single delta cell
]


class TestAgreementWithStreaming:
    """The fast path must equal the row-streaming path exactly."""

    @pytest.mark.parametrize("function", ["sum", "avg", "count", "stddev"])
    @pytest.mark.parametrize("selection_idx", range(len(SELECTIONS)))
    def test_svd_backend(self, svd_model, function, selection_idx):
        query = AggregateQuery(function, SELECTIONS[selection_idx])
        engine = QueryEngine(svd_model)
        fast = engine.aggregate(query)
        assert fast.route == "factor"
        # stddev of a tiny selection suffers catastrophic cancellation in
        # E[x^2] - E[x]^2 (both paths use it); allow absolute slack at the
        # scale sqrt(eps) * |x| implies.
        assert fast.value == pytest.approx(
            run_route(engine, query, "stream").value, rel=1e-9, abs=1e-4
        )

    @pytest.mark.parametrize("function", ["sum", "avg", "count", "stddev"])
    @pytest.mark.parametrize("selection_idx", range(len(SELECTIONS)))
    def test_svdd_backend_with_deltas(self, svdd_model, function, selection_idx):
        assert svdd_model.num_deltas > 0  # the point of this test
        query = AggregateQuery(function, SELECTIONS[selection_idx])
        engine = QueryEngine(svdd_model)
        assert run_route(engine, query, "factor").value == pytest.approx(
            run_route(engine, query, "stream").value, rel=1e-9, abs=1e-4
        )

    def test_method_adapter_backend(self, data):
        fitted = SVDDMethod().fit(data, 0.20)
        query = AggregateQuery("sum", Selection(rows=range(30), cols=range(5)))
        engine = QueryEngine(fitted)
        fast = engine.aggregate(query)
        assert fast.route == "factor"
        assert fast.value == pytest.approx(
            run_route(engine, query, "stream").value, rel=1e-9
        )


class TestFallbacks:
    def test_min_max_fall_back(self, svdd_model):
        engine = QueryEngine(svdd_model)
        for function in ("min", "max"):
            result = engine.aggregate(
                AggregateQuery(function, Selection(rows=range(10)))
            )
            assert result.route == "stream"

    def test_ndarray_backend_falls_back(self, data):
        engine = QueryEngine(data)
        result = engine.aggregate(AggregateQuery("sum", Selection(rows=range(10))))
        assert result.route == "stream"

    def test_factor_aggregate_rejects_unknown(self, svd_model):
        rows = np.arange(5)
        cols = np.arange(5)
        assert factor_aggregate(svd_model, rows, cols, "min") is None
        # An unsupported source is an error, not a silent fallback.
        with pytest.raises(QueryError):
            factor_aggregate("not a model", rows, cols, "sum")


class TestComplexity:
    def test_fast_path_never_fetches_rows(self, svdd_model):
        engine = QueryEngine(svdd_model)
        result = engine.aggregate(AggregateQuery("avg", Selection()))
        assert result.route == "factor"
        assert result.rows_fetched == 0
        assert result.cells_touched == svdd_model.num_rows * svdd_model.num_cols


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    function=st.sampled_from(["sum", "avg", "stddev"]),
)
def test_property_fast_equals_slow(seed, function):
    rng = np.random.default_rng(seed)
    x = rng.random((40, 15)) * 5
    model = SVDDCompressor(budget_fraction=0.30).fit(x)
    rows = sorted(set(rng.integers(0, 40, size=8).tolist()))
    cols = sorted(set(rng.integers(0, 15, size=5).tolist()))
    query = AggregateQuery(function, Selection(rows=rows, cols=cols))
    engine = QueryEngine(model)
    fast = run_route(engine, query, "factor").value
    slow = run_route(engine, query, "stream").value
    assert fast == pytest.approx(slow, rel=1e-8, abs=1e-8)


class TestCompressedMatrixBackend:
    def test_agrees_with_streaming(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("fp") / "model"
        store = build_compressed(data, directory, 0.20)
        query = AggregateQuery("sum", Selection(rows=range(0, 200, 7), cols=range(0, 40, 3)))
        engine = QueryEngine(store)
        fast = engine.aggregate(query)
        assert fast.route == "factor"
        assert fast.value == pytest.approx(
            run_route(engine, query, "stream").value, rel=1e-6
        )
        store.close()

    def test_stddev_with_deltas(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("fp2") / "model"
        store = build_compressed(data, directory, 0.20)
        query = AggregateQuery("stddev", Selection(rows=range(100)))
        engine = QueryEngine(store)
        fast = run_route(engine, query, "factor").value
        slow = run_route(engine, query, "stream").value
        assert fast == pytest.approx(slow, rel=1e-6, abs=1e-6)
        store.close()
