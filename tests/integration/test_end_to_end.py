"""End-to-end pipeline: generate -> store on disk -> 3-pass fit ->
persist -> reopen -> query, comparing approximate answers to exact ones."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressedMatrix, SVDDCompressor, build_compressed
from repro.data.phone import iter_phone_rows
from repro.metrics import query_error, rmspe
from repro.query import AggregateQuery, QueryEngine, Selection
from repro.lab.workload import random_aggregate_queries, random_cell_queries
from repro.storage import MatrixStore


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, phone_medium):
    """The full warehouse pipeline on 600 customers."""
    root = tmp_path_factory.mktemp("pipeline")
    # Load the data out-of-core, row by row (never materializing it).
    raw = MatrixStore.create_from_rows(
        root / "raw.mat", iter_phone_rows(600), num_cols=366
    )
    compressed = build_compressed(raw, root / "model", 0.10)
    # The same compressor in memory, for the model-level claims.
    model = SVDDCompressor(budget_fraction=0.10).fit(phone_medium)
    yield raw, model, compressed, phone_medium
    compressed.close()
    raw.close()


class TestPipeline:
    def test_construction_used_three_passes(self, pipeline):
        raw, _model, _compressed, _data = pipeline
        assert raw.pass_count == 3

    def test_stored_raw_matches_generator(self, pipeline):
        raw, _model, _compressed, data = pipeline
        assert np.allclose(raw.row(123), data[123])

    def test_compression_ratio_10_to_1(self, pipeline):
        _raw, model, compressed, data = pipeline
        assert model.space_fraction() <= 0.10
        assert compressed.space_bytes() == model.space_bytes()

    def test_rmspe_in_paper_range(self, pipeline):
        """Paper: ~2% error at 10% space on phone data."""
        _raw, model, _compressed, data = pipeline
        assert rmspe(data, model.reconstruct()) < 0.06

    def test_reopened_store_serves_cells(self, pipeline):
        _raw, model, compressed, data = pipeline
        reopened = CompressedMatrix.open(compressed.directory)
        for query in random_cell_queries(data.shape, count=50, seed=4):
            assert reopened.cell(query.row, query.col) == pytest.approx(
                model.reconstruct_cell(query.row, query.col), abs=1e-9
            )
        reopened.close()

    def test_cell_queries_accurate(self, pipeline):
        _raw, _model, compressed, data = pipeline
        engine = QueryEngine(compressed)
        std = float(data.std())
        for query in random_cell_queries(data.shape, count=100, seed=5):
            approx = engine.cell(query).value
            assert abs(approx - data[query.row, query.col]) < 1.0 * std

    def test_aggregate_queries_much_more_accurate_than_cells(self, pipeline):
        """Fig. 9: aggregation cancels errors."""
        _raw, model, _compressed, data = pipeline
        exact = QueryEngine(data)
        approx = QueryEngine(model)
        errors = []
        for query in random_aggregate_queries(data.shape, count=15, seed=6):
            truth = exact.aggregate(query).value
            errors.append(query_error(truth, approx.aggregate(query).value))
        assert float(np.mean(errors)) < 0.01

    def test_business_week_query(self, pipeline):
        """The paper's motivating example: total sales to selected
        customers for one selected week."""
        _raw, model, _compressed, data = pipeline
        week = Selection(rows=[0, 1, 2, 3], cols=list(range(7, 14)))
        query = AggregateQuery("sum", week)
        truth = QueryEngine(data).aggregate(query).value
        estimate = QueryEngine(model).aggregate(query).value
        if truth > 0:
            assert query_error(truth, estimate) < 0.25


class TestBatchedRebuild:
    """Paper assumption: updates are rare and batched off-line."""

    def test_rebuild_after_appending_rows(self, tmp_path, phone_small):
        rng = np.random.default_rng(2)
        extra = rng.random((20, 366)) * 3
        updated = np.vstack([phone_small, extra])
        model = SVDDCompressor(budget_fraction=0.10).fit(updated)
        store = build_compressed(updated, tmp_path / "v2", 0.10)
        assert store.shape == (220, 366)
        assert store.cell(219, 100) == pytest.approx(
            model.reconstruct_cell(219, 100)
        )
        store.close()
