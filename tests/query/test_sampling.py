"""Tests for the uniform-sampling aggregate estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import BudgetError, QueryError
from repro.query import AggregateQuery, Selection
from repro.lab.sampling import UniformSamplingEstimator


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    return rng.random((500, 30)) * 100


class TestConstruction:
    def test_sample_size_respects_budget(self, data):
        estimator = UniformSamplingEstimator(data, 0.10)
        # 10% budget / ((M+1)/M per-row overhead) ~ 48 of 500 rows.
        assert 40 <= estimator.sample_size <= 50
        assert estimator.space_fraction() <= 0.10 + 1e-12

    def test_budget_too_small(self, data):
        with pytest.raises(BudgetError):
            UniformSamplingEstimator(data, 0.0001)

    def test_not_2d_rejected(self):
        with pytest.raises(QueryError):
            UniformSamplingEstimator(np.ones(5), 0.5)

    def test_deterministic_given_seed(self, data):
        a = UniformSamplingEstimator(data, 0.1, seed=3)
        b = UniformSamplingEstimator(data, 0.1, seed=3)
        assert a._sample_rows.tolist() == b._sample_rows.tolist()


class TestEstimates:
    def test_full_matrix_avg_close(self, data):
        estimator = UniformSamplingEstimator(data, 0.20)
        query = AggregateQuery("avg", Selection())
        estimate = estimator.aggregate(query).value
        assert estimate == pytest.approx(float(data.mean()), rel=0.1)

    def test_sum_scales_by_inclusion(self, data):
        estimator = UniformSamplingEstimator(data, 0.50)
        query = AggregateQuery("sum", Selection())
        estimate = estimator.aggregate(query).value
        assert estimate == pytest.approx(float(data.sum()), rel=0.1)

    def test_count_is_exact(self, data):
        estimator = UniformSamplingEstimator(data, 0.20)
        query = AggregateQuery("count", Selection(rows=[0, 1, 2], cols=[0, 1]))
        # Count needs no data, only the selection size; but the
        # selection must intersect the sample to be answerable at all.
        try:
            assert estimator.aggregate(query).value == 6.0
        except QueryError:
            pass  # legitimately unanswerable if no sampled row intersects

    def test_disjoint_selection_unanswerable(self, data):
        estimator = UniformSamplingEstimator(data, 0.05, seed=1)
        sampled = set(estimator._sample_rows.tolist())
        missing = [row for row in range(500) if row not in sampled][:5]
        with pytest.raises(QueryError):
            estimator.aggregate(AggregateQuery("avg", Selection(rows=missing)))

    def test_cell_queries_unanswerable(self, data):
        """The paper: sampling cannot estimate individual cells."""
        estimator = UniformSamplingEstimator(data, 0.20)
        with pytest.raises(QueryError):
            estimator.cell(0, 0)


class TestVersusSVDD:
    def test_sampling_worse_than_svdd_on_selective_queries(self, data):
        """Section 5.2: uniform sampling performs poorly vs SVDD."""
        from repro.core import SVDDCompressor
        from repro.metrics import query_error
        from repro.query import QueryEngine
        from repro.lab.workload import random_aggregate_queries

        budget = 0.05
        svdd = QueryEngine(SVDDCompressor(budget_fraction=budget).fit(data))
        sampler = UniformSamplingEstimator(data, budget)
        exact = QueryEngine(data)
        queries = random_aggregate_queries(data.shape, count=20, seed=3)
        svdd_errors, sample_errors = [], []
        for query in queries:
            truth = exact.aggregate(query).value
            svdd_errors.append(query_error(truth, svdd.aggregate(query).value))
            try:
                sample_errors.append(
                    query_error(truth, sampler.aggregate(query).value)
                )
            except QueryError:
                sample_errors.append(1.0)  # unanswerable counts as total miss
        assert float(np.mean(svdd_errors)) < float(np.mean(sample_errors))
