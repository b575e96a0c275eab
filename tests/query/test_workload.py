"""Tests for the query-workload generators."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.lab.workload import random_aggregate_queries, random_cell_queries


class TestAggregateWorkload:
    def test_count_and_function(self):
        queries = random_aggregate_queries((100, 50), count=50)
        assert len(queries) == 50
        assert all(q.function == "avg" for q in queries)

    def test_coverage_near_target(self):
        queries = random_aggregate_queries((1000, 366), count=30, target_fraction=0.10)
        fractions = [
            q.selection.cell_count((1000, 366)) / (1000 * 366) for q in queries
        ]
        mean = sum(fractions) / len(fractions)
        assert 0.05 < mean < 0.15

    def test_deterministic(self):
        a = random_aggregate_queries((50, 20), count=5, seed=9)
        b = random_aggregate_queries((50, 20), count=5, seed=9)
        for qa, qb in zip(a, b):
            assert qa.selection.resolve((50, 20))[0].tolist() == qb.selection.resolve(
                (50, 20)
            )[0].tolist()

    def test_custom_function(self):
        queries = random_aggregate_queries((10, 10), count=3, function="sum")
        assert all(q.function == "sum" for q in queries)

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            random_aggregate_queries((10, 10), count=0)


class TestCellWorkload:
    def test_count_and_bounds(self):
        queries = random_cell_queries((30, 20), count=200)
        assert len(queries) == 200
        assert all(0 <= q.row < 30 and 0 <= q.col < 20 for q in queries)

    def test_deterministic(self):
        assert random_cell_queries((30, 20), count=5, seed=2) == random_cell_queries(
            (30, 20), count=5, seed=2
        )

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            random_cell_queries((10, 10), count=-1)
