"""The summary store's read side: exactness, planning, validation.

Every number served from the rollups must equal what a full
delta-corrected scan of the model produces — the store is a cache of
exact answers, not an approximation.  It keeps the per-day sum and sum
of squares: a min/max, or a selection short of every row, is planned
elsewhere.  The loader must refuse anything
not stamped for the live model generation (shape, delta count, append
counter) so a crashed or foreign store silently falls back to the
factor path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.exceptions import QueryError
from repro.query import AggregateQuery, QueryEngine, Selection, bucket_series
from repro.summaries import LEVELS, SummaryStore, level_edges
from repro.query.backend import as_backend
from repro.summaries import compute
from repro.summaries.compute import STATE_NAME
from tests.conftest import run_route


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    rng = np.random.default_rng(1997)
    data = rng.random((180, 95)) * 10
    data[4, 9] += 300.0  # outliers so the delta sidecar is non-empty
    data[77, 50] += 250.0
    directory = tmp_path_factory.mktemp("summaries") / "model"
    store = build_compressed(data, directory, budget_fraction=0.20)
    store.close()
    return directory


@pytest.fixture(scope="module")
def exact(model_dir):
    with CompressedMatrix.open(model_dir) as store:
        rows, cols = store.shape
        return store.reconstruct_range(np.arange(rows), np.arange(cols))


class TestLevelEdges:
    def test_structural_widths(self):
        edges = level_edges("week", 30)
        assert edges[0] == 0 and edges[-1] == 30
        assert list(np.diff(edges))[:-1] == [7] * 4  # trailing bucket clipped

    def test_day_is_identity(self):
        assert level_edges("day", 5).tolist() == [0, 1, 2, 3, 4, 5]

    def test_calendar_months(self):
        # Column 0 = 1996-01-15: first boundary at Feb 1 (day 17).
        edges = level_edges("month", 60, start_date="1996-01-15")
        assert edges[0] == 0 and edges[1] == 17
        assert edges[2] == 17 + 29  # Feb 1996 is a leap month

    def test_unknown_level_rejected(self):
        with pytest.raises(QueryError):
            level_edges("fortnight", 30)


class TestExactness:
    def test_marginals_match_reconstruction(self, model_dir, exact):
        store = SummaryStore.load(model_dir)
        assert store is not None
        assert store.col_stats.shape == (2, exact.shape[1])
        squares = exact * exact
        np.testing.assert_allclose(store.col_stats[0], exact.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(store.col_stats[1], squares.sum(axis=0), rtol=1e-12)
        # The per-customer profile comes from the same identities.
        with CompressedMatrix.open(model_dir) as saved:
            day, customer = as_backend(saved).profiles
        np.testing.assert_array_equal(day, store.col_stats)
        np.testing.assert_allclose(customer[0], exact.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(customer[1], squares.sum(axis=1), rtol=1e-12)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 18])
    def test_the_delta_fold_is_chunk_free(self, model_dir, exact, chunk, monkeypatch):
        # Chunks that split rows and skip empty ones fold the same deltas.
        monkeypatch.setattr(compute, "_DELTA_CHUNK", chunk)
        with CompressedMatrix.open(model_dir) as saved:
            scaled_u, v, index, _fetched = saved.factors(np.arange(saved.shape[0]))
        assert len(index) > 2
        for axis in (0, 1):
            profile = compute.factor_profile(scaled_u, v, index, axis)
            np.testing.assert_allclose(profile[0], exact.sum(axis=axis), rtol=1e-12)
            np.testing.assert_allclose(profile[1], (exact * exact).sum(axis=axis), rtol=1e-12)

    @pytest.mark.parametrize("level", LEVELS)
    def test_level_rollups_match_reconstruction(self, model_dir, exact, level):
        store = SummaryStore.load(model_dir)
        edges, stats = store.rollup(level)
        assert store.rollup(level)[1] is stats  # bucketed once per store
        assert stats.shape == (2, edges.size - 1)
        for i in range(edges.size - 1):
            block = exact[:, edges[i] : edges[i + 1]]
            assert stats[0, i] == pytest.approx(block.sum(), rel=1e-12)
            assert stats[1, i] == pytest.approx((block * block).sum(), rel=1e-12)

    @pytest.mark.parametrize(
        "function", ["sum", "avg", "count", "min", "max", "stddev"]
    )
    def test_engine_summary_equals_streamed(self, model_dir, function, exact):
        with CompressedMatrix.open(model_dir) as saved:
            query = AggregateQuery(function, Selection(cols=range(0, 95, 3)))
            engine = QueryEngine(saved)
            with_summaries = engine.aggregate(query)
            reference = run_route(engine, query, "stream")
            # The store keeps sums: a min/max over every row streams.
            covered = function not in ("min", "max")
            assert with_summaries.route == ("summary" if covered else "stream")
            assert with_summaries.value == pytest.approx(
                reference.value, rel=1e-9, abs=1e-9
            )
            assert with_summaries.rows_fetched == (0 if covered else 180)

    def test_grand_components(self, model_dir, exact):
        store = SummaryStore.load(model_dir)
        rows, cols = np.arange(store.model_rows), np.arange(store.model_cols)
        grand = store.plan(rows, cols, "stddev")
        assert grand.total == pytest.approx(exact.sum(), rel=1e-12)
        assert grand.total_sq == pytest.approx((exact * exact).sum(), rel=1e-12)
        assert grand.count == exact.size
        for function in ("min", "max"):
            assert store.plan(rows, cols, function) is None


class TestPlanning:
    def test_full_axis_plans(self, model_dir):
        store = SummaryStore.load(model_dir)
        rows, cols = store.model_rows, store.model_cols
        plan = store.plan(np.arange(rows), np.arange(0, cols, 2), "sum")
        assert plan is not None and plan.count == rows * ((cols + 1) // 2)
        # A full-column selection is the factor route's: the store keeps
        # no per-customer profile.
        assert store.plan(np.arange(0, rows, 5), np.arange(cols), "sum") is None

    def test_sub_rectangle_returns_none(self, model_dir):
        store = SummaryStore.load(model_dir)
        assert store.plan(np.arange(10), np.arange(10), "sum") is None

    @pytest.mark.parametrize("function", ["sum", "min", "max", "stddev"])
    def test_bucket_values_match_reconstruction(self, model_dir, exact, function):
        with CompressedMatrix.open(model_dir) as saved:
            series = bucket_series(saved, "month", function)
        assert series["path"] == ("stream" if function in ("min", "max") else "summary")
        edges, values = np.asarray(series["edges"]), series["values"]
        for i in range(edges.size - 1):
            block = exact[:, edges[i] : edges[i + 1]]
            ref = {
                "sum": block.sum,
                "min": block.min,
                "max": block.max,
                "stddev": block.std,
            }[function]()
            assert values[i] == pytest.approx(float(ref), rel=1e-9, abs=1e-9)

    def test_bucket_values_rejects_unknown_axis(self, model_dir):
        with pytest.raises(QueryError):
            SummaryStore.load(model_dir).rollup("hour")
        with CompressedMatrix.open(model_dir) as saved, pytest.raises(QueryError):
            bucket_series(saved, "hour", "sum")


class TestValidation:
    def test_missing_store_loads_none(self, tmp_path):
        assert SummaryStore.load(tmp_path) is None

    def test_stale_generation_refused(self, model_dir, tmp_path):
        import shutil

        copy = tmp_path / "copy"
        shutil.copytree(model_dir, copy)
        state = json.loads((copy / STATE_NAME).read_text())
        state["appends"] += 1  # claims a generation the model is not at
        (copy / STATE_NAME).write_text(json.dumps(state))
        assert SummaryStore.load(copy) is None
        # The open model falls back cleanly: factor path, not a crash.
        with CompressedMatrix.open(copy) as saved:
            assert saved.summaries is None
            engine = QueryEngine(saved)
            result = engine.aggregate(AggregateQuery("sum", Selection()))
            assert result.route == "factor"
            assert np.isfinite(result.value)

    def test_corrupt_summary_array_refused(self, model_dir, tmp_path):
        import shutil

        copy = tmp_path / "copy"
        shutil.copytree(model_dir, copy)
        (copy / "summary_cols.npy").write_bytes(b"not an npy file")
        assert SummaryStore.load(copy) is None

    def test_wrong_shape_refused(self, model_dir, tmp_path):
        import shutil

        copy = tmp_path / "copy"
        shutil.copytree(model_dir, copy)
        np.save(copy / "summary_cols.npy", np.zeros((2, 3)))
        assert SummaryStore.load(copy) is None
