"""Unit tests for the cost-based aggregate planner.

Covers the route lattice and pricing (``repro.plan``), the
``max_rmspe`` budget semantics — including the structural guarantee
that ``max_rmspe=0.0`` can never select the approximate SVD-only
route — explain/execute parity on a store that lost its deltas (what
the serving tier's brownout budget meets on a degraded open), the
typed-error contract for malformed cell tuples, and the stepped-range
DoS guard in :class:`Selection`.
"""

from __future__ import annotations

import dataclasses
import shutil

import numpy as np
import pytest

from repro.core import SVDDCompressor
from repro.core.build import build_compressed
from repro.exceptions import QueryError, RouteUnavailableError
from repro.plan import (
    ROUTE_FACTOR,
    ROUTE_STREAM,
    ROUTE_SUMMARY,
    ROUTE_SVD,
    ROUTES,
    plan_aggregate,
)
from repro.plan import planner
from repro.plan.planner import validate_max_rmspe
from repro.query import AggregateQuery, QueryEngine, Selection
from repro.query.backend import as_backend
from tests.conftest import lose_deltas, run_route


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(4117)
    x = rng.standard_normal((80, 6)) @ rng.standard_normal((6, 24))
    x[3, 5] += 300.0  # outliers so the compressor stores deltas
    x[40, 11] -= 250.0
    x[77, 0] += 400.0
    return x


@pytest.fixture(scope="module")
def svdd_model(data):
    model = SVDDCompressor(budget_fraction=0.25).fit(data)
    assert model.num_deltas > 0
    return model


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, data):
    """A build_compressed model: summaries AND a stored RMSPE estimate."""
    directory = tmp_path_factory.mktemp("planner") / "model"
    build_compressed(data, directory, budget_fraction=0.25).close()
    return directory


@pytest.fixture(scope="module")
def compressed(model_dir):
    from repro.core import CompressedMatrix

    store = CompressedMatrix.open(model_dir)
    yield store
    store.close()


@pytest.fixture(scope="module")
def lost(tmp_path_factory, model_dir):
    """``model_dir``'s model opened degraded after its ``deltas.bin``
    broke: the planner must find no exact fold on it."""
    from repro.core import CompressedMatrix

    directory = tmp_path_factory.mktemp("planner-lost") / "model"
    shutil.copytree(model_dir, directory)
    lose_deltas(directory)
    store = CompressedMatrix.open(directory, on_corrupt="degraded")
    assert store.deltas_lost and store.rmspe_estimate is not None
    yield store
    store.close()


def _resolve(backend, rows=None, cols=None):
    return Selection(rows=rows, cols=cols).resolve(tuple(backend.shape))


class TestRouteSelection:
    def test_full_axis_hits_summary(self, compressed):
        row_idx, col_idx = _resolve(compressed, cols=range(0, 10))
        plan = plan_aggregate(compressed, "avg", row_idx, col_idx)
        assert plan.route.name == ROUTE_SUMMARY
        assert plan.route.pages == 0
        assert plan.route.row_fetches == 0
        assert plan.route.error_bound == 0.0

    def test_sub_rectangle_prefers_factor(self, compressed):
        row_idx, col_idx = _resolve(compressed, rows=range(0, 10), cols=range(0, 10))
        plan = plan_aggregate(compressed, "sum", row_idx, col_idx)
        assert plan.route.name == ROUTE_FACTOR
        names = [c.name for c in plan.candidates]
        assert ROUTE_STREAM in names  # stream always admissible, just pricier
        assert plan.route.error_bound == 0.0

    def test_candidates_sorted_cheapest_first(self, compressed):
        row_idx, col_idx = _resolve(compressed, rows=range(0, 30), cols=range(0, 12))
        plan = plan_aggregate(compressed, "sum", row_idx, col_idx)
        costs = [c.cost_ms for c in plan.candidates]
        assert costs == sorted(costs)
        assert plan.candidates[0] is plan.route

    def test_min_max_cannot_use_factor_space(self, compressed):
        row_idx, col_idx = _resolve(compressed, rows=range(0, 10), cols=range(0, 10))
        plan = plan_aggregate(compressed, "min", row_idx, col_idx)
        assert plan.route.name == ROUTE_STREAM
        rejected = {r.name: r.reason for r in plan.rejected}
        assert "per-cell values" in rejected[ROUTE_FACTOR]
        assert "per-cell values" in rejected[ROUTE_SVD]

    def test_count_is_free_of_io(self, compressed):
        row_idx, col_idx = _resolve(compressed, rows=range(0, 10), cols=range(0, 10))
        plan = plan_aggregate(compressed, "count", row_idx, col_idx)
        assert plan.route.row_fetches == 0
        assert plan.route.pages == 0

    def test_ndarray_backend_streams_or_summarizes_only(self, data):
        row_idx, col_idx = _resolve(data, rows=range(0, 10), cols=range(0, 10))
        plan = plan_aggregate(data, "sum", row_idx, col_idx)
        assert plan.route.name == ROUTE_STREAM
        rejected = {r.name for r in plan.rejected}
        assert {ROUTE_SUMMARY, ROUTE_FACTOR, ROUTE_SVD} <= rejected

    def test_plan_is_deterministic(self, compressed):
        row_idx, col_idx = _resolve(compressed, rows=range(0, 25), cols=range(0, 20))
        first = plan_aggregate(compressed, "stddev", row_idx, col_idx)
        second = plan_aggregate(compressed, "stddev", row_idx, col_idx)
        assert first.route == second.route
        assert first.candidates == second.candidates


class TestPricing:
    def test_floor_ordering_encodes_small_query_ranking(self):
        assert planner.SUMMARY_FLOOR_MS < planner.FACTOR_FLOOR_MS
        assert planner.FACTOR_FLOOR_MS < planner.STREAM_FLOOR_MS

    def test_gather_pages_counted_once_and_blind_to_the_pool(
        self, compressed, monkeypatch
    ):
        """Factor and stream gather the same rows: one page count per
        plan, priced the same however warm the cell path's pool is."""
        store = compressed.u_store
        calls = []
        count = store.pages_for_rows
        monkeypatch.setattr(
            store, "pages_for_rows", lambda idx: calls.append(1) or count(idx)
        )
        idx = _resolve(compressed, rows=range(4, 30), cols=range(2, 9))
        cold = plan_aggregate(compressed, "sum", *idx)
        assert len(calls) == 1
        costs = {c.name: c for c in cold.candidates}
        assert costs[ROUTE_FACTOR].pages == costs[ROUTE_STREAM].pages == count(idx[0])
        for _ in range(50):
            compressed.cell(5, 3)  # drive the pool's hit rate up
        assert store.pool_stats.hit_rate > 0.5
        assert plan_aggregate(compressed, "sum", *idx).candidates == cold.candidates

    def test_more_cells_cost_more_on_stream(self, compressed):
        small = _resolve(compressed, rows=range(0, 5), cols=range(0, 5))
        large = _resolve(compressed, rows=range(0, 60), cols=None)
        cost_of = lambda idx: next(  # noqa: E731
            c.cost_ms
            for c in plan_aggregate(compressed, "min", *idx).candidates
            if c.name == ROUTE_STREAM
        )
        assert cost_of(small) < cost_of(large)


@pytest.fixture(scope="module")
def phone_store(tmp_path_factory):
    """The benchmark harness's fixed model: phone 4000 x 366 at a 10%
    budget, 105,038 stored deltas — far more than any one query folds."""
    from repro.core import CompressedMatrix
    from repro.data import phone_matrix

    directory = tmp_path_factory.mktemp("planner-phone") / "model"
    build_compressed(phone_matrix(4000), directory, budget_fraction=0.10).close()
    store = CompressedMatrix.open(directory)
    yield store
    store.close()


def _cost(plan, route):
    return next(c.cost_ms for c in plan.candidates if c.name == route)


class TestFoldPricedBySelectedRows:
    """The factor route's delta fold costs what the selected rows hold,
    not what the model stores."""

    def test_small_rectangle_on_a_delta_heavy_store_plans_factor(self, phone_store):
        index = phone_store.delta_index
        assert len(index) == 105038
        idx = _resolve(phone_store, rows=range(100, 120), cols=range(40, 70))
        plan = plan_aggregate(phone_store, "sum", *idx)
        assert plan.route.name == ROUTE_FACTOR
        # Priced at every stored delta, the same query streamed.
        fold = index.count_in_rows(idx[0])
        whole_index = (len(index) - fold) * planner.NS_PER_CELL / 1e6
        assert _cost(plan, ROUTE_FACTOR) + whole_index > _cost(plan, ROUTE_STREAM)

    def test_deltas_in_unselected_rows_do_not_move_the_price(self, svdd_model):
        from dataclasses import replace

        from repro.core.delta_index import DeltaIndex
        from repro.storage.delta_file import DeltaTable

        rows, cols = svdd_model.shape
        idx = _resolve(svdd_model, rows=range(10, 20), cols=range(0, 10))
        mine = np.arange(12 * cols, 12 * cols + 5)  # five cells of row 12
        elsewhere = np.arange(50 * cols, 60 * cols)  # ten unselected rows, full

        def factor_cost(keys):
            table = DeltaTable.from_cells(*np.divmod(keys, cols), np.ones(len(keys)), rows)
            index = DeltaIndex(table, cols)
            plan = plan_aggregate(replace(svdd_model, deltas=index), "sum", *idx)
            return _cost(plan, ROUTE_FACTOR)

        base = factor_cost(mine)
        assert factor_cost(np.concatenate([mine, elsewhere])) == base
        one_more = factor_cost(np.append(mine, 13 * cols))  # a selected row
        assert one_more == pytest.approx(base + planner.NS_PER_CELL / 1e6)

    def test_count_folds_nothing_so_factor_ties_svd(self, compressed):
        """``count`` returns before any fold, so it is priced with none:
        however many deltas the selected rows hold, the exact route
        costs what ``svd`` does and wins the tie."""
        idx = _resolve(compressed, rows=range(0, 10), cols=range(0, 10))
        assert compressed.delta_index.count_in_rows(idx[0]) > 0
        plan = plan_aggregate(compressed, "count", *idx, max_rmspe=1.0)
        assert _cost(plan, ROUTE_FACTOR) == _cost(plan, ROUTE_SVD)
        assert plan.route.name == ROUTE_FACTOR
        assert plan.route.error_bound == 0.0

    def test_no_deltas_in_the_selected_rows_ties_svd_and_exact_wins(self, compressed):
        index = compressed.delta_index
        free = np.flatnonzero(np.bincount(index.rows, minlength=compressed.shape[0]) == 0)
        idx = _resolve(compressed, rows=free[:6].tolist(), cols=range(0, 10))
        assert index.count_in_rows(idx[0]) == 0
        plan = plan_aggregate(compressed, "sum", *idx, max_rmspe=1.0)
        assert _cost(plan, ROUTE_FACTOR) == _cost(plan, ROUTE_SVD)
        assert plan.route.name == ROUTE_FACTOR  # ROUTES order breaks the tie
        assert plan.route.error_bound == 0.0


class TestMaxRmspeSemantics:
    def test_zero_budget_provably_never_selects_svd(
        self, compressed, svdd_model, data, lost
    ):
        """max_rmspe=0.0 rejects svd before pricing, on every backend (a
        store that lost its deltas too), function, and selection shape."""
        backends = [compressed, svdd_model, data, lost]
        selections = [
            dict(rows=range(0, 10)),
            dict(rows=range(0, 10), cols=range(0, 10)),
            dict(),
        ]
        for backend in backends:
            for function in ("sum", "avg", "count", "min", "max", "stddev"):
                for sel in selections:
                    idx = _resolve(backend, **sel)
                    try:
                        plan = plan_aggregate(backend, function, *idx, max_rmspe=0.0)
                    except RouteUnavailableError:
                        continue  # no route at all beats a wrong route
                    assert plan.route.name != ROUTE_SVD
                    assert all(c.name != ROUTE_SVD for c in plan.candidates)
                    assert plan.route.error_bound == 0.0

    def test_zero_budget_rejection_reason(self, compressed):
        idx = _resolve(compressed, rows=range(0, 10), cols=range(0, 10))
        plan = plan_aggregate(compressed, "sum", *idx, max_rmspe=0.0)
        rejected = {r.name: r.reason for r in plan.rejected}
        assert rejected[ROUTE_SVD] == "max_rmspe=0 demands an exact answer"

    def test_loose_budget_admits_svd_with_stored_estimate(self, compressed):
        bound = compressed.rmspe_estimate
        assert bound is not None and bound > 0.0
        idx = _resolve(compressed, rows=range(0, 10), cols=range(0, 10))
        plan = plan_aggregate(compressed, "sum", *idx, max_rmspe=1.0)
        # svd skips the delta fold, so with deltas present it undercuts
        # the exact factor route and wins.
        assert plan.route.name == ROUTE_SVD
        assert plan.route.error_bound == pytest.approx(bound)

    def test_tight_budget_rejects_svd_with_reason(self, compressed):
        bound = compressed.rmspe_estimate
        tight = bound / 2
        idx = _resolve(compressed, rows=range(0, 10), cols=range(0, 10))
        plan = plan_aggregate(compressed, "sum", *idx, max_rmspe=tight)
        assert plan.route.name != ROUTE_SVD
        rejected = {r.name: r.reason for r in plan.rejected}
        assert "exceeds" in rejected[ROUTE_SVD]

    def test_no_budget_means_exact_only(self, compressed):
        idx = _resolve(compressed, rows=range(0, 10), cols=range(0, 10))
        plan = plan_aggregate(compressed, "sum", *idx, max_rmspe=None)
        assert all(c.name != ROUTE_SVD for c in plan.candidates)
        rejected = {r.name: r.reason for r in plan.rejected}
        assert "explicit max_rmspe budget" in rejected[ROUTE_SVD]

    def test_budget_without_stored_estimate_rejects_svd(self, svdd_model):
        assert as_backend(svdd_model).rmspe_estimate is None
        idx = _resolve(svdd_model, rows=range(0, 10), cols=range(0, 10))
        plan = plan_aggregate(svdd_model, "sum", *idx, max_rmspe=0.5)
        assert plan.route.name != ROUTE_SVD
        rejected = {r.name: r.reason for r in plan.rejected}
        assert "no stored RMSPE estimate" in rejected[ROUTE_SVD]

    def test_attached_estimate_attribute_is_honored(self, svdd_model, data):
        import copy

        backend = copy.copy(svdd_model)
        backend.rmspe_estimate = 0.05
        assert as_backend(backend).rmspe_estimate == pytest.approx(0.05)
        idx = _resolve(backend, rows=range(0, 10), cols=range(0, 10))
        plan = plan_aggregate(backend, "sum", *idx, max_rmspe=0.1)
        assert plan.route.name == ROUTE_SVD
        assert plan.route.error_bound == pytest.approx(0.05)

    def test_validate_max_rmspe(self):
        assert validate_max_rmspe(None) is None
        assert validate_max_rmspe(0.3) == pytest.approx(0.3)
        assert validate_max_rmspe("0.3") == pytest.approx(0.3)
        assert validate_max_rmspe(0) == 0.0
        for bad in (-0.1, float("nan"), float("inf"), "plenty", object()):
            with pytest.raises(QueryError):
                validate_max_rmspe(bad)

    def test_aggregate_query_validates_budget_at_construction(self):
        with pytest.raises(QueryError):
            AggregateQuery("sum", Selection(), max_rmspe=-1.0)
        with pytest.raises(QueryError):
            AggregateQuery("sum", Selection(), max_rmspe="plenty")
        query = AggregateQuery("sum", Selection(), max_rmspe="0.25")
        assert query.max_rmspe == pytest.approx(0.25)


class TestEngineIntegration:
    def test_explained_route_is_executed_route(self, compressed):
        engine = QueryEngine(compressed)
        for function in ("sum", "avg", "count", "min", "max", "stddev"):
            for sel in (Selection(rows=range(0, 10)), Selection(rows=range(0, 10), cols=range(0, 10))):
                query = AggregateQuery(function, sel)
                plan = engine.explain(query)
                result = engine.aggregate(query)
                assert plan["path"] == result.route
                assert plan["error_bound"] == result.error_bound

    def test_zero_budget_end_to_end_is_exact(self, compressed, data):
        engine = QueryEngine(compressed)
        query = AggregateQuery(
            "sum",
            Selection(rows=range(0, 10), cols=range(0, 10)),
            max_rmspe=0.0,
        )
        result = engine.aggregate(query)
        assert result.route != ROUTE_SVD
        assert result.error_bound == 0.0
        # The exact route reproduces the delta-corrected values.
        exact = run_route(engine, AggregateQuery("sum", query.selection), "stream")
        assert result.value == pytest.approx(exact.value, rel=1e-9)

    def test_loose_budget_takes_svd_and_stamps_bound(self, compressed):
        engine = QueryEngine(compressed)
        query = AggregateQuery("sum", Selection(rows=range(0, 10), cols=range(0, 10)))
        result = engine.aggregate(query, max_rmspe=1.0)
        assert result.route == ROUTE_SVD
        assert result.error_bound == pytest.approx(compressed.rmspe_estimate)

    def test_planner_route_counter(self, compressed, enabled_registry):
        engine = QueryEngine(compressed)
        engine.aggregate(AggregateQuery("avg", Selection(cols=range(0, 10))))
        snapshot = enabled_registry.snapshot()
        assert snapshot["counters"].get("planner.route.summary", 0) >= 1

    def test_profile_carries_bound_and_prediction(self, compressed, enabled_registry):
        engine = QueryEngine(compressed)
        result = engine.aggregate(
            AggregateQuery("sum", Selection(rows=range(0, 10), cols=range(0, 10)))
        )
        assert result.profile is not None
        assert result.profile.error_bound == 0.0
        assert result.profile.predicted_pages is not None


class TestBrownoutParity:
    """The regression the planner exists to prevent: on a store that
    lost its deltas (the degraded open brownout serves through) explain
    and execute agree, and neither passes the bare SVD off as exact."""

    def test_min_sub_rectangle_unanswerable_both_ways(self, lost):
        engine = QueryEngine(lost)
        query = AggregateQuery(
            "min", Selection(rows=range(0, 10), cols=range(0, 10)), max_rmspe=1.0
        )
        with pytest.raises(RouteUnavailableError):
            engine.explain(query)
        with pytest.raises(RouteUnavailableError):
            engine.aggregate(query)

    def test_route_unavailable_is_a_query_error(self):
        assert issubclass(RouteUnavailableError, QueryError)

    def test_brownout_engine_degrades_to_svd_by_default(self, lost):
        """Brownout's budget is the model's own estimate: under it a
        partial sum takes ``svd``, stamped with it; with no budget there
        is no exact route left."""
        engine = QueryEngine(lost)
        query = AggregateQuery(
            "sum",
            Selection(rows=range(0, 10), cols=range(0, 10)),
            max_rmspe=lost.rmspe_estimate,
        )
        plan = engine.explain(query)
        result = engine.aggregate(query)
        assert plan["path"] == ROUTE_SVD == result.route
        assert plan["error_bound"] == result.error_bound == lost.rmspe_estimate
        rejected = {r["route"]: r["reason"] for r in plan["rejected"]}
        assert "lost its deltas" in rejected[ROUTE_FACTOR]
        assert "lost its deltas" in rejected[ROUTE_STREAM]
        with pytest.raises(RouteUnavailableError):
            engine.aggregate(dataclasses.replace(query, max_rmspe=None))

    def test_brownout_zero_budget_sheds_instead_of_svd(self, lost):
        engine = QueryEngine(lost)
        query = AggregateQuery(
            "sum", Selection(rows=range(0, 10), cols=range(0, 10)), max_rmspe=0.0
        )
        with pytest.raises(RouteUnavailableError):
            engine.aggregate(query)
        with pytest.raises(RouteUnavailableError):
            engine.explain(query)

    def test_unavailable_message_names_every_rejection(self, lost):
        engine = QueryEngine(lost)
        query = AggregateQuery("max", Selection(rows=range(0, 10), cols=range(0, 10)))
        with pytest.raises(RouteUnavailableError) as excinfo:
            engine.aggregate(query)
        message = str(excinfo.value)
        for route in (ROUTE_FACTOR, ROUTE_SVD, ROUTE_STREAM):
            assert route in message


class TestMalformedCellTuples:
    def test_wrong_arity_is_query_error(self, data):
        engine = QueryEngine(data)
        for bad in ((1, 2, 3), (1,), ()):
            with pytest.raises(QueryError):
                engine.cell(bad)
            with pytest.raises(QueryError):
                engine.execute(bad)
            with pytest.raises(QueryError):
                engine.explain(bad)

    def test_non_numeric_members_are_query_error(self, data):
        engine = QueryEngine(data)
        with pytest.raises(QueryError):
            engine.cell((1, "x"))

    def test_coerce_query_matches(self):
        from repro.query.engine import coerce_query

        with pytest.raises(QueryError):
            coerce_query((1, 2, 3))
        with pytest.raises(QueryError):
            coerce_query((1, object()))


class TestSteppedRangeGuard:
    def test_huge_stepped_range_fails_fast(self):
        for hostile in (
            range(0, 10**18, 2),
            range(0, 10**21),
            range(10**18, -1, -1),
            range(10**21, 0, -7),
        ):
            with pytest.raises(QueryError):
                Selection(rows=hostile).resolve((100, 100))

    def test_empty_range_rejected(self):
        with pytest.raises(QueryError):
            Selection(rows=range(5, 5)).resolve((10, 10))
        with pytest.raises(QueryError):
            Selection(rows=range(5, 0)).resolve((10, 10))

    def test_stepped_ranges_resolve_ascending(self):
        rows, _ = Selection(rows=range(0, 10, 2)).resolve((20, 4))
        assert list(rows) == [0, 2, 4, 6, 8]
        rows, _ = Selection(rows=range(9, -1, -3)).resolve((20, 4))
        assert list(rows) == [0, 3, 6, 9]

    def test_stepped_range_aggregate_matches_explicit_list(self, data):
        engine = QueryEngine(data)
        stepped = engine.aggregate(
            AggregateQuery("sum", Selection(rows=range(0, 20, 3)))
        )
        explicit = engine.aggregate(
            AggregateQuery("sum", Selection(rows=list(range(0, 20, 3))))
        )
        assert stepped.value == pytest.approx(explicit.value)

    def test_out_of_range_step_selection_rejected(self):
        with pytest.raises(QueryError):
            Selection(rows=range(0, 200, 7)).resolve((100, 100))
        with pytest.raises(QueryError):
            Selection(rows=range(-5, 10, 5)).resolve((100, 100))
