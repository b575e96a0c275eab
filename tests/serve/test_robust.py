"""RobustDispatcher: deadlines, brownout, degraded answers, crash retry."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import DeadlineExceededError, OverloadedError, QueryError
from repro.query import engine as engine_module
from repro.query.engine import QueryEngine
from repro.query.parser import parse_query
from repro.query.process_executor import _CrashProbe
from repro.serve.config import ServeConfig
from repro.serve.robust import RobustDispatcher, rmspe_estimate


@pytest.fixture(scope="module")
def dispatcher(serve_model_dir):
    config = ServeConfig(
        workers=2,
        max_queue_depth=16,
        default_timeout_ms=10_000,
        brownout_sheds=1_000,  # never auto-brownout in this module
        breaker_failures=1_000,  # never auto-trip either
    )
    dispatcher = RobustDispatcher(serve_model_dir, config)
    dispatcher.warm()
    yield dispatcher
    dispatcher.close()


class TestHealthyPath:
    def test_pool_answers_match_engine(self, dispatcher, serve_model_dir):
        from repro.core.store import CompressedMatrix

        payload = dispatcher.dispatch("sum() rows 0:40 cols 0:25")
        with CompressedMatrix.open(serve_model_dir) as store:
            expected = QueryEngine(store).execute(
                parse_query("sum() rows 0:40 cols 0:25")
            )
        assert payload["value"] == expected.value
        assert payload["degraded"] is False
        assert payload["cells"] == 40 * 25

    def test_accepts_all_query_forms(self, dispatcher):
        assert dispatcher.dispatch((3, 7))["cells"] == 1
        assert dispatcher.dispatch("cell(3, 7)")["cells"] == 1
        assert dispatcher.dispatch("count()")["value"] == 80 * 50

    def test_malformed_query_raises_query_error(self, dispatcher):
        with pytest.raises(QueryError):
            dispatcher.dispatch("DROP TABLE users;")
        with pytest.raises(QueryError):
            dispatcher.dispatch("sum() rows 0:1000000")

    def test_fuzzed_tuple_arity_is_typed_error(self, dispatcher):
        # Wrong-arity tuples used to escape as TypeError from the int()
        # coercion — a traceback, not a structured 400.
        for bad in ((1, 2, 3), (1,), (), (1, "x")):
            with pytest.raises(QueryError):
                dispatcher.dispatch(bad)

    def test_hostile_stepped_range_is_typed_error(self, dispatcher):
        from repro.query import AggregateQuery, Selection

        # A stepped astronomic range must fail the bounds check before
        # materializing anything — QueryError, never an OOM.
        for hostile in (range(0, 10**18, 2), range(10**21, 0, -7)):
            query = AggregateQuery("sum", Selection(rows=hostile))
            with pytest.raises(QueryError):
                dispatcher.dispatch(query)

    def test_explain_without_execution(self, dispatcher):
        # rows 0:10 x all cols is covered by the materialized row
        # rollups, so the healthy workers answer it on the summary
        # route — and explain must say so (pre-planner, this explained
        # via the brownout engine as "factor": the divergence bug).
        plan = dispatcher.explain("avg() rows 0:10")
        assert plan["path"] == "summary"
        assert plan["mode"] == "healthy"

    def test_explain_path_matches_dispatched_route(self, dispatcher):
        for text in ("avg() rows 0:10", "sum() rows 0:40 cols 0:25", "min()"):
            plan = dispatcher.explain(text)
            payload = dispatcher.dispatch(text)
            assert plan["path"] == payload["route"], text


#: Plans that gather no rows of U (full rollup hits, ``count``) and cell
#: probes: the parent answers these.  Model is 80 x 50.
PARENT_QUERIES = [
    "cell(3, 7)",
    "cell(79, 49)",
    "sum() rows 0:10",
    "avg() cols 5:20",
    "stddev() rows 0:10",
    "min()",
    "max() cols 0:30",
    "count() rows 5:60 cols 3:40",
]


def _pool_queries(dispatcher) -> int:
    return dispatcher.executor.worker_metrics()["queries"]


class TestParentPath:
    @pytest.mark.parametrize("text", PARENT_QUERIES)
    def test_parent_answer_is_the_worker_answer(self, dispatcher, text):
        query = parse_query(text)
        before = _pool_queries(dispatcher), dispatcher.parent_answers
        payload = dispatcher.dispatch(query)
        assert dispatcher.parent_answers == before[1] + 1
        worker = dispatcher.executor.submit(query).result(timeout=30)
        # Workers report their totals with each result: exactly one
        # query reached the pool, and it was the direct submit.
        assert _pool_queries(dispatcher) == before[0] + 1
        assert payload["value"] == worker.value  # bit-identical, not approx
        assert payload.get("route", "") == worker.route
        assert payload.get("error_bound", 0.0) == worker.error_bound
        assert payload["cells"] == worker.cells_touched
        assert payload["rows_fetched"] == worker.rows_fetched
        assert payload["degraded"] is False
        explained = dispatcher.explain(query)
        assert explained["executes_in"] == "parent"
        assert explained["path"] == payload.get("route", "cell")

    @pytest.mark.parametrize(
        "text", ["sum() rows 10:60 cols 5:40", "min() rows 10:60 cols 5:40"]
    )
    def test_partial_rectangle_still_reaches_the_pool(self, dispatcher, text):
        # On a mapped backend every route plans pages == 0; only
        # row_fetches tells a gather from a rollup hit.
        plan = dispatcher.explain(text)
        assert plan["estimated_pages"] == 0 and plan["estimated_row_fetches"] == 50
        assert plan["executes_in"] == "pool"
        before = _pool_queries(dispatcher), dispatcher.pool_answers
        assert dispatcher.dispatch(text)["route"] == plan["path"]
        assert _pool_queries(dispatcher) == before[0] + 1
        assert dispatcher.pool_answers == before[1] + 1

    def test_each_aggregate_is_planned_once_per_process(
        self, serve_model_dir, monkeypatch, enabled_registry
    ):
        """The plan dispatch routes by is the plan the parent executes:
        one ``plan_aggregate`` call per parent-answered aggregate, one
        in the parent plus the worker's own per gather, none for a
        cell — and ``planner.route.*`` still counts answers, not plans."""
        fork = multiprocessing.get_context("fork")
        calls = {"parent": fork.Value("i", 0), "worker": fork.Value("i", 0)}
        parent_pid = os.getpid()
        plan_aggregate = engine_module.plan_aggregate

        def counting(*args, **kwargs):
            side = calls["parent" if os.getpid() == parent_pid else "worker"]
            with side.get_lock():
                side.value += 1
            return plan_aggregate(*args, **kwargs)

        def planned() -> tuple[int, int, int]:
            counters = enabled_registry.snapshot()["counters"]
            answers = sum(
                value
                for name, value in counters.items()
                if name.startswith("planner.route.")
            )
            return calls["parent"].value, calls["worker"].value, answers

        # Patched before the pool forks, so the workers count too.
        monkeypatch.setattr(engine_module, "plan_aggregate", counting)
        config = ServeConfig(workers=1, breaker_failures=1_000, brownout_sheds=1_000)
        dispatcher = RobustDispatcher(serve_model_dir, config)
        try:
            dispatcher.warm()
            for text in PARENT_QUERIES:
                aggregate = 0 if text.startswith("cell") else 1
                before = planned()
                dispatcher.dispatch(text)
                assert planned() == (
                    before[0] + aggregate,
                    before[1],
                    before[2] + aggregate,
                ), text
                dispatcher.explain(text)
                assert planned() == (
                    before[0] + 2 * aggregate,
                    before[1],
                    before[2] + aggregate,
                ), text
            for text in ("sum() rows 10:60 cols 5:40", "min() rows 10:60 cols 5:40"):
                before = planned()
                dispatcher.dispatch(text)
                # The worker answered, and counted it in its own registry.
                assert planned() == (before[0] + 1, before[1] + 1, before[2]), text
        finally:
            dispatcher.close()

    def test_error_budget_reaches_the_one_plan(self, dispatcher):
        """``max_rmspe`` rides on the query into the single plan: a
        ``count`` gathers nothing on either factor route, so the parent
        answers it — exactly by default, on the cheaper ``svd`` route
        once the budget admits it."""
        text = "count() rows 5:60 cols 3:40"
        for budget, route in ((None, "factor"), (0.0, "factor"), (0.9, "svd")):
            query = dataclasses.replace(parse_query(text), max_rmspe=budget)
            before = dispatcher.parent_answers
            explained = dispatcher.explain(query)
            payload = dispatcher.dispatch(query)
            assert dispatcher.parent_answers == before + 1
            assert explained["max_rmspe"] == budget
            assert explained["path"] == payload["route"] == route
            assert payload["value"] == 55 * 37

    def test_parent_path_survives_a_dead_pool(self, serve_model_dir):
        config = ServeConfig(workers=1, breaker_failures=1_000, brownout_sheds=1_000)
        dispatcher = RobustDispatcher(serve_model_dir, config)
        try:
            dispatcher.warm()
            with pytest.raises(Exception):
                dispatcher.executor.submit(_CrashProbe()).result(timeout=30)
            for text in PARENT_QUERIES:
                assert dispatcher.dispatch(text)["degraded"] is False
            # Nobody touched the broken pool, so nobody rebuilt it.
            assert dispatcher.executor.restarts == 0
            assert dispatcher.stats()["parent_answers"] == len(PARENT_QUERIES)
        finally:
            dispatcher.close()

    def test_parent_answer_leaves_the_breaker_alone(self, serve_model_dir):
        config = ServeConfig(
            workers=1, breaker_failures=1, breaker_cooldown_s=0.05, brownout_sheds=1_000
        )
        dispatcher = RobustDispatcher(serve_model_dir, config)
        try:
            dispatcher.breaker.record_failure()
            time.sleep(0.06)
            assert dispatcher.breaker.state == "half_open"
            for text in PARENT_QUERIES:
                assert dispatcher.dispatch(text)["degraded"] is False
            # Neither the probe slot nor a verdict: still half-open,
            # and the next gather is the probe that closes it.
            assert dispatcher.breaker.state == "half_open"
            assert dispatcher.dispatch("sum() rows 0:10 cols 0:25")["degraded"] is False
            assert dispatcher.breaker.state == "closed"
        finally:
            dispatcher.close()

    def test_deadline_passed_at_admission_is_504_before_compute(
        self, dispatcher, monkeypatch
    ):
        admit = dispatcher.admission.admit

        def slow_admit():
            time.sleep(0.005)
            return admit()

        monkeypatch.setattr(dispatcher.admission, "admit", slow_admit)
        before = dispatcher.stats()
        for text in ("cell(3, 7)", "sum() rows 0:10", "sum() rows 0:10 cols 0:25"):
            with pytest.raises(DeadlineExceededError):
                dispatcher.dispatch(text, timeout_ms=1)
        after = dispatcher.stats()
        assert after["deadline_misses"] == before["deadline_misses"] + 3
        for key in ("parent_answers", "pool_answers"):
            assert after[key] == before[key]
        assert after["worker_metrics"]["queries"] == before["worker_metrics"]["queries"]
        assert after["queue_depth"] == 0  # the tickets were released

    def test_concurrent_parent_dispatch_matches_sequential(self, dispatcher):
        queries = [parse_query(text) for text in PARENT_QUERIES]
        expected = [dispatcher.dispatch(query)["value"] for query in queries]
        before = dispatcher.stats()
        wrong: list = []

        def hammer():
            for i in range(200):
                got = dispatcher.dispatch(queries[i % len(queries)])["value"]
                if got != expected[i % len(queries)]:
                    wrong.append((i, got))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        after = dispatcher.stats()
        assert after["admitted_total"] == before["admitted_total"] + 1600
        assert after["parent_answers"] == before["parent_answers"] + 1600
        assert after["pool_answers"] == before["pool_answers"]
        assert after["shed_total"] == before["shed_total"]


class TestDeadlines:
    def test_expired_deadline_maps_to_deadline_error(self, dispatcher):
        # clamp_timeout_ms floors at 1 ms; a worker round-trip on a
        # fork-start pool virtually always exceeds it, but allow the
        # occasional lucky fast answer — what must never happen is any
        # *other* outcome.
        outcomes = set()
        for _ in range(5):
            try:
                # Full on neither axis, so it gathers: pool work.
                payload = dispatcher.dispatch(
                    "min() rows 0:40 cols 0:25", timeout_ms=0.001
                )
                outcomes.add("ok")
                assert payload["degraded"] is False
            except DeadlineExceededError:
                outcomes.add("deadline")
        assert outcomes <= {"ok", "deadline"}

    def test_timeout_clamped_to_configured_max(self, serve_model_dir):
        config = ServeConfig(workers=1, max_timeout_ms=50.0)
        assert config.clamp_timeout_ms(10_000_000) == 50.0
        assert config.clamp_timeout_ms(None) == 50.0
        assert config.clamp_timeout_ms(20.0) == 20.0


class TestBrownout:
    @pytest.fixture()
    def brownout_dispatcher(self, serve_model_dir):
        config = ServeConfig(
            workers=1,
            brownout_sheds=2,
            brownout_window_s=60.0,
            breaker_failures=1_000,
        )
        dispatcher = RobustDispatcher(serve_model_dir, config)
        yield dispatcher
        dispatcher.close()

    def test_sustained_shedding_enters_brownout(self, brownout_dispatcher):
        assert not brownout_dispatcher.brownout_active()
        brownout_dispatcher._note_shed()
        assert not brownout_dispatcher.brownout_active()
        brownout_dispatcher._note_shed()
        assert brownout_dispatcher.brownout_active()

    def test_degraded_answer_is_svd_only_and_stamped(
        self, brownout_dispatcher, serve_model_dir
    ):
        from repro.core.store import CompressedMatrix

        for _ in range(2):
            brownout_dispatcher._note_shed()
        payload = brownout_dispatcher.dispatch("sum() rows 0:40 cols 0:25")
        assert payload["degraded"] is True
        assert "rmspe_estimate" in payload
        with CompressedMatrix.open(serve_model_dir) as store:
            svd_only = QueryEngine(store, include_deltas=False).execute(
                parse_query("sum() rows 0:40 cols 0:25")
            )
            exact = QueryEngine(store).execute(
                parse_query("sum() rows 0:40 cols 0:25")
            )
            deltas = len(store.delta_index)
        assert payload["value"] == svd_only.value
        if deltas:
            assert payload["value"] != exact.value

    def test_degraded_cell_uses_svd_reconstruction(self, brownout_dispatcher):
        for _ in range(2):
            brownout_dispatcher._note_shed()
        payload = brownout_dispatcher.dispatch("cell(5, 5)")
        assert payload["degraded"] is True
        assert np.isfinite(payload["value"])

    def test_full_matrix_min_max_exact_from_summaries(
        self, brownout_dispatcher, serve_model_dir
    ):
        # Full-axis min/max are covered by the summary rollups, so the
        # brownout path answers them exactly instead of shedding.
        from repro.core.store import CompressedMatrix

        for _ in range(2):
            brownout_dispatcher._note_shed()
        payload = brownout_dispatcher.dispatch("min()")
        assert payload["degraded"] is False
        with CompressedMatrix.open(serve_model_dir) as store:
            exact = QueryEngine(store).execute(parse_query("min()"))
        assert payload["value"] == exact.value
        assert brownout_dispatcher.summary_brownout_hits >= 1

    def test_sub_rectangle_min_max_still_shed_during_brownout(
        self, brownout_dispatcher
    ):
        for _ in range(2):
            brownout_dispatcher._note_shed()
        with pytest.raises(OverloadedError) as excinfo:
            brownout_dispatcher.dispatch("min() rows 0:10 cols 0:10")
        assert excinfo.value.reason == "brownout"

    def test_brownout_exits_when_window_drains(self, serve_model_dir):
        config = ServeConfig(
            workers=1, brownout_sheds=1, brownout_window_s=0.02
        )
        dispatcher = RobustDispatcher(serve_model_dir, config)
        try:
            dispatcher._note_shed()
            assert dispatcher.brownout_active()
            import time

            time.sleep(0.05)
            assert not dispatcher.brownout_active()
        finally:
            dispatcher.close()


class TestBreakerIntegration:
    def test_open_breaker_routes_to_degraded(self, serve_model_dir):
        config = ServeConfig(
            workers=1,
            breaker_failures=1,
            breaker_cooldown_s=60.0,
            brownout_sheds=1_000,
        )
        dispatcher = RobustDispatcher(serve_model_dir, config)
        try:
            dispatcher.breaker.record_failure()
            assert dispatcher.breaker.state == "open"
            # Full-axis selections stay exact via the summary store even
            # with the breaker open; only uncovered shapes degrade.
            covered = dispatcher.dispatch("avg() rows 0:10")
            assert covered["degraded"] is False
            payload = dispatcher.dispatch("avg() rows 0:10 cols 0:10")
            assert payload["degraded"] is True
        finally:
            dispatcher.close()

    def test_worker_crash_feeds_breaker_and_retries_once(self, serve_model_dir):
        config = ServeConfig(
            workers=1, breaker_failures=1_000, brownout_sheds=1_000
        )
        dispatcher = RobustDispatcher(serve_model_dir, config)
        try:
            dispatcher.warm()
            # Kill the (only) worker through the real dispatch path.
            with pytest.raises(Exception):
                dispatcher.executor.submit(_CrashProbe()).result(timeout=30)
            # The next gather survives: broken pool -> rebuild -> retry.
            payload = dispatcher.dispatch("sum() rows 0:10 cols 0:25")
            assert payload["degraded"] is False
            assert dispatcher.executor.restarts >= 1
        finally:
            dispatcher.close()


class TestDrain:
    def test_draining_dispatcher_sheds_with_drain_reason(self, serve_model_dir):
        config = ServeConfig(workers=1, drain_grace_s=1.0)
        dispatcher = RobustDispatcher(serve_model_dir, config)
        assert dispatcher.drain() is True
        with pytest.raises(OverloadedError) as excinfo:
            dispatcher.dispatch("count()")
        assert excinfo.value.reason == "drain"
        dispatcher.close()  # idempotent


class TestDegradedModelOpen:
    def test_corrupt_delta_sidecar_serves_degraded(self, tmp_path):
        from repro.core.build import build_compressed

        rng = np.random.default_rng(3)
        data = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 30))
        directory = tmp_path / "model"
        build_compressed(data, directory, budget_fraction=0.2).close()
        # Corrupt the delta sidecar so only a degraded open succeeds.
        delta_path = directory / "deltas.bin"
        if delta_path.exists():
            delta_path.write_bytes(b"garbage")
        config = ServeConfig(workers=1, on_corrupt="degraded")
        dispatcher = RobustDispatcher(directory, config)
        try:
            if dispatcher.model_degraded:
                # The rollups folded the (now-lost) deltas in when they
                # were materialized at build time, so full-axis answers
                # survive the corrupt sidecar exactly.
                covered = dispatcher.dispatch("sum() rows 0:10")
                assert covered["degraded"] is False
                payload = dispatcher.dispatch("sum() rows 0:10 cols 0:10")
                assert payload["degraded"] is True
        finally:
            dispatcher.close()


class TestRmspeEstimate:
    def test_estimate_from_update_state(self, serve_model_dir):
        estimate = rmspe_estimate(serve_model_dir)
        assert estimate is None or (0.0 <= estimate < 1.0)

    def test_missing_state_returns_none(self, tmp_path):
        assert rmspe_estimate(tmp_path) is None
