"""RobustDispatcher: deadlines, gather slots, brownout, degraded answers."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.build import build_compressed
from repro.core.store import CompressedMatrix
from repro.core.update import append_columns, rmspe_from_state
from repro.data import phone_matrix
from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    QueryError,
    StorageError,
    StoreClosedError,
)
from repro.query import engine as engine_module
from repro.query.engine import QueryEngine
from repro.query.parser import parse_query
from repro.serve.config import ServeConfig
from repro.serve import robust
from repro.serve.robust import RobustDispatcher
from tests.conftest import lose_deltas, run_route

SRC_DIR = Path(engine_module.__file__).parents[2]

#: Never auto-brownout unless a test asks for it.
CALM = dict(max_queue_depth=16, default_timeout_ms=10_000, brownout_sheds=1_000)


@pytest.fixture(scope="module")
def dispatcher(serve_model_dir):
    dispatcher = RobustDispatcher(serve_model_dir, ServeConfig(workers=2, **CALM))
    dispatcher.warm()
    yield dispatcher
    dispatcher.close()


@pytest.fixture(scope="module")
def stale_dispatcher(stale_model_dir):
    dispatcher = RobustDispatcher(stale_model_dir, ServeConfig(workers=2, **CALM))
    dispatcher.warm()
    yield dispatcher
    dispatcher.close()


def _engine_answers(model_dir, texts):
    """What a sequential engine over its own open of the model says."""
    with CompressedMatrix.open(model_dir, mapped=True) as store:
        engine = QueryEngine(store)
        return [engine.execute(parse_query(text)) for text in texts]


class TestHealthyPath:
    def test_pool_answers_match_engine(self, dispatcher, serve_model_dir):
        text = "sum() rows 0:40 cols 0:25"
        before = dispatcher.stats()
        payload = dispatcher.dispatch(text)
        (expected,) = _engine_answers(serve_model_dir, [text])
        assert payload["value"] == expected.value
        assert payload["degraded"] is False
        assert payload["cells"] == 40 * 25
        # A gather: it took a slot, in this process.
        after = dispatcher.stats()
        assert after["answers"] == before["answers"] + 1
        assert after["gathers"] == before["gathers"] + 1
        assert not multiprocessing.active_children()

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
        # all rows x cols 0:10 is covered by the per-day profile, so
        # the healthy engine answers it on the summary route — and
        # explain must say so (pre-planner, this explained via the
        # brownout engine as "factor": the divergence bug).
        plan = dispatcher.explain("avg() cols 0:10")
        assert plan["path"] == "summary"
        assert plan["mode"] == "healthy"

    def test_explain_refuses_the_cell_dispatch_refuses(self, dispatcher):
        # /explain answers 400 exactly where /query does, cells included.
        for text in ("cell(99999, 0)", "cell(0, 50)"):
            with pytest.raises(QueryError, match="out of range"):
                dispatcher.dispatch(text)
            with pytest.raises(QueryError, match="out of range"):
                dispatcher.explain(text)
        assert dispatcher.explain("cell(79, 49)")["path"] == "cell"

    def test_explain_path_matches_dispatched_route(
        self, dispatcher, stale_dispatcher
    ):
        """Every route: the plan explained is the plan dispatched."""
        cases = [
            (dispatcher, "avg() cols 0:10", None, "summary"),
            (dispatcher, "avg() rows 0:10", None, "factor"),
            (dispatcher, "min()", None, "stream"),
            (dispatcher, "sum() rows 0:40 cols 0:25", None, "factor"),
            (dispatcher, "min() rows 0:40 cols 0:25", None, "stream"),
            (dispatcher, "sum() rows 0:40 cols 0:25", 0.9, "svd"),
            (stale_dispatcher, "min()", None, "stream"),
            (stale_dispatcher, "avg() cols 0:10", None, "factor"),
        ]
        for target, text, budget, route in cases:
            query = dataclasses.replace(parse_query(text), max_rmspe=budget)
            plan = target.explain(query)
            payload = target.dispatch(query)
            assert plan["path"] == payload["route"] == route, text
            assert "executes_in" not in plan


#: Plans that gather no rows of U (full rollup hits, ``count``) and cell
#: probes: these never take a gather slot.  Model is 80 x 50.
PARENT_QUERIES = [
    "cell(3, 7)",
    "cell(79, 49)",
    "sum() cols 0:10",
    "avg() cols 5:20",
    "stddev() cols 0:10",
    "count() rows 5:60 cols 3:40",
]

#: Full-axis aggregates the per-day profile does not answer, so they
#: gather: a full-column ``sum``/``stddev`` (``factor``) and a ``min``/
#: ``max`` over every row (``stream``).
FULL_AXIS_GATHERS = ["sum() rows 0:10", "stddev() rows 0:10", "min()", "max() cols 0:30"]

#: Partial on both axes, so they gather: ``factor`` and ``stream``.
GATHER_QUERIES = ["sum() rows 10:60 cols 5:40", "min() rows 10:60 cols 5:40"]


class TestParentPath:
    @pytest.mark.parametrize("text", PARENT_QUERIES + FULL_AXIS_GATHERS)
    def test_parent_answer_is_the_worker_answer(
        self, dispatcher, serve_model_dir, text
    ):
        query = parse_query(text)
        before = dispatcher.stats()
        payload = dispatcher.dispatch(query)
        after = dispatcher.stats()
        assert after["answers"] == before["answers"] + 1
        # A slot is taken exactly by the queries that gather.
        assert after["gathers"] == before["gathers"] + (text in FULL_AXIS_GATHERS)
        (engine,) = _engine_answers(serve_model_dir, [text])
        assert payload["value"] == engine.value  # bit-identical, not approx
        assert payload.get("route", "") == engine.route
        assert payload.get("error_bound", 0.0) == engine.error_bound
        assert payload["cells"] == engine.cells_touched
        assert payload["rows_fetched"] == engine.rows_fetched
        assert payload["degraded"] is False
        explained = dispatcher.explain(query)
        assert explained["path"] == payload.get("route", "cell")

    @pytest.mark.parametrize("text", GATHER_QUERIES, ids=["factor", "stream"])
    def test_partial_rectangle_takes_a_gather_slot(self, dispatcher, text):
        # On a mapped backend every route plans pages == 0; only
        # row_fetches tells a gather from a rollup hit.
        plan = dispatcher.explain(text)
        assert plan["estimated_pages"] == 0 and plan["estimated_row_fetches"] == 50
        before = dispatcher.stats()
        assert dispatcher.dispatch(text)["route"] == plan["path"]
        after = dispatcher.stats()
        assert after["answers"] == before["answers"] + 1
        assert after["gathers"] == before["gathers"] + 1

    def test_each_aggregate_is_planned_once_per_process(
        self, serve_model_dir, monkeypatch, enabled_registry
    ):
        """The plan dispatch routes by is the plan it executes: one
        ``plan_aggregate`` call per aggregate on every route, none for a
        cell, none in a forked child (there is none) — and
        ``planner.route.*`` counts answers, not plans."""
        fork = multiprocessing.get_context("fork")
        calls = {"parent": fork.Value("i", 0), "child": fork.Value("i", 0)}
        parent_pid = os.getpid()
        plan_aggregate = engine_module.plan_aggregate

        def counting(*args, **kwargs):
            side = calls["parent" if os.getpid() == parent_pid else "child"]
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
            return calls["parent"].value, calls["child"].value, answers

        # Patched before the dispatcher exists: anything it forked
        # would count too.
        monkeypatch.setattr(engine_module, "plan_aggregate", counting)
        config = ServeConfig(workers=1, brownout_sheds=1_000)
        dispatcher = RobustDispatcher(serve_model_dir, config)
        try:
            dispatcher.warm()
            budgeted = dataclasses.replace(
                parse_query(GATHER_QUERIES[0]), max_rmspe=0.9
            )
            assert dispatcher.explain(budgeted)["path"] == "svd"
            for query in (*PARENT_QUERIES, *GATHER_QUERIES, budgeted):
                aggregate = 0 if str(query).startswith("cell") else 1
                before = planned()
                dispatcher.dispatch(query)
                assert planned() == (
                    before[0] + aggregate,
                    0,
                    before[2] + aggregate,
                ), query
                dispatcher.explain(query)
                assert planned() == (
                    before[0] + 2 * aggregate,
                    0,
                    before[2] + aggregate,
                ), query
            assert not multiprocessing.active_children()
        finally:
            dispatcher.close()

    def test_error_budget_reaches_the_one_plan(self, dispatcher):
        """``max_rmspe`` rides on the query into the single plan: a
        ``count`` gathers nothing on either factor route, so it takes no
        slot — and folds nothing, so the exact route ties ``svd`` and is
        taken under every budget."""
        text = "count() rows 5:60 cols 3:40"
        for budget, route in ((None, "factor"), (0.0, "factor"), (0.9, "factor")):
            query = dataclasses.replace(parse_query(text), max_rmspe=budget)
            before = dispatcher.stats()
            explained = dispatcher.explain(query)
            payload = dispatcher.dispatch(query)
            after = dispatcher.stats()
            assert after["answers"] == before["answers"] + 1
            assert after["gathers"] == before["gathers"]
            assert explained["max_rmspe"] == budget
            assert explained["path"] == payload["route"] == route
            assert payload["value"] == 55 * 37

    def test_deadline_passed_at_admission_is_504_before_compute(
        self, dispatcher, monkeypatch, spy_on_execute
    ):
        admit = dispatcher.admission.admit

        def slow_admit():
            time.sleep(0.005)
            return admit()

        monkeypatch.setattr(dispatcher.admission, "admit", slow_admit)
        executed = spy_on_execute(dispatcher)
        before = dispatcher.stats()
        for text in ("cell(3, 7)", "sum() cols 0:10", "sum() rows 0:10 cols 0:25"):
            with pytest.raises(DeadlineExceededError):
                dispatcher.dispatch(text, timeout_ms=1)
        after = dispatcher.stats()
        assert after["deadline_misses"] == before["deadline_misses"] + 3
        for key in ("answers", "gathers"):
            assert after[key] == before[key]
        assert not executed
        assert after["queue_depth"] == 0  # the tickets were released

    def test_concurrent_parent_dispatch_matches_sequential(
        self, dispatcher, stale_dispatcher, serve_model_dir, stale_model_dir
    ):
        """8 threads x 200 over slot-free plans and gathers on both
        exact gathering routes, and on a model a deferred append left
        without summaries: every value is the sequential engine's."""
        for target, model_dir, texts, routes in (
            (
                dispatcher,
                serve_model_dir,
                PARENT_QUERIES + GATHER_QUERIES,
                {"factor", "stream"},
            ),
            (
                stale_dispatcher,
                stale_model_dir,
                ["min()", "cell(3, 51)", "max() rows 0:10"],
                {"stream"},
            ),
        ):
            queries = [parse_query(text) for text in texts]
            answers = _engine_answers(model_dir, texts)
            expected = [answer.value for answer in answers]
            # Aggregates (a cell has no route) that read rows of U.
            gathers = [bool(a.route) and a.rows_fetched > 0 for a in answers]
            assert routes <= {a.route for a, g in zip(answers, gathers) if g}
            before = target.stats()
            wrong: list = []

            def hammer():
                for i in range(200):
                    got = target.dispatch(queries[i % len(queries)])["value"]
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
            after = target.stats()
            assert after["admitted_total"] == before["admitted_total"] + 1600
            assert after["answers"] == before["answers"] + 1600
            assert after["gathers"] == before["gathers"] + 8 * sum(
                gathers[i % len(queries)] for i in range(200)
            )
            assert after["shed_total"] == before["shed_total"]
            assert after["deadline_misses"] == before["deadline_misses"]
            assert after["queue_depth"] == 0


class TestGatherSlots:
    """What the worker pool used to guarantee, kept by threads."""

    @pytest.fixture()
    def held(self, dispatcher, spy_on_execute):
        """Every slot held by a gather blocked inside the engine.

        Yields ``(executed, release)``: the queries the engine has been
        handed so far, and the event that lets the holders finish.
        """
        release = threading.Event()
        blocked = parse_query("avg() rows 20:70 cols 10:45")
        executed = spy_on_execute(
            dispatcher,
            before=lambda query: query == blocked and release.wait(timeout=30),
        )
        payloads: list = []
        holders = [
            threading.Thread(
                target=lambda: payloads.append(dispatcher.dispatch(blocked))
            )
            for _ in range(dispatcher.workers)
        ]
        for holder in holders:
            holder.start()
        deadline = time.monotonic() + 10.0
        while len(executed) < len(holders) and time.monotonic() < deadline:
            time.sleep(0.002)
        assert len(executed) == len(holders)
        assert dispatcher.stats()["queue_depth"] == len(holders)
        try:
            yield executed, release
        finally:
            release.set()
            for holder in holders:
                holder.join(timeout=30)
        assert [payload["degraded"] for payload in payloads] == [False] * len(holders)

    def test_gather_still_queued_at_its_deadline_is_dropped(
        self, dispatcher, held
    ):
        executed, _release = held
        before = dispatcher.stats()
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            dispatcher.dispatch(GATHER_QUERIES[0], timeout_ms=50)
        waited = time.monotonic() - start
        # Its own deadline (within ~2x), not the holders' release.
        assert 0.05 <= waited < 0.25
        after = dispatcher.stats()
        assert after["deadline_misses"] == before["deadline_misses"] + 1
        assert after["gathers"] == before["gathers"]
        assert after["queue_depth"] == dispatcher.workers  # ticket released
        assert len(executed) == dispatcher.workers  # the engine never saw it

    def test_slot_free_requests_answer_while_every_slot_is_held(
        self, dispatcher, held
    ):
        for text in PARENT_QUERIES:
            assert dispatcher.dispatch(text, timeout_ms=2_000)["degraded"] is False
        assert dispatcher.groupby("month", "sum")["path"] == "summary"
        assert dispatcher.stats()["queue_depth"] == dispatcher.workers

    def test_waiting_gather_holds_its_ticket(self, dispatcher, held):
        """Depth and age shedding see a gather queued for a slot."""
        executed, release = held
        payloads: list = []
        waiter = threading.Thread(
            target=lambda: payloads.append(
                dispatcher.dispatch(GATHER_QUERIES[1], timeout_ms=5_000)
            )
        )
        waiter.start()
        deadline = time.monotonic() + 5.0
        while (
            dispatcher.stats()["queue_depth"] <= dispatcher.workers
            and time.monotonic() < deadline
        ):
            time.sleep(0.002)
        assert dispatcher.stats()["queue_depth"] == dispatcher.workers + 1
        assert len(executed) == dispatcher.workers  # admitted, not computing
        release.set()
        waiter.join(timeout=30)
        assert payloads and payloads[0]["route"] == "stream"

    @pytest.mark.parametrize(
        "text",
        ["cell(3, 7)", "sum() cols 0:10", *GATHER_QUERIES],
        ids=["cell", "summary", "factor", "stream"],
    )
    def test_late_answer_is_504_not_200(
        self, dispatcher, monkeypatch, spy_on_execute, text
    ):
        executed = spy_on_execute(dispatcher, before=lambda _query: time.sleep(0.03))
        before = dispatcher.stats()
        with pytest.raises(DeadlineExceededError):
            dispatcher.dispatch(text, timeout_ms=10)
        after = dispatcher.stats()
        assert len(executed) == 1  # it did run: the answer was late, not skipped
        assert after["deadline_misses"] == before["deadline_misses"] + 1
        assert after["answers"] == before["answers"]
        assert after["gathers"] == before["gathers"]
        assert after["queue_depth"] == 0
        # The slot came back: the same gather answers with time to spare.
        monkeypatch.undo()
        assert dispatcher.dispatch(text)["degraded"] is False


class TestDeadlines:
    def test_expired_deadline_maps_to_deadline_error(self, dispatcher):
        # clamp_timeout_ms floors at 1 ms; a gather on this small model
        # usually fits, a descheduled one does not — what must never
        # happen is any *other* outcome.
        outcomes = set()
        for _ in range(5):
            try:
                # Full on neither axis, so it gathers.
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
        """Brownout plans a partial sum under the model's estimate: the
        ``svd`` route, stamped with it, explained as dispatched.  A
        client that demands exactness is served exactly, not shed."""
        for _ in range(2):
            brownout_dispatcher._note_shed()
        text = "sum() rows 0:40 cols 0:25"
        explained = brownout_dispatcher.explain(text)
        payload = brownout_dispatcher.dispatch(text)
        assert explained["mode"] == "brownout"
        assert explained["path"] == payload["route"] == "svd"
        assert payload["degraded"] is True
        assert payload["error_bound"] == payload["rmspe_estimate"]
        assert payload["error_bound"] == brownout_dispatcher.rmspe
        query = parse_query(text)
        with CompressedMatrix.open(serve_model_dir) as store:
            engine = QueryEngine(store)
            forced = run_route(engine, query, "svd", engine.plan(query, max_rmspe=1.0))
            exact = engine.execute(query)
            deltas = len(store.delta_index)
        assert payload["value"] == forced.value
        if deltas:
            assert payload["value"] != exact.value
        demanded = dataclasses.replace(query, max_rmspe=0.0)
        assert brownout_dispatcher.explain(demanded)["path"] == "factor"
        payload = brownout_dispatcher.dispatch(demanded)
        assert (payload["route"], payload["degraded"]) == ("factor", False)
        assert payload["value"] == exact.value

    def test_degraded_cell_uses_svd_reconstruction(
        self, brownout_dispatcher, serve_model_dir, tmp_path
    ):
        """A brownout cell keeps its delta probe: exact on a healthy
        model.  Only a store that lost its deltas answers a cell from
        the SVD reconstruction, stamped ``degraded``."""
        for _ in range(2):
            brownout_dispatcher._note_shed()
        payload = brownout_dispatcher.dispatch("cell(5, 5)")
        assert payload["degraded"] is False
        with CompressedMatrix.open(serve_model_dir) as store:
            assert payload["value"] == store.cell(5, 5)
        directory = _damaged_model(tmp_path)
        damaged = RobustDispatcher(
            directory, ServeConfig(workers=1, on_corrupt="degraded")
        )
        try:
            payload = damaged.dispatch("cell(5, 5)")
            assert payload["degraded"] is True
            assert payload["rmspe_estimate"] == damaged.rmspe
            scaled_u, v, index, _fetched = damaged._backend.factors(np.array([5]))
            assert index is None
            assert payload["value"] == pytest.approx(float(scaled_u[0] @ v[5]), rel=1e-12)
        finally:
            damaged.close()

    def test_full_matrix_sums_exact_from_summaries_and_min_max_shed(
        self, brownout_dispatcher, serve_model_dir
    ):
        # The per-day profile answers a sum over every row exactly, so
        # the brownout path serves it; min/max need every cell and,
        # like any plan that would stream, are shed.
        for _ in range(2):
            brownout_dispatcher._note_shed()
        assert brownout_dispatcher.explain("stddev()")["path"] == "summary"
        payload = brownout_dispatcher.dispatch("stddev()")
        assert (payload["route"], payload["degraded"]) == ("summary", False)
        with CompressedMatrix.open(serve_model_dir) as store:
            exact = QueryEngine(store).execute(parse_query("stddev()"))
        assert payload["value"] == exact.value
        assert brownout_dispatcher.summary_brownout_hits >= 1
        for text in ("min()", "max() cols 0:30"):
            assert brownout_dispatcher.explain(text)["path"] == "shed"
            with pytest.raises(OverloadedError) as excinfo:
                brownout_dispatcher.dispatch(text)
            assert excinfo.value.reason == "brownout"

    def test_sub_rectangle_min_max_still_shed_during_brownout(
        self, brownout_dispatcher
    ):
        text = "min() rows 0:10 cols 0:10"
        assert brownout_dispatcher.explain(text)["path"] == "stream"
        for _ in range(2):
            brownout_dispatcher._note_shed()
        assert brownout_dispatcher.explain(text)["path"] == "shed"
        with pytest.raises(OverloadedError) as excinfo:
            brownout_dispatcher.dispatch(text)
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


class TestDrain:
    def test_draining_dispatcher_sheds_with_drain_reason(self, serve_model_dir):
        config = ServeConfig(workers=1, drain_grace_s=1.0)
        dispatcher = RobustDispatcher(serve_model_dir, config)
        assert dispatcher.drain() is True
        with pytest.raises(OverloadedError) as excinfo:
            dispatcher.dispatch("count()")
        assert excinfo.value.reason == "drain"
        dispatcher.close()  # idempotent

    @pytest.mark.parametrize("draining", [True, False])
    @pytest.mark.parametrize("route", ["dispatch", "groupby"])
    def test_a_model_closed_under_a_query_sheds_it_only_while_draining(
        self, stale_model_dir, monkeypatch, spy_on_execute, route, draining
    ):
        """A query admitted before the drain whose grace ran out: the
        released model's failure is the drain shed, and stays a typed
        storage failure when no drain released it."""
        dispatcher = RobustDispatcher(stale_model_dir, ServeConfig(workers=1))

        def close_under(*_args):
            dispatcher._draining = draining
            dispatcher.close()

        if route == "dispatch":
            spy_on_execute(dispatcher, before=close_under)

            def ask():
                return dispatcher.dispatch("sum() rows 0:40 cols 0:25")
        else:
            series = robust.bucket_series

            def closing_series(*args):
                close_under()
                return series(*args)

            monkeypatch.setattr(robust, "bucket_series", closing_series)

            def ask():
                return dispatcher.groupby("month", "sum")

        with pytest.raises(OverloadedError if draining else StoreClosedError) as excinfo:
            ask()
        if draining:
            assert excinfo.value.reason == "drain"


def _damaged_model(tmp_path):
    """A copy-sized model whose delta sidecar is garbage: only a
    degraded open succeeds."""
    from repro.core.build import build_compressed

    rng = np.random.default_rng(3)
    data = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 30))
    data += 0.05 * rng.standard_normal(data.shape)
    directory = tmp_path / "damaged"
    build_compressed(data, directory, budget_fraction=0.2).close()
    assert (directory / "deltas.bin").stat().st_size > 7
    (directory / "deltas.bin").write_bytes(b"garbage")
    return directory


class TestDegradedModelOpen:
    def test_damaged_model_refuses_to_serve_unless_allowed(self, tmp_path):
        """The check the pool's constructor used to carry: the default
        ``on_corrupt="raise"`` surfaces the storage layer's typed error
        — the one ``repro serve`` prints, without a traceback, on its
        way to exit 1; ``--allow-degraded`` serves, stamped."""
        directory = _damaged_model(tmp_path)
        with pytest.raises(StorageError) as excinfo:
            RobustDispatcher(directory, ServeConfig(workers=1, on_corrupt="raise"))
        with pytest.raises(StorageError):
            RobustDispatcher(directory)  # raise is the default
        serve = [sys.executable, "-m", "repro", "serve", str(directory), "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONUNBUFFERED="1")
        refused = subprocess.run(
            serve, env=env, capture_output=True, text=True, timeout=60
        )
        assert refused.returncode == 1
        assert refused.stderr.strip() == f"error: {excinfo.value}"
        assert refused.stdout == ""
        allowed = subprocess.Popen(
            [*serve, "--allow-degraded"], env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            url = allowed.stdout.readline().split(" on ")[1].split()[0]
            path = "/aggregate?fn=sum&rows=0:10&cols=0:10"
            with urllib.request.urlopen(url + path, timeout=30) as reply:
                payload = json.loads(reply.read())
            assert payload["degraded"] is True and payload["route"] == "svd"
            with urllib.request.urlopen(url + "/stats", timeout=30) as reply:
                stats = json.loads(reply.read())
            assert stats["model_degraded"] and stats["brownout"]
            allowed.send_signal(signal.SIGTERM)
            assert allowed.wait(timeout=30) == 0
        finally:
            allowed.kill()
            allowed.wait()
            allowed.stdout.close()

    def test_corrupt_delta_sidecar_serves_degraded(self, tmp_path):
        """A model that lost its deltas stays in brownout: sums over
        every row are exact from the per-day profile (it folded the lost
        deltas in when it was built), a partial sum is the ``svd`` route
        stamped with the estimate, and a partial min/max — or a demand
        for exactness no route can meet — is shed."""
        rng = np.random.default_rng(3)
        data = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 30))
        data[5, 7] += 40.0  # an outlier the deltas correct
        directory = tmp_path / "model"
        build_compressed(data, directory, budget_fraction=0.2).close()
        with CompressedMatrix.open(directory) as healthy:
            dense = healthy.reconstruct_all()
        lose_deltas(directory)
        config = ServeConfig(workers=1, on_corrupt="degraded")
        dispatcher = RobustDispatcher(directory, config)
        try:
            assert dispatcher.model_degraded and dispatcher.brownout_active()
            for text in ("sum() cols 0:10", "avg()", "stddev() cols 3:9"):
                covered = dispatcher.dispatch(text)
                assert dispatcher.explain(text)["path"] == covered["route"] == "summary"
                assert covered["degraded"] is False
                assert covered["error_bound"] == 0.0
            assert covered["value"] == pytest.approx(dense[:, 3:9].std(), rel=1e-9)
            text = "sum() rows 0:10 cols 0:10"
            payload = dispatcher.dispatch(text)
            assert dispatcher.explain(text)["path"] == payload["route"] == "svd"
            assert payload["degraded"] is True
            assert dispatcher.rmspe is not None
            assert payload["error_bound"] == dispatcher.rmspe
            for text in ("min() rows 0:10 cols 0:10", "sum() rows 0:10 cols 0:10"):
                query = dataclasses.replace(parse_query(text), max_rmspe=0.0)
                assert dispatcher.explain(query)["path"] == "shed"
                with pytest.raises(OverloadedError) as excinfo:
                    dispatcher.dispatch(query)
                assert excinfo.value.reason == "brownout"
            assert dispatcher.dispatch("cell(5, 7)")["degraded"] is True
        finally:
            dispatcher.close()


class TestRmspeEstimate:
    def test_estimate_from_update_state(self, dispatcher, serve_model_dir):
        with CompressedMatrix.open(serve_model_dir) as store:
            estimate = store.rmspe_estimate
        assert estimate is not None and 0.0 <= estimate < 1.0
        assert dispatcher.rmspe == estimate
        assert dispatcher.stats()["rmspe_estimate"] == estimate

    def test_missing_state_returns_none(self):
        assert rmspe_from_state(None) is None
        assert rmspe_from_state({"total_energy": 0.0}) is None

    def test_a_store_keeps_its_own_generations_estimate(self, tmp_path):
        """An append swaps the directory under an open store: the store
        keeps the estimate of the files it opened, and stamps that one
        on its ``svd``-route answers."""
        data = phone_matrix(400)
        directory = tmp_path / "model"
        build_compressed(data[:, :70], directory, budget_fraction=0.10).close()
        with CompressedMatrix.open(directory) as probe:
            own = probe.rmspe_estimate
        with CompressedMatrix.open(directory) as old:
            append_columns(directory, data[:, 70:84])
            with old.reopen() as new:
                assert new.shape == (400, 84)
                assert new.rmspe_estimate != own
            assert old.shape == (400, 70)
            assert old.rmspe_estimate == own
            query = parse_query("sum() rows 0:10 cols 0:10")
            result = QueryEngine(old).aggregate(query, max_rmspe=1.0)
            assert (result.route, result.error_bound) == ("svd", own)
