"""Tests for the multiprocess query executor.

Workers are real processes that open and mmap the model themselves, so
these tests exercise the genuine IPC boundary: queries pickled in,
results (with profiles) pickled out, generation-based remaps after
appends, and pool recovery after a worker process dies.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.core import CompressedMatrix, build_compressed
from repro.exceptions import QueryError, StorageError
from repro.obs.tracing import new_trace_id
from repro.query import (
    AggregateQuery,
    CellQuery,
    ProcessQueryExecutor,
    QueryEngine,
    Selection,
)
from repro.query.process_executor import _CrashProbe


@pytest.fixture(scope="module")
def data(rng):
    u = rng.standard_normal((100, 4))
    v = rng.standard_normal((4, 36))
    return u @ v


@pytest.fixture(scope="module")
def model_dir(data, tmp_path_factory):
    directory = tmp_path_factory.mktemp("procexec") / "model"
    build_compressed(data, directory).close()
    return directory


@pytest.fixture(scope="module")
def pool(model_dir):
    executor = ProcessQueryExecutor(model_dir, max_workers=2)
    yield executor
    executor.shutdown()


def _mixed_queries(shape, count=18, seed=5):
    rng = np.random.default_rng(seed)
    rows, cols = shape
    queries = []
    for index in range(count):
        if index % 3 == 0:
            r0, r1 = sorted(rng.integers(0, rows, size=2).tolist())
            c0, c1 = sorted(rng.integers(0, cols, size=2).tolist())
            function = ("sum", "avg", "count", "stddev")[index % 4]
            queries.append(
                AggregateQuery(
                    function,
                    Selection(rows=range(r0, r1 + 1), cols=range(c0, c1 + 1)),
                )
            )
        elif index % 3 == 1:
            queries.append(
                CellQuery(int(rng.integers(0, rows)), int(rng.integers(0, cols)))
            )
        else:
            queries.append((int(rng.integers(0, rows)), int(rng.integers(0, cols))))
    return queries


def _draw_trace_ids(count: int) -> tuple[int, list[str]]:
    """Runs in a pool worker: its pid and the ids it drew."""
    time.sleep(0.05)  # long enough for the other worker to take a task too
    return os.getpid(), [new_trace_id() for _ in range(count)]


def _sequential_answers(model_dir, queries):
    with CompressedMatrix.open(model_dir) as store:
        engine = QueryEngine(store)
        return [engine.execute(_as_engine_query(q)).value for q in queries]


def _as_engine_query(query):
    from repro.query.executor import coerce_query

    return coerce_query(query)


class TestDispatch:
    def test_submit_matches_sequential(self, pool, model_dir):
        expected = _sequential_answers(model_dir, [CellQuery(3, 5)])[0]
        assert pool.submit(CellQuery(3, 5)).result().value == expected

    def test_tuple_and_text_forms(self, pool):
        from_tuple = pool.submit((2, 4)).result()
        from_text = pool.submit("cell(2, 4)").result()
        assert from_tuple.value == from_text.value

    def test_map_bit_identical_to_sequential(self, pool, model_dir):
        queries = _mixed_queries((100, 36))
        expected = _sequential_answers(model_dir, queries)
        assert [r.value for r in pool.map(queries)] == expected

    def test_chunked_map_preserves_order(self, pool, model_dir):
        queries = _mixed_queries((100, 36), count=13)
        expected = _sequential_answers(model_dir, queries)
        for chunksize in (1, 3, 13, 50):
            results = pool.map(queries, chunksize=chunksize)
            assert [r.value for r in results] == expected

    def test_run_batch_accounting(self, pool):
        report = pool.run_batch(_mixed_queries((100, 36), count=12))
        assert report.queries == 12
        assert len(report.results) == 12
        assert report.workers == 2
        assert np.isfinite(report.throughput_qps)

    def test_failing_query_surfaces_at_its_slot(self, pool):
        with pytest.raises(QueryError):
            pool.submit(CellQuery(10**9, 0)).result()
        # The pool is not poisoned: the next query still answers.
        assert pool.submit(CellQuery(0, 0)).result().cells_touched == 1

    def test_failing_query_in_chunk_does_not_poison_chunk(self, pool, model_dir):
        # Error raised at the bad slot; earlier slots already collected.
        with pytest.raises(QueryError):
            pool.map([(0, 0), (10**9, 0), (1, 1)], chunksize=3)
        assert pool.submit((1, 1)).result().cells_touched == 1

    def test_bad_form_rejected_in_parent(self, pool):
        with pytest.raises(QueryError):
            pool.submit({"not": "a query"})

    def test_bad_chunksize_rejected(self, pool):
        with pytest.raises(QueryError):
            pool.map([(0, 0)], chunksize=0)

    def test_bad_worker_count_rejected(self, model_dir):
        with pytest.raises(ValueError):
            ProcessQueryExecutor(model_dir, max_workers=0)

    def test_bad_directory_fails_fast(self, tmp_path):
        with pytest.raises((StorageError, OSError)):
            ProcessQueryExecutor(tmp_path / "nope")

    def test_submit_after_shutdown_rejected(self, model_dir):
        executor = ProcessQueryExecutor(model_dir, max_workers=1)
        executor.shutdown()
        with pytest.raises(RuntimeError):
            executor.submit(CellQuery(0, 0))
        # shutdown is idempotent
        executor.shutdown()


class TestProfiles:
    def test_profiles_cross_the_process_boundary(self, model_dir, enabled_registry):
        with ProcessQueryExecutor(model_dir, max_workers=2) as executor:
            results = executor.map(_mixed_queries((100, 36), count=9))
        assert all(r.profile is not None for r in results)
        assert {r.profile.path for r in results} <= {"cell", "factor", "stream"}

    def test_worker_metrics_merge(self, model_dir, enabled_registry):
        with ProcessQueryExecutor(model_dir, max_workers=2) as executor:
            executor.map(_mixed_queries((100, 36), count=16), chunksize=2)
            merged = executor.worker_metrics()
        assert merged["workers_reporting"] >= 1
        assert merged["queries"] == 16
        assert merged["fast_path_hits"] + merged["streamed"] >= 1
        snapshot = enabled_registry.snapshot()
        assert snapshot["counters"]["executor.proc.queries"] == 16
        assert snapshot["gauges"]["executor.proc.workers"] == 2.0


class TestTracePropagation:
    def test_results_carry_worker_span_trees(self, model_dir, enabled_registry):
        from repro.obs.tracing import span

        with ProcessQueryExecutor(model_dir, max_workers=2) as executor:
            with span("caller") as caller:
                results = executor.map(_mixed_queries((100, 36), count=6))
        for result in results:
            tree = result.profile.extra["worker_span"]
            assert tree["name"] == "query.worker"
            assert tree["trace_id"] == result.profile.trace_id
            assert tree["children"], "engine spans missing under worker span"
        # map() grafted every worker tree under the caller's live span.
        worker_spans = [c for c in caller.children if c.name == "query.worker"]
        assert len(worker_spans) == 6

    def test_ambient_trace_spans_caller_and_worker(self, model_dir, enabled_registry):
        from repro.obs.tracing import span, trace

        with ProcessQueryExecutor(model_dir, max_workers=1) as executor:
            with trace("beef0000beef0000"), span("caller") as caller:
                executor.map([CellQuery(1, 2)])
        assert caller.trace_id == "beef0000beef0000"
        (worker,) = caller.children
        assert worker.trace_id == "beef0000beef0000"
        assert worker.find("query.cell").trace_id == "beef0000beef0000"

    def test_forked_workers_do_not_replay_the_parents_trace_ids(self, model_dir):
        """Ids come from one seeded generator per process; a forked
        worker inherits its parent's generator state and must re-seed,
        or parent and workers would all draw the same ids next."""
        with ProcessQueryExecutor(model_dir, max_workers=2) as executor:
            # Both workers fork on the first submit, before any of the
            # ids below is drawn.
            futures = [executor._pool.submit(_draw_trace_ids, 500) for _ in range(8)]
            drawn = {os.getpid(): [new_trace_id() for _ in range(500)]}
            for future in futures:
                pid, ids = future.result(timeout=30)
                drawn.setdefault(pid, []).extend(ids)
        assert len(drawn) == 3, "both workers and the parent should have drawn"
        every = [trace_id for ids in drawn.values() for trace_id in ids]
        assert len(set(every)) == len(every) == 9 * 500

    def test_no_trace_overhead_when_disabled(self, model_dir):
        from repro.obs import registry

        assert not registry.enabled
        with ProcessQueryExecutor(model_dir, max_workers=1) as executor:
            result = executor.submit(CellQuery(0, 0)).result()
        assert result.profile is None

    def test_submit_exposes_worker_span_for_manual_graft(
        self, model_dir, enabled_registry
    ):
        with ProcessQueryExecutor(model_dir, max_workers=1) as executor:
            result = executor.submit(CellQuery(2, 3)).result()
        assert result.profile.extra["worker_span"]["name"] == "query.worker"


class TestRetiredTotals:
    def test_worker_metrics_monotonic_across_crash(self, model_dir, enabled_registry):
        queries = _mixed_queries((100, 36), count=10)
        with ProcessQueryExecutor(model_dir, max_workers=2) as executor:
            executor.map(queries, chunksize=2)
            before = executor.worker_metrics()
            assert before["queries"] == 10
            with pytest.raises(BrokenProcessPool):
                executor.submit(_CrashProbe()).result()
            # Rebuilt pool: new worker processes restart their counters
            # at zero, but the merged view keeps the retired totals.
            executor.map(queries, chunksize=2)
            after = executor.worker_metrics()
        assert after["queries"] == 20
        assert after["fast_path_hits"] >= before["fast_path_hits"]
        assert after["streamed"] >= before["streamed"]
        assert after["workers_reporting"] >= 1

    def test_totals_survive_repeated_rebuilds(self, model_dir, enabled_registry):
        with ProcessQueryExecutor(model_dir, max_workers=1) as executor:
            totals = []
            for _ in range(3):
                executor.map([(0, 0), (1, 1)])
                totals.append(executor.worker_metrics()["queries"])
                with pytest.raises(BrokenProcessPool):
                    executor.submit(_CrashProbe()).result()
            assert totals == [2, 4, 6]
        # Rebuilds are lazy (first submit against a broken pool), so the
        # final crash — with no submit after it — never triggers one.
        assert (
            enabled_registry.snapshot()["counters"]["executor.proc.restarts"] == 2
        )


class TestRefresh:
    def test_refresh_remaps_workers_after_append(self, tmp_path, rng):
        from repro.core.update import append_rows

        data = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 24))
        directory = tmp_path / "model"
        build_compressed(data, directory).close()
        with ProcessQueryExecutor(directory, max_workers=2) as executor:
            count = executor.submit("count() rows 0:60 cols 0:24").result()
            assert count.value == 60 * 24
            append_rows(directory, rng.standard_normal((8, 24)))
            # Workers still serve the pre-append snapshot: the new rows
            # are out of range until refresh() bumps the generation.
            for _ in range(4):
                with pytest.raises(QueryError):
                    executor.submit((64, 0)).result()
            executor.refresh()
            assert executor.generation == 1
            assert np.isfinite(executor.submit((64, 0)).result().value)
            after = executor.submit("count() rows 0:68 cols 0:24").result()
            assert after.value == 68 * 24

    def test_refresh_after_shutdown_rejected(self, model_dir):
        executor = ProcessQueryExecutor(model_dir, max_workers=1)
        executor.shutdown()
        with pytest.raises(RuntimeError):
            executor.refresh()


class TestCrashRecovery:
    def test_worker_crash_breaks_then_pool_recovers(self, model_dir, enabled_registry):
        with ProcessQueryExecutor(model_dir, max_workers=2) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.submit(_CrashProbe()).result()
            # The next submit rebuilds the pool and serves normally.
            expected = _sequential_answers(model_dir, [(0, 0)])[0]
            assert executor.submit((0, 0)).result().value == expected
        snapshot = enabled_registry.snapshot()
        assert snapshot["counters"]["executor.proc.restarts"] == 1

    def test_crash_does_not_lose_later_batches(self, model_dir):
        queries = _mixed_queries((100, 36), count=8)
        expected = _sequential_answers(model_dir, queries)
        with ProcessQueryExecutor(model_dir, max_workers=2) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.map([_CrashProbe()])
            assert [r.value for r in executor.map(queries)] == expected
