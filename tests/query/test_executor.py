"""Tests for the concurrent query executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_compressed
from repro.exceptions import QueryError
from repro.query import (
    AggregateQuery,
    CellQuery,
    QueryEngine,
    QueryExecutor,
    Selection,
)


@pytest.fixture(scope="module")
def data(rng):
    u = rng.standard_normal((120, 4))
    v = rng.standard_normal((4, 40))
    return u @ v


@pytest.fixture(scope="module")
def model(data, tmp_path_factory):
    store = build_compressed(data, tmp_path_factory.mktemp("exec") / "model")
    yield store
    store.close()


def _mixed_queries(shape, count=24, seed=7):
    rng = np.random.default_rng(seed)
    rows, cols = shape
    queries = []
    for index in range(count):
        if index % 3 == 0:
            r0, r1 = sorted(rng.integers(0, rows, size=2).tolist())
            c0, c1 = sorted(rng.integers(0, cols, size=2).tolist())
            function = ("sum", "avg", "count", "min")[index % 4]
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


class TestDispatch:
    def test_submit_cell(self, model):
        expected = QueryEngine(model).cell(CellQuery(3, 5)).value
        with QueryExecutor(model, max_workers=2) as pool:
            result = pool.submit(CellQuery(3, 5)).result()
        assert result.value == expected

    def test_tuple_and_text_forms(self, model):
        with QueryExecutor(model, max_workers=2) as pool:
            from_tuple = pool.submit((2, 4)).result()
            from_text = pool.submit("cell(2, 4)").result()
        assert from_tuple.value == pytest.approx(from_text.value)

    def test_aggregate_text(self, model):
        from repro.query import parse_query

        expected = QueryEngine(model).aggregate(
            parse_query("sum() rows 0:50 cols 0:20")
        ).value
        with QueryExecutor(model, max_workers=2) as pool:
            result = pool.submit("sum() rows 0:50 cols 0:20").result()
        assert result.value == expected

    def test_bad_form_rejected(self, model):
        with QueryExecutor(model, max_workers=1) as pool:
            with pytest.raises(QueryError):
                pool.submit({"not": "a query"})

    def test_bad_worker_count_rejected(self, model):
        with pytest.raises(ValueError):
            QueryExecutor(model, max_workers=0)

    def test_submit_after_shutdown_rejected(self, model):
        pool = QueryExecutor(model, max_workers=1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(CellQuery(0, 0))


class TestParallelAgreement:
    """Concurrent answers must be identical to single-threaded ones."""

    def test_map_matches_sequential_engine(self, model):
        queries = _mixed_queries(model.shape)
        engine = QueryEngine(model)
        expected = []
        for query in queries:
            if isinstance(query, AggregateQuery):
                expected.append(engine.aggregate(query).value)
            else:
                expected.append(engine.cell(query if isinstance(query, CellQuery) else CellQuery(*query)).value)
        with QueryExecutor(model, max_workers=4) as pool:
            results = pool.map(queries)
        assert [r.value for r in results] == expected

    def test_map_preserves_order(self, model):
        queries = [(i % model.shape[0], i % model.shape[1]) for i in range(16)]
        single = QueryExecutor(model, max_workers=1)
        multi = QueryExecutor(model, max_workers=4)
        try:
            assert [r.value for r in multi.map(queries)] == [
                r.value for r in single.map(queries)
            ]
        finally:
            single.shutdown()
            multi.shutdown()

    def test_failing_query_surfaces_without_poisoning_pool(self, model):
        with QueryExecutor(model, max_workers=2) as pool:
            bad = pool.submit(CellQuery(10**9, 0))
            good = pool.submit(CellQuery(0, 0))
            with pytest.raises(QueryError):
                bad.result()
            assert good.result().cells_touched == 1


class TestBatchReport:
    def test_run_batch_accounting(self, model):
        queries = _mixed_queries(model.shape, count=12)
        with QueryExecutor(model, max_workers=2) as pool:
            report = pool.run_batch(queries)
        assert report.queries == 12
        assert len(report.results) == 12
        assert report.workers == 2
        assert report.wall_s > 0
        assert report.throughput_qps > 0

    def test_profiles_preserved_per_query(self, model, enabled_registry):
        with QueryExecutor(model, max_workers=4) as pool:
            results = pool.map(_mixed_queries(model.shape, count=9))
        assert all(r.profile is not None for r in results)
        paths = {r.profile.path for r in results}
        assert paths <= {"cell", "factor", "stream"}

    def test_concurrency_gauge_settles_to_zero(self, model, enabled_registry):
        with QueryExecutor(model, max_workers=4) as pool:
            pool.map(_mixed_queries(model.shape, count=16))
        snapshot = enabled_registry.snapshot()
        assert snapshot["gauges"]["executor.concurrency"] == 0.0
        assert snapshot["gauges"]["executor.workers"] == 4.0
        assert snapshot["counters"]["executor.queries"] == 16


class TestWarehouseIntegration:
    def test_warehouse_executor_owns_model(self, data, tmp_path):
        from repro.lab.warehouse import Warehouse

        warehouse = Warehouse(tmp_path)
        warehouse.ingest("sales", data, keep_raw=False, verify=False)
        with warehouse.executor("sales", max_workers=2) as pool:
            result = pool.submit("sum() rows 0:10 cols 0:10").result()
            backend = pool._backend
        assert result.cells_touched == 100
        # Ownership: leaving the with-block closed the model's page file.
        import os

        with pytest.raises(OSError):
            os.fstat(backend._u_store._pager._fd)


class _SlowBackend:
    """Row backend whose reads sleep, for draining/lifecycle races."""

    def __init__(self, data, delay=0.02):
        self._data = data
        self.shape = data.shape
        self.delay = delay
        self.closed = False
        self.reads_after_close = 0

    def row(self, index):
        import time

        time.sleep(self.delay)
        if self.closed:
            self.reads_after_close += 1
        return self._data[index]

    def close(self):
        self.closed = True


class TestLifecycleRaces:
    def test_shutdown_wait_false_defers_backend_close(self, rng):
        """shutdown(wait=False) must not close backends under in-flight
        queries: the close happens only after the pool drains."""
        import time

        backend = _SlowBackend(rng.standard_normal((30, 10)), delay=0.05)
        pool = QueryExecutor(backend, max_workers=2, close_backend=True)
        futures = [pool.submit(CellQuery(i, 0)) for i in range(6)]
        start = time.perf_counter()
        pool.shutdown(wait=False)
        # Returns promptly, well before the ~150ms of queued sleeps.
        assert time.perf_counter() - start < 0.1
        # Every in-flight/queued query completes against a live backend.
        values = [f.result().value for f in futures]
        assert len(values) == 6
        pool._closer.join(timeout=10)
        assert backend.closed
        assert backend.reads_after_close == 0

    def test_shutdown_wait_true_closes_after_drain(self, rng):
        backend = _SlowBackend(rng.standard_normal((30, 10)), delay=0.02)
        pool = QueryExecutor(backend, max_workers=2, close_backend=True)
        futures = [pool.submit(CellQuery(i, 0)) for i in range(4)]
        pool.shutdown(wait=True)
        assert backend.closed
        assert backend.reads_after_close == 0
        assert all(f.done() for f in futures)

    def test_submit_vs_shutdown_race(self, rng):
        """A submit that wins the race gets a future that completes; a
        submit that loses gets RuntimeError — never a task scheduled
        onto a closed pool or answered by a closed backend."""
        import threading

        backend = _SlowBackend(rng.standard_normal((30, 10)), delay=0.001)
        pool = QueryExecutor(backend, max_workers=2, close_backend=True)
        futures, rejected = [], []
        stop = threading.Event()

        def submitter():
            while not stop.is_set():
                try:
                    futures.append(pool.submit(CellQuery(0, 0)))
                except RuntimeError:
                    rejected.append(1)
                    return

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.05)
        pool.shutdown(wait=False)
        stop.set()
        for thread in threads:
            thread.join()
        pool._closer.join(timeout=10)
        # Every accepted future completed against a live backend.
        for future in futures:
            assert future.result().cells_touched == 1
        assert backend.reads_after_close == 0
        assert backend.closed

    def test_refresh_then_shutdown_closes_retired_backends(self, rng):
        """Backends replaced by refresh() are retired, then closed at
        shutdown — including with the deferred wait=False path."""
        data = rng.standard_normal((20, 8))
        first = _SlowBackend(data, delay=0.0)
        second = _SlowBackend(data, delay=0.0)
        pool = QueryExecutor(first, max_workers=2, close_backend=True)
        pool.refresh(second)
        assert not first.closed  # retired, not closed: reads may be live
        pool.shutdown(wait=False)
        pool._closer.join(timeout=10)
        assert first.closed
        assert second.closed

    def test_unowned_initial_backend_stays_open(self, rng):
        data = rng.standard_normal((20, 8))
        caller_owned = _SlowBackend(data, delay=0.0)
        replacement = _SlowBackend(data, delay=0.0)
        pool = QueryExecutor(caller_owned, max_workers=1)
        pool.refresh(replacement)
        pool.shutdown()
        assert not caller_owned.closed  # ours to close, not the pool's
        assert replacement.closed  # executor-opened: pool owns it


class TestRefresh:
    def _appendable_model(self, tmp_path, rng):
        data = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 30))
        directory = tmp_path / "model"
        build_compressed(data, directory).close()
        return directory, data

    def test_refresh_picks_up_appended_columns(self, tmp_path, rng):
        from repro.core import CompressedMatrix
        from repro.core.update import append_columns

        directory, data = self._appendable_model(tmp_path, rng)
        backend = CompressedMatrix.open(directory)
        with QueryExecutor(backend, max_workers=2, close_backend=True) as pool:
            assert pool.engine.shape == (80, 30)
            append_columns(directory, data[:, :4] * 1.5)
            # Not refreshed yet: still the pre-append snapshot.
            assert pool.engine.shape == (80, 30)
            pool.refresh()
            assert pool.engine.shape == (80, 34)
            result = pool.submit(CellQuery(5, 33)).result()
            assert np.isfinite(result.value)

    def test_refresh_with_explicit_backend(self, tmp_path, rng):
        from repro.core import CompressedMatrix

        directory, _data = self._appendable_model(tmp_path, rng)
        backend = CompressedMatrix.open(directory)
        replacement = CompressedMatrix.open(directory)
        with QueryExecutor(backend, max_workers=2, close_backend=True) as pool:
            pool.refresh(replacement)
            assert pool._backend is replacement

    def test_refresh_requires_reopenable_backend(self, rng):
        data = rng.standard_normal((10, 8))
        with QueryExecutor(data, max_workers=1) as pool:
            with pytest.raises(QueryError, match="reopen"):
                pool.refresh()

    def test_engine_refresh_swaps_snapshot(self, model):
        """QueryEngine.refresh changes answers only for new queries."""
        import numpy as np

        engine = QueryEngine(model)
        before = engine.cell(CellQuery(2, 3)).value
        other = np.zeros((5, 5))
        engine.refresh(other)
        assert engine.shape == (5, 5)
        assert engine.cell(CellQuery(2, 3)).value == 0.0
        engine.refresh(model)
        assert engine.cell(CellQuery(2, 3)).value == before
