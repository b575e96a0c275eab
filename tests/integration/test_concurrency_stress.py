"""Concurrency stress: many threads, one model, bit-identical answers.

The whole point of the lock-free pager and sharded pool is that
concurrent readers cannot observe torn pages, stale bytes, or each
other's file offsets.  These tests hammer one shared
:class:`~repro.core.store.CompressedMatrix` from many threads running
interleaved cell queries, aggregates, and fresh ``open()`` calls, and
require every answer to equal — ``==``, not approx — the
single-threaded answer.  A second round repeats the exercise under
injected transient read faults, which the pager's retry loop must
absorb without changing a single bit, and a third sends the same
workloads through one shared serving dispatcher.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.query import AggregateQuery, CellQuery, QueryEngine, Selection
from repro.serve.config import ServeConfig
from repro.serve.robust import RobustDispatcher
from repro.storage import faults
from repro.storage.faults import FaultPlan

THREADS = 8
ROUNDS = 6


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    rng = np.random.default_rng(99)
    u = rng.standard_normal((160, 5))
    v = rng.standard_normal((5, 48))
    directory = tmp_path_factory.mktemp("stress") / "model"
    build_compressed(u @ v, directory).close()
    return directory


def _workload(shape, seed):
    """A deterministic per-thread mix of cell and aggregate queries."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    queries = []
    for index in range(ROUNDS):
        queries.append(
            CellQuery(int(rng.integers(0, rows)), int(rng.integers(0, cols)))
        )
        r0 = int(rng.integers(0, rows - 8))
        c0 = int(rng.integers(0, cols - 8))
        function = ("sum", "avg", "min", "max", "stddev", "count")[index % 6]
        queries.append(
            AggregateQuery(
                function,
                Selection(rows=range(r0, r0 + 8), cols=range(c0, c0 + 8)),
            )
        )
    return queries


def _run(engine, query):
    if isinstance(query, CellQuery):
        return engine.cell(query).value
    return engine.aggregate(query).value


def _stress(model_dir, expected):
    """Run every thread's workload concurrently against one shared model
    (plus per-thread reopened handles) and compare to ``expected``."""
    shared = CompressedMatrix.open(model_dir)
    shared_engine = QueryEngine(shared)
    barrier = threading.Barrier(THREADS)
    failures: list[str] = []

    def body(thread_index: int) -> None:
        try:
            queries = _workload(shared.shape, seed=thread_index)
            barrier.wait()
            for round_index in range(3):
                if round_index == 1:
                    # Interleave a fresh open: a private handle over the
                    # same files must agree with the shared one.
                    private = CompressedMatrix.open(model_dir)
                    engine = QueryEngine(private)
                else:
                    private = None
                    engine = shared_engine
                for query, want in zip(queries, expected[thread_index]):
                    got = _run(engine, query)
                    if got != want:
                        failures.append(
                            f"thread {thread_index} round {round_index}: "
                            f"{query} -> {got!r}, expected {want!r}"
                        )
                if private is not None:
                    private.close()
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append(f"thread {thread_index}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=body, args=(index,)) for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    shared.close()
    assert not failures, "\n".join(failures[:10])


@pytest.fixture(scope="module")
def expected(model_dir):
    """Single-threaded ground truth for every thread's workload."""
    model = CompressedMatrix.open(model_dir)
    engine = QueryEngine(model)
    truth = {
        index: [_run(engine, q) for q in _workload(model.shape, seed=index)]
        for index in range(THREADS)
    }
    model.close()
    return truth


class TestConcurrencyStress:
    def test_interleaved_queries_bit_identical(self, model_dir, expected):
        _stress(model_dir, expected)

    def test_bit_identical_under_transient_faults(self, model_dir, expected):
        """Scripted EIO blips on u.mat reads: the retry loop absorbs
        them and answers do not change by a single bit."""
        plan = FaultPlan(
            path_substring="u.mat", fail_read_at=5, fail_reads=1
        )
        with faults.inject(plan):
            _stress(model_dir, expected)
        assert plan.injected >= 1

    def test_dispatcher_against_stress_workload(self, model_dir, expected):
        """Plain threads sharing one ``RobustDispatcher.dispatch`` — the
        serve tier's door — give the same bits as single-threaded."""
        config = ServeConfig(
            workers=2,
            max_queue_depth=4 * THREADS,
            max_queue_age_ms=60_000.0,
            default_timeout_ms=60_000.0,
        )
        with CompressedMatrix.open(model_dir) as model:
            shape = model.shape
        dispatcher = RobustDispatcher(model_dir, config)
        barrier = threading.Barrier(THREADS)
        got: dict[int, list] = {}

        def body(thread_index: int) -> None:
            queries = _workload(shape, seed=thread_index)
            barrier.wait()
            got[thread_index] = [dispatcher.dispatch(q)["value"] for q in queries]

        threads = [
            threading.Thread(target=body, args=(index,)) for index in range(THREADS)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            dispatcher.close()
        assert got == expected
