"""One engine behind a thread pool: a rung of the benchmark harness's ladder.

No product caller.  ``repro batch``, ``repro serve`` and the warehouse
each answer on one :class:`~repro.query.engine.QueryEngine` in the
caller's own thread: a measured fan-out over ``adhoc_agg``'s op list
lost to one engine at 2 cores (docs/ARCHITECTURE.md, "One engine per
caller").  It stays only because ``benchmarks/harness/trace.py`` times
:meth:`QueryExecutor.submit`; ROADMAP item 1(a) deletes this module
with the ladder rungs.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor

from repro.query.engine import QueryEngine, QueryResult, usable_cpu_count

__all__ = ["QueryExecutor", "usable_cpu_count"]


class QueryExecutor:
    """A thread pool answering :meth:`QueryEngine.execute` over ``backend``.

    ``max_workers`` defaults to :func:`usable_cpu_count`.  A context
    manager: leaving the block drains the pool; the backend stays the
    caller's to close.
    """

    def __init__(self, backend, max_workers: int | None = None) -> None:
        self._engine = QueryEngine(backend)
        self._pool = ThreadPoolExecutor(
            usable_cpu_count() if max_workers is None else max_workers,
            thread_name_prefix="repro-query",
        )

    def submit(self, query) -> "Future[QueryResult]":
        """Schedule one engine query (a ``CellQuery``, ``(row, col)`` or
        ``AggregateQuery``); a future of its result."""
        return self._pool.submit(self._engine.execute, query)

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown()
