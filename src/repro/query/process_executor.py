"""One engine per worker process: a rung of the benchmark harness's ladder.

No product caller.  ``repro serve`` answers on its handler threads,
``repro batch`` and the warehouse on one engine in the caller's thread:
a measured fan-out over ``adhoc_agg``'s op list lost to one engine at 2
cores (docs/ARCHITECTURE.md, "One engine per caller").  It stays only
because ``benchmarks/harness/trace.py`` times
:meth:`ProcessQueryExecutor.submit` and its start; ROADMAP item 1(a)
deletes this module with the ladder rungs.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor

from repro.core.store import CompressedMatrix
from repro.query.engine import QueryEngine, QueryResult, usable_cpu_count

__all__ = ["ProcessQueryExecutor"]

#: This worker process's engine, opened once by :func:`_open`.
_ENGINE: QueryEngine | None = None


def _open(directory: str) -> None:
    global _ENGINE
    _ENGINE = QueryEngine(CompressedMatrix.open(directory, mapped=True))


def _execute(query) -> QueryResult:
    return _ENGINE.execute(query)


class ProcessQueryExecutor:
    """A process pool whose workers each open ``directory`` mapped once.

    Forks where the platform can, else spawns; ``max_workers`` defaults
    to :func:`usable_cpu_count`.  A directory that does not open raises
    :meth:`CompressedMatrix.open`'s typed error here, before any worker
    starts.  A context manager: leaving the block drains the pool.
    """

    def __init__(
        self, directory: str | os.PathLike, max_workers: int | None = None
    ) -> None:
        CompressedMatrix.open(directory, mapped=True).close()
        methods = multiprocessing.get_all_start_methods()
        self._pool = ProcessPoolExecutor(
            usable_cpu_count() if max_workers is None else max_workers,
            mp_context=multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            ),
            initializer=_open,
            initargs=(str(directory),),
        )

    def submit(self, query) -> "Future[QueryResult]":
        """Schedule one engine query (a ``CellQuery``, ``(row, col)`` or
        ``AggregateQuery``); a future of its result."""
        return self._pool.submit(_execute, query)

    def __enter__(self) -> "ProcessQueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown()
