"""Concurrent query serving over one shared backend.

The paper's target deployment (Section 1) is a warehouse answering ad
hoc queries from many analysts at once.  A single
:class:`~repro.query.engine.QueryEngine` call is already cheap, but the
interesting systems question is throughput under concurrency: can N
clients share one :class:`~repro.core.store.CompressedMatrix` without
serializing on the storage layer?

:class:`QueryExecutor` answers that with a bounded
:class:`~concurrent.futures.ThreadPoolExecutor` over one engine.  The
design leans on three properties of the stack underneath:

- ``FilePager`` reads with positionless ``os.pread``, so concurrent
  page fetches never race on a shared file offset and take no lock;
- batched gathers copy rows out of the store's read-only mapped view
  and take no lock; single ``row`` / ``cell`` reads share one
  ``BufferPool`` lock that is held for a lookup, never across a disk
  read, and all page data is immutable once cached;
- NumPy releases the GIL inside the GEMM/gather kernels that dominate
  aggregate evaluation, so threads genuinely overlap on multi-core
  hosts (and still overlap I/O with compute on one core).

Per-query accounting is preserved: each result carries its own
:class:`~repro.obs.profile.QueryProfile` when telemetry is enabled,
and the executor exports ``executor.concurrency`` (in-flight queries),
``executor.workers``, and ``executor.queries`` through the process
registry.

Example::

    with QueryExecutor(model, max_workers=4) as pool:
        report = pool.run_batch(["sum() rows 0:50 cols 0:30", (3, 7)])
    print(report.throughput_qps)
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.exceptions import QueryError
from repro.obs.registry import registry as _obs
from repro.obs.tracing import current_trace_id, new_trace_id, trace
from repro.query.engine import AggregateQuery, CellQuery, QueryEngine, QueryResult
from repro.query.engine import _as_cell_query
from repro.query.parser import parse_query

__all__ = [
    "BatchReport",
    "QueryExecutor",
    "batch_throughput",
    "coerce_query",
    "usable_cpu_count",
]

#: Upper bound on the default worker count: query work is a mix of
#: GIL-releasing kernels and page I/O, so a couple of threads beyond
#: the core count helps, but unbounded pools just burn memory.
_DEFAULT_MAX_WORKERS = 8

Query = "CellQuery | AggregateQuery | tuple | str"


def usable_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the schedulable set —
    in a cgroup-limited CI container it happily says 16 while the
    process is pinned to one core.  CPU affinity
    (``os.sched_getaffinity``) reflects the real ceiling on parallel
    speedup, so default pool sizes and the benchmark's scaling gates
    use it, falling back to ``cpu_count`` on platforms without
    affinity support.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


def _default_workers() -> int:
    return max(1, min(_DEFAULT_MAX_WORKERS, usable_cpu_count() + 2))


def batch_throughput(queries: int, wall_s: float) -> float:
    """Queries per second, finite by construction.

    A batch so small that ``wall_s`` underflows the timer's resolution
    used to report ``inf``, which then poisoned every ratio computed
    from it; clamp to 0.0 instead — an unmeasurably fast batch carries
    no throughput information.
    """
    if wall_s <= 0.0:
        return 0.0
    return queries / wall_s


def coerce_query(query):
    """Normalize the accepted query forms to engine query objects.

    The shared front door of both executors: an
    :class:`AggregateQuery` passes through, query text goes through
    :func:`~repro.query.parser.parse_query`, and a :class:`CellQuery`
    or ``(row, col)`` tuple through the engine's one cell coercion
    (integer indices only, else :class:`QueryError`).
    """
    if isinstance(query, AggregateQuery):
        return query
    if isinstance(query, str):
        return parse_query(query)
    if isinstance(query, (CellQuery, tuple)):
        return _as_cell_query(query)
    raise QueryError(
        f"unsupported query form {type(query).__name__}: expected "
        "CellQuery, AggregateQuery, (row, col), or query text"
    )


@dataclass(frozen=True)
class BatchReport:
    """Outcome of :meth:`QueryExecutor.run_batch`.

    ``results`` preserves submission order.  ``throughput_qps`` is
    queries divided by wall time (0.0 when the wall time rounds to
    zero — never ``inf``), the figure the concurrency benchmark plots
    against worker count.
    """

    results: list = field(repr=False)
    queries: int
    workers: int
    wall_s: float
    throughput_qps: float


class QueryExecutor:
    """A bounded thread pool serving queries against one backend.

    Accepts the same backend types as :class:`QueryEngine` (ndarray,
    ``MatrixStore``, in-memory models, ``CompressedMatrix``) and the
    same query forms: :class:`CellQuery`, :class:`AggregateQuery`,
    ``(row, col)`` tuples, or query text for
    :func:`~repro.query.parser.parse_query`.

    Args:
        backend: shared data source; must be thread-safe for reads
            (every shipped backend is).
        max_workers: pool size; defaults to ``min(8, cores + 2)``.
        close_backend: close the backend on :meth:`shutdown` (used by
            :meth:`repro.lab.warehouse.Warehouse.executor`, which opens the
            model itself and hands ownership to the pool).
    """

    def __init__(
        self,
        backend,
        max_workers: int | None = None,
        close_backend: bool = False,
    ) -> None:
        workers = _default_workers() if max_workers is None else int(max_workers)
        if workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._engine = QueryEngine(backend)
        self._backend = backend
        self._initial_backend = backend
        self._close_backend = close_backend
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query"
        )
        self._shutdown = False
        self._lock = threading.Lock()
        self._retired_backends: list = []
        self._closer: threading.Thread | None = None
        self.max_workers = workers
        _obs.gauge("executor.workers").set(workers)

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work, drain the pool, then close owned
        backends (idempotent).

        With ``wait=False`` the call returns immediately, but the
        backends (current *and* retired) are **not** closed until the
        pool has actually drained: in-flight worker threads may still
        be reading from them, and closing the page file under a live
        query turns a graceful drain into spurious
        ``StoreClosedError``/``OSError`` answers.  A daemon closer
        thread waits out the drain and performs the close.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        if wait:
            self._pool.shutdown(wait=True)
            self._close_backends()
            return
        self._pool.shutdown(wait=False)
        # Defer the close until the last in-flight query finishes;
        # ThreadPoolExecutor.shutdown(wait=True) is idempotent and only
        # joins here, so this blocks exactly until the drain completes.
        closer = threading.Thread(
            target=self._drain_then_close,
            name="repro-query-closer",
            daemon=True,
        )
        self._closer = closer
        closer.start()

    def _drain_then_close(self) -> None:
        self._pool.shutdown(wait=True)
        self._close_backends()

    def _close_backends(self) -> None:
        """Close executor-owned backends after the pool has drained.

        Backends the executor opened itself (refresh() reopens) are
        always ours to close; the caller's original backend only when
        ownership was handed over via close_backend.
        """
        for backend in (*self._retired_backends, self._backend):
            if backend is self._initial_backend and not self._close_backend:
                continue
            if hasattr(backend, "close"):
                backend.close()
        self._retired_backends.clear()

    def refresh(self, backend=None) -> None:
        """Start answering from a new backend snapshot.

        After an incremental append
        (:func:`repro.core.update.append_columns` /
        :func:`~repro.core.update.append_rows`) the live executor still
        serves the pre-append files through its open handles; call
        ``refresh()`` to pick up the post-append state.  With no
        argument the current backend must support ``reopen()``
        (:class:`~repro.core.store.CompressedMatrix` does) and the
        executor reopens the same directory; otherwise the given
        backend is swapped in.

        In-flight queries finish against the snapshot they started on
        (the engine captures its backend once per query), so answers
        are always wholly-old or wholly-new.  Replaced backends are
        retired, not closed — in-flight queries may still hold them —
        and are closed at :meth:`shutdown`.  Backends passed to
        ``refresh()`` become executor-owned; the construction-time
        backend keeps the ``close_backend`` ownership it was created
        with.
        """
        if backend is None:
            if not hasattr(self._backend, "reopen"):
                raise QueryError(
                    f"backend {type(self._backend).__name__} has no reopen(); "
                    "pass the replacement backend explicitly"
                )
            backend = self._backend.reopen()
        with self._lock:
            if self._shutdown:
                raise RuntimeError("QueryExecutor is shut down")
            self._retired_backends.append(self._backend)
            self._backend = backend
            self._engine.refresh(backend)
        _obs.counter("executor.refreshes").inc()

    # -- query dispatch -------------------------------------------------

    @property
    def engine(self) -> QueryEngine:
        """The shared engine (e.g. for ``explain`` or path stats)."""
        return self._engine

    def submit(self, query) -> "Future[QueryResult]":
        """Schedule one query; returns a future of its
        :class:`~repro.query.engine.QueryResult`."""
        coerced = coerce_query(query)
        # Each query gets its trace id at submit time — inheriting the
        # caller's ambient trace when one is active — so the worker
        # thread's spans, profile and log lines all join on it.
        trace_id = (
            (current_trace_id() or new_trace_id()) if _obs.enabled else None
        )
        # The shutdown check and the pool submit must be one atomic
        # step: an unlocked check could pass just as shutdown() flips
        # the flag, scheduling work onto a closing pool whose backends
        # are about to be released.  shutdown() sets the flag under
        # this same lock, so any submit that wins the race has its
        # task enqueued before the pool stops, and the deferred
        # backend close waits for it to drain.
        with self._lock:
            if self._shutdown:
                raise RuntimeError("QueryExecutor is shut down")
            return self._pool.submit(self._run_one, coerced, trace_id)

    def map(self, queries) -> list:
        """Run ``queries`` across the pool; results in submission order.

        A failing query raises when its slot is reached, after all
        submissions have been scheduled.
        """
        futures = [self.submit(query) for query in queries]
        return [future.result() for future in futures]

    def run_batch(self, queries) -> BatchReport:
        """Run ``queries`` and report batch throughput alongside the
        ordered results."""
        items = list(queries)
        start = time.perf_counter()
        results = self.map(items)
        wall = time.perf_counter() - start
        return BatchReport(
            results=results,
            queries=len(items),
            workers=self.max_workers,
            wall_s=wall,
            throughput_qps=batch_throughput(len(items), wall),
        )

    # -- internals ------------------------------------------------------

    def _run_one(self, query, trace_id: str | None = None) -> QueryResult:
        """Worker body: execute one query with in-flight accounting."""
        gauge = _obs.gauge("executor.concurrency")
        gauge.add(1.0)
        try:
            if trace_id is not None:
                with trace(trace_id):
                    result = self._engine.execute(query)
            else:
                result = self._engine.execute(query)
            _obs.counter("executor.queries").inc()
            return result
        finally:
            gauge.add(-1.0)
