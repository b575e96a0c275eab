"""Multiprocess query serving over shared mmap'd model memory.

The thread-based :class:`~repro.query.executor.QueryExecutor` buys
safety, not speed: its Python-side dispatch serializes on the GIL, so
four workers answer CPU-bound aggregates at roughly sequential
throughput.  :class:`ProcessQueryExecutor` breaks that ceiling with a
worker *process* pool:

- **Each worker opens the model directory itself** at bootstrap and
  maps ``u.mat`` via ``mmap`` into a zero-copy NumPy view
  (``CompressedMatrix.open(mapped=True)``).  No per-process BufferPool
  duplicates pages: every worker's reads resolve against the same
  kernel page-cache pages, so N workers cost one copy of the model in
  physical memory.  The delta sidecar rides the same trick: a mapped
  open serves the sorted key/value arrays as zero-copy views over a
  shared ``deltas.bin`` mapping (``DeltaFile.map_arrays``), so the
  delta table is also one physical copy across the pool.  Only the
  pinned factors (``lambda.npy``, ``v.npy``) load per worker.
- **Queries are pickled in, results are pickled out.**  The picklable
  boundary is exactly the engine's query/result dataclasses:
  :class:`~repro.query.engine.CellQuery` /
  :class:`~repro.query.engine.AggregateQuery` travel to the worker,
  :class:`~repro.query.engine.QueryResult` (with its serialized
  :class:`~repro.obs.profile.QueryProfile` when telemetry is on)
  travels back.  Query errors are caught per query in the worker and
  re-raised at the caller's slot, so one bad query never poisons a
  chunk.
- **``refresh()`` is a generation bump.**  The parent validates that
  the directory still opens, then increments its generation counter;
  every task carries the generation it was submitted under, and a
  worker seeing a newer generation than its mapping re-opens the
  directory (re-mapping the post-append ``u.mat``) before answering.
  Workers never block on a barrier: each remaps lazily on its next
  task.
- **Crashed workers do not kill serving.**  A dead worker process
  breaks the underlying pool (in-flight futures fail with
  :class:`~concurrent.futures.process.BrokenProcessPool`); the next
  submit transparently rebuilds the pool — counted in
  ``executor.proc.restarts`` — and serving continues.
- **Per-worker metrics merge into** :mod:`repro.obs`: every result
  piggybacks the worker's cumulative engine counters, and
  :meth:`ProcessQueryExecutor.worker_metrics` folds the latest
  snapshot per live worker — plus the accumulated totals of workers
  retired by pool rebuilds, so the merged numbers stay monotonic
  across crashes — into the process registry
  (``executor.proc.fast_path_hits`` / ``executor.proc.streamed``
  gauges beside the parent-side ``executor.proc.queries`` counter).
- **Traces survive the pickle boundary.**  While telemetry is on,
  every query ships with a trace id; the worker runs it inside a
  ``query.worker`` span under that trace and serializes the finished
  span tree back on ``profile.extra["worker_span"]``, which ``map()``
  grafts into the caller's live span — one coherent tree per query
  across the process hop.

Answers are bit-identical to sequential execution: the workers run the
same engine code over the same bytes, and the concurrency bench asserts
equality with ``==``, not approx.

Example::

    with ProcessQueryExecutor("warehouse/sales/model", max_workers=4) as pool:
        report = pool.run_batch(["sum() rows 0:50 cols 0:30", (3, 7)])
    print(report.throughput_qps)
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path

from repro.exceptions import QueryError
from repro.obs.registry import registry as _obs
from repro.obs.tracing import current_trace_id, graft, new_trace_id, span, trace
from repro.query.engine import QueryEngine, QueryResult
from repro.query.executor import (
    _DEFAULT_MAX_WORKERS,
    BatchReport,
    batch_throughput,
    coerce_query,
    usable_cpu_count,
)

__all__ = ["ProcessQueryExecutor"]

#: Upper bound on chunk size when run_batch picks one automatically.
_MAX_AUTO_CHUNK = 64


def _default_process_workers() -> int:
    # Unlike threads, extra processes beyond the usable cores only add
    # fork/IPC cost for CPU-bound factor math — size to the cores.
    return max(1, min(_DEFAULT_MAX_WORKERS, usable_cpu_count()))


def _default_mp_context() -> str:
    # fork starts workers in milliseconds and inherits the imported
    # interpreter; spawn is the portable fallback.
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class _CrashProbe:
    """Test-only chaos payload: the receiving worker exits immediately.

    Exists so the lifecycle tests can kill a real worker process
    through the real dispatch path and assert the executor's
    restart-on-broken-pool behavior; never constructed by production
    code.
    """

    exit_code: int = 17


def _coerce(query):
    """Normalize query forms, letting the chaos probe through to the
    worker's dispatch loop."""
    if isinstance(query, _CrashProbe):
        return query
    return coerce_query(query)


# -- worker process side --------------------------------------------------

#: Per-process worker state: backend, engine, generation, counters.
#: Module-level because ProcessPoolExecutor initializers cannot return
#: state; one dict per worker process, never shared.
_STATE: dict = {}


def _worker_init(directory: str, on_corrupt: str, telemetry: bool) -> None:
    """Worker bootstrap: open the model and map ``u.mat`` read-only."""
    from repro.core.store import CompressedMatrix

    if telemetry:
        _obs.enable()
    backend = CompressedMatrix.open(directory, on_corrupt=on_corrupt, mapped=True)
    _STATE.clear()
    _STATE.update(
        directory=directory,
        on_corrupt=on_corrupt,
        backend=backend,
        engine=QueryEngine(backend),
        generation=0,
        queries=0,
    )


def _worker_remap(generation: int) -> None:
    """Re-open the model directory and swap the engine onto it.

    Called when a task carries a newer generation than the worker's
    mapping: the parent's ``refresh()`` means the directory was
    atomically replaced (incremental append), and the old mmap keeps
    serving the *old* inode forever.  Workers are single-threaded, so
    the old backend can be closed as soon as the engine is off it.
    """
    from repro.core.store import CompressedMatrix

    backend = CompressedMatrix.open(
        _STATE["directory"], on_corrupt=_STATE["on_corrupt"], mapped=True
    )
    old = _STATE["backend"]
    _STATE["engine"].refresh(backend)
    _STATE["backend"] = backend
    _STATE["generation"] = generation
    old.close()


def _execute_traced(engine: QueryEngine, query, trace_id: str) -> QueryResult:
    """Run one query under the submitted trace id, capturing the
    worker-side span tree.

    The enclosing ``query.worker`` span adopts ``trace_id`` through the
    :func:`~repro.obs.tracing.trace` context, so the engine's own spans
    nest underneath it with the caller's id.  The finished tree is
    serialized into ``profile.extra["worker_span"]`` — the payload the
    parent grafts back into its live span so ``--profile`` shows one
    coherent caller+worker tree.
    """
    with trace(trace_id):
        with span("query.worker", pid=os.getpid()) as wspan:
            result = engine.execute(query)
    tree = wspan.to_dict() if hasattr(wspan, "to_dict") else None
    if tree is None or result.profile is None:
        return result
    profile = replace(
        result.profile, extra={**result.profile.extra, "worker_span": tree}
    )
    return replace(result, profile=profile)


def _worker_run(tasks: list, generation: int) -> tuple[list, dict]:
    """Execute one chunk of ``(query, trace_id)`` tasks against this
    worker's mapping.

    Returns ``(outcomes, stats)``: ``outcomes[i]`` is ``("ok", result)``
    or ``("err", exception)`` for ``tasks[i]`` — errors stay
    per-query — and ``stats`` is the worker's cumulative counter
    snapshot, piggybacked so the parent can merge per-worker metrics
    without extra round trips.  A non-None ``trace_id`` (telemetry was
    on in the parent) runs the query inside that trace, and the
    finished span tree travels back on the result's profile.
    """
    if generation > _STATE["generation"]:
        _worker_remap(generation)
    engine: QueryEngine = _STATE["engine"]
    outcomes = []
    for query, trace_id in tasks:
        if isinstance(query, _CrashProbe):
            os._exit(query.exit_code)
        try:
            if trace_id is not None and _obs.enabled:
                outcomes.append(("ok", _execute_traced(engine, query, trace_id)))
            else:
                outcomes.append(("ok", engine.execute(query)))
        except Exception as exc:  # pickled back, re-raised at the slot
            outcomes.append(("err", exc))
    _STATE["queries"] += len(tasks)
    stats = {
        "pid": os.getpid(),
        "generation": _STATE["generation"],
        "queries": _STATE["queries"],
        **engine.stats,
    }
    return outcomes, stats


# -- parent process side --------------------------------------------------


class ProcessQueryExecutor:
    """A worker-process pool serving queries from one model directory.

    Accepts the same query forms as the thread executor
    (:class:`CellQuery` / :class:`AggregateQuery` objects, ``(row,
    col)`` tuples, query text) but takes a model *directory*, not an
    open backend: each worker process opens and mmaps the model itself,
    which is what makes the pool scale past the GIL while sharing one
    copy of ``u.mat`` in page cache.

    Args:
        directory: a ``CompressedMatrix`` model directory.
        max_workers: pool size; defaults to ``min(8, usable cores)``
            (affinity-aware, see
            :func:`~repro.query.executor.usable_cpu_count`).
        on_corrupt: forwarded to each worker's
            :meth:`~repro.core.store.CompressedMatrix.open`.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        max_workers: int | None = None,
        on_corrupt: str = "raise",
    ) -> None:
        workers = (
            _default_process_workers() if max_workers is None else int(max_workers)
        )
        if workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._directory = Path(directory)
        self._on_corrupt = on_corrupt
        # Capture the telemetry switch now: workers enable their own
        # registry at bootstrap, so profiles come back on results.
        self._telemetry = _obs.enabled
        # Fail fast in the parent: a bad directory should raise here,
        # not as N opaque BrokenProcessPool bootstrap failures.
        self._validate_directory()
        self.max_workers = workers
        self._lock = threading.Lock()
        self._shutdown = False
        self._generation = 0
        self._worker_stats: dict[int, dict] = {}
        # Cumulative totals of workers retired by pool rebuilds.  A
        # crash (or any BrokenProcessPool) replaces every worker
        # process and resets their cumulative counters to zero; without
        # folding the dead workers' last snapshots in here, the merged
        # executor.proc.* totals would move backwards after a restart.
        self._retired_totals = {
            "queries": 0,
            "fast_path_hits": 0,
            "streamed": 0,
        }
        self._pool = self._new_pool()
        _obs.gauge("executor.proc.workers").set(workers)

    def _validate_directory(self) -> None:
        from repro.core.store import CompressedMatrix

        CompressedMatrix.open(
            self._directory, on_corrupt=self._on_corrupt, mapped=True
        ).close()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=multiprocessing.get_context(_default_mp_context()),
            initializer=_worker_init,
            initargs=(
                str(self._directory),
                self._on_corrupt,
                self._telemetry,
            ),
        )

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "ProcessQueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def directory(self) -> Path:
        """The model directory every worker serves from."""
        return self._directory

    @property
    def generation(self) -> int:
        """Snapshot generation new tasks are answered against."""
        return self._generation

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and terminate the worker pool
        (idempotent).

        Workers own their backends — each process's mapping dies with
        it — so there is nothing to close in the parent; with
        ``wait=True`` queued tasks drain first.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            pool = self._pool
        pool.shutdown(wait=wait)

    def refresh(self) -> None:
        """Start answering from the directory's current contents.

        After an incremental append atomically swapped the model
        directory, live workers still serve the pre-append snapshot
        through their old mappings.  ``refresh()`` validates that the
        directory (re)opens, then bumps the generation; each worker
        re-maps lazily when its next task carries the newer generation.
        Tasks already queued keep the generation they were submitted
        under, so answers are always wholly-old or wholly-new.
        """
        self._validate_directory()
        with self._lock:
            if self._shutdown:
                raise RuntimeError("ProcessQueryExecutor is shut down")
            self._generation += 1
        _obs.counter("executor.proc.refreshes").inc()

    # -- query dispatch -------------------------------------------------

    @staticmethod
    def _trace_id_for_submit() -> str | None:
        """The trace id a query ships with (None when telemetry is off).

        Inherits the caller's ambient :func:`~repro.obs.tracing.trace`
        context when one is active so e.g. a ``repro batch --profile``
        run joins every query to one trace family; otherwise each query
        gets a fresh id.
        """
        if not _obs.enabled:
            return None
        return current_trace_id() or new_trace_id()

    def submit(self, query) -> "Future[QueryResult]":
        """Schedule one query; returns a future of its
        :class:`~repro.query.engine.QueryResult`.

        While telemetry is enabled the query travels with a trace id;
        the worker's finished span tree comes back on
        ``result.profile.extra["worker_span"]`` (the future resolves on
        a callback thread, so the caller grafts it if desired —
        :meth:`map` does so automatically).
        """
        inner = self._submit_chunk([(_coerce(query), self._trace_id_for_submit())])
        outer: Future = Future()

        def _unwrap(done: Future) -> None:
            exc = done.exception()
            if exc is not None:
                outer.set_exception(exc)
                return
            outcomes, stats = done.result()
            self._record_stats(stats, len(outcomes))
            kind, payload = outcomes[0]
            if kind == "ok":
                outer.set_result(payload)
            else:
                outer.set_exception(payload)

        inner.add_done_callback(_unwrap)
        return outer

    def map(self, queries, chunksize: int = 1) -> list:
        """Run ``queries`` across the pool; results in submission order.

        ``chunksize`` batches several queries into one worker round
        trip — the knob that amortizes pickling/IPC for small queries.
        A failing query raises when its slot is reached, after all
        chunks have been scheduled.  While telemetry is enabled, each
        result's worker span tree is grafted into the caller's active
        span as results are collected, so a profiled batch renders one
        tree across the process hops.
        """
        tasks = [(_coerce(query), self._trace_id_for_submit()) for query in queries]
        if chunksize < 1:
            raise QueryError(f"chunksize must be >= 1, got {chunksize}")
        chunks = [
            tasks[start : start + chunksize]
            for start in range(0, len(tasks), chunksize)
        ]
        futures = [self._submit_chunk(chunk) for chunk in chunks]
        results = []
        for future in futures:
            outcomes, stats = future.result()
            self._record_stats(stats, len(outcomes))
            for kind, payload in outcomes:
                if kind == "err":
                    raise payload
                if payload.profile is not None:
                    graft(payload.profile.extra.get("worker_span"))
                results.append(payload)
        return results

    def run_batch(self, queries, chunksize: int | None = None) -> BatchReport:
        """Run ``queries`` and report batch throughput alongside the
        ordered results.

        ``chunksize`` defaults to roughly four chunks per worker —
        large enough to amortize IPC, small enough to keep the pool
        load-balanced.
        """
        items = list(queries)
        if chunksize is None:
            chunksize = max(
                1, min(_MAX_AUTO_CHUNK, len(items) // (self.max_workers * 4) or 1)
            )
        start = time.perf_counter()
        results = self.map(items, chunksize=chunksize)
        wall = time.perf_counter() - start
        return BatchReport(
            results=results,
            queries=len(items),
            workers=self.max_workers,
            wall_s=wall,
            throughput_qps=batch_throughput(len(items), wall),
        )

    # -- internals ------------------------------------------------------

    def _submit_chunk(self, chunk: list) -> Future:
        """Enqueue one chunk, transparently rebuilding a broken pool.

        A worker that died (OOM-killed, crashed, ``_CrashProbe``)
        breaks the whole ``ProcessPoolExecutor``: its in-flight futures
        fail with ``BrokenProcessPool`` and every later submit raises.
        Serving must survive a lost worker, so the first submit against
        a broken pool swaps in a fresh one (workers re-bootstrap their
        mappings) and retries once.
        """
        with self._lock:
            if self._shutdown:
                raise RuntimeError("ProcessQueryExecutor is shut down")
            generation = self._generation
            try:
                return self._pool.submit(_worker_run, chunk, generation)
            except BrokenProcessPool:
                self._rebuild_pool_locked()
                return self._pool.submit(_worker_run, chunk, generation)

    def _rebuild_pool_locked(self) -> None:
        """Replace a broken pool; caller holds ``self._lock``.

        The outgoing workers' last piggybacked snapshots are folded
        into ``_retired_totals`` before being dropped: the replacement
        processes restart their cumulative counters at zero, and
        without the fold the merged ``executor.proc.*`` totals would
        regress after every crash/restart instead of staying monotonic.
        """
        self._pool.shutdown(wait=False)
        self._retire_worker_stats_locked()
        self._pool = self._new_pool()
        _obs.counter("executor.proc.restarts").inc()

    def _retire_worker_stats_locked(self) -> None:
        """Accumulate the current workers' totals; caller holds the lock."""
        for snapshot in self._worker_stats.values():
            for key in self._retired_totals:
                self._retired_totals[key] += snapshot.get(key, 0)
        self._worker_stats.clear()

    def _record_stats(self, stats: dict, queries: int) -> None:
        """Fold one worker snapshot into the parent-side accounting."""
        self._worker_stats[stats["pid"]] = stats
        _obs.counter("executor.proc.queries").inc(queries)

    def worker_metrics(self) -> dict:
        """Merge per-worker counters into :mod:`repro.obs`.

        Sums the most recent cumulative snapshot piggybacked by each
        live worker **plus** the accumulated totals of workers retired
        by pool rebuilds, publishes the totals as ``executor.proc.*``
        gauges, and returns the merged dict.  The totals are monotonic
        across crash/restart cycles; ``workers_reporting`` counts only
        the current pool's workers.
        """
        with self._lock:
            snapshots = list(self._worker_stats.values())
            retired = dict(self._retired_totals)
        merged = {
            "workers_reporting": len(snapshots),
            "queries": retired["queries"]
            + sum(s.get("queries", 0) for s in snapshots),
            "fast_path_hits": retired["fast_path_hits"]
            + sum(s.get("fast_path_hits", 0) for s in snapshots),
            "streamed": retired["streamed"]
            + sum(s.get("streamed", 0) for s in snapshots),
        }
        _obs.gauge("executor.proc.fast_path_hits").set(merged["fast_path_hits"])
        _obs.gauge("executor.proc.streamed").set(merged["streamed"])
        return merged
