"""The traced run: per-layer metrics from spans around public calls.

Spans are recorded here, in the benchmark, around calls into each
layer's public functions — nothing under ``src/`` is edited.  A traced
run replays a fixed sample of the workload's own op stream with
``repro.obs.registry`` enabled, times each layer's call in a loop of its
own (so every layer sees its own steady cache state), reads counts at
the same boundaries from the public stats objects, keeps the spans in
memory and writes them as JSONL when the run ends.

Every traced run prints every per-layer metric; one whose layer the
workload's replay never enters reads 0.
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.store import CompressedMatrix
from repro.core.update import append_columns
from repro.obs.registry import registry
from repro.plan.planner import ROUTES
from repro.query.engine import CellQuery, QueryEngine
from repro.query.executor import QueryExecutor
from repro.query.fastpath import factor_aggregate
from repro.query.process_executor import ProcessQueryExecutor
from repro.serve.config import ServeConfig
from repro.serve.robust import RobustDispatcher
from repro.summaries.compute import summarize_directory

from . import clock, model, ops, spec, workloads
from .oracle import Oracle

_now = time.perf_counter_ns
_OPENS = 3
_LADDER_PASSES = 2
_APPEND_PASSES = 3
_STATS_EVERY = 50
_OVERHEAD_ROUNDS = 3


class Tracer:
    """In-memory spans ``[trace, span, parent, name, start_ns, end_ns]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()

    def record(self, trace, parent, name: str, start: int, end: int) -> list:
        span = [trace, next(self._ids), parent, name, start, end]
        self.spans.append(span)
        return span

    def call(self, trace, parent, name: str, fn, *args):
        """``fn(*args)`` under one span; returns its result."""
        start = _now()
        result = fn(*args)
        self.record(trace, parent, name, start, _now())
        return result

    def loop(self, name: str, fn, items) -> list:
        """``fn(*item)`` for each item, one span each (trace = item index)
        under a parent span covering the loop; returns the results."""
        parent = self.record(name, None, f"harness.loop.{name}", _now(), 0)
        results = [
            self.call(index, parent[1], name, fn, *item) for index, item in enumerate(items)
        ]
        parent[5] = _now()
        return results

    def durations(self, name: str) -> np.ndarray:
        """Nanoseconds of every span called ``name``, in recording order."""
        return np.array([s[5] - s[4] for s in self.spans if s[3] == name], dtype=np.float64)

    def percentile(self, name: str, q: float, scale: float) -> float:
        durations = self.durations(name)
        return float(np.percentile(durations, q)) / scale if durations.size else 0.0

    def p50(self, name: str, scale: float) -> float:
        return self.percentile(name, 50, scale)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("trace", "span", "parent", "name", "start_ns", "end_ns")
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _timer_overhead_ns() -> float:
    """Cost of one timed, empty loop iteration."""
    count = 200_000
    start = _now()
    for _ in range(count):
        _now()
    return (_now() - start) / count


def _stats(store) -> dict:
    pool, io = store.u_pool_stats, store.u_io_stats
    return {
        "hits": pool.hits, "misses": pool.misses, "bypasses": pool.bypasses,
        "evictions": pool.evictions, "reads": io.reads, "bytes_read": io.bytes_read,
        "keys_probed": store.delta_index.stats["keys_probed"],
    }


def _delta(after: dict, before: dict) -> dict:
    delta = {key: after[key] - before[key] for key in after}
    delta["accesses"] = delta["hits"] + delta["misses"] + delta["bypasses"]
    return delta


def _pool_metrics(delta: dict, count: int) -> dict:
    accesses = max(delta["accesses"], 1)
    return {
        "storage.buffer_pool.hit_rate": delta["hits"] / accesses,
        "storage.buffer_pool.bypass_share": delta["bypasses"] / accesses,
        "storage.buffer_pool.evictions_per_kop": 1000.0 * delta["evictions"] / count,
        "storage.pager.reads_per_op": delta["reads"] / count,
        "storage.pager.bytes_per_op": delta["bytes_read"] / count,
    }


def _trace_overhead(plain_pass, traced_pass) -> float:
    """``1 - traced / untraced`` throughput of the same pass.

    ``plain_pass()`` runs with the registry off and no spans,
    ``traced_pass()`` with the registry on under a throw-away tracer.
    They alternate, so both meet the same machine, and the medians of
    ``_OVERHEAD_ROUNDS`` are compared; the first plain pass is a warm-up.
    """
    def seconds(one_pass) -> float:
        start = time.perf_counter()
        one_pass()
        return time.perf_counter() - start

    plain_pass()
    rounds = [(seconds(plain_pass), seconds(traced_pass)) for _ in range(_OVERHEAD_ROUNDS)]
    plain, traced = zip(*rounds)
    return 1.0 - statistics.median(plain) / statistics.median(traced)


def _call_overhead(fn, items) -> float:
    """:func:`_trace_overhead` of calling ``fn(*item)`` over ``items``."""

    def plain_pass() -> None:
        for item in items:
            fn(*item)

    def traced_pass() -> None:
        registry.enable()
        try:
            Tracer().loop("overhead", fn, items)
        finally:
            registry.disable()

    return _trace_overhead(plain_pass, traced_pass)


# -- set-up shared by every traced run -------------------------------------


def _set_up(run: workloads.Run, tracer: Tracer, metrics: dict):
    """Build once and open, each under a span; returns the pooled store."""
    run.directory = run.scratch / "model"
    tracer.call("setup", None, "core.build.build_compressed", model.build, run.raw, run.directory)
    for _ in range(_OPENS):
        for name, options in (("open", {}), ("open_mapped", {"mapped": True})):
            tracer.call(
                "setup", None, f"core.store.{name}",
                lambda: CompressedMatrix.open(run.directory, **options).close(),
            )
    store = CompressedMatrix.open(run.directory, pool_capacity=spec.POOL_CAPACITY)
    run.oracle = Oracle(run.raw, store.reconstruct_all())
    build_s = tracer.p50("core.build.build_compressed", 1e9)
    metrics.update({
        "core.build.build_s": build_s,
        "core.build.rows_per_s": run.scale.rows / build_s,
        "core.store.open_ms": tracer.p50("core.store.open", 1e6),
        "core.store.open_mapped_ms": tracer.p50("core.store.open_mapped", 1e6),
        "core.store.space_fraction": store.space_bytes() / run.raw.nbytes,
        "harness.timer_overhead_ns": _timer_overhead_ns(),
    })
    return store


def _finish(run: workloads.Run, tracer: Tracer, metrics: dict, span_path) -> dict:
    if span_path is not None:
        tracer.write(span_path)
    metrics["harness.speed_factor"] = (
        statistics.median(clock.probe() for _ in range(50)) / clock.REFERENCE_S
    )
    return {name: float(metrics.get(name, 0.0)) for name in spec.PER_LAYER_NAMES}


# -- cell probes -----------------------------------------------------------


def point_zipf(run: workloads.Run, span_path) -> dict:
    tracer, metrics = Tracer(), {}
    store = _set_up(run, tracer, metrics)
    work = spec.workload("point_zipf")
    count = run.scale.ops(work.trace_ops)
    rows, cols = ops.cell_ops(run.raw, run.seed, run.scale.ops(work.pass_ops))
    rows, cols = rows[:count], cols[:count]
    pairs = list(zip(rows.tolist(), cols.tolist()))
    probes = [(pair,) for pair in pairs]
    engine = QueryEngine(store)

    overhead = _call_overhead(engine.cell, probes)  # also warms the pool
    # Layer times under harness spans only: a profiled cell probe costs
    # three plain ones, which would hide the store's share.
    before = _stats(store)
    results = tracer.loop("query.engine.cell", engine.cell, probes)
    metrics.update(_pool_metrics(_delta(_stats(store), before), count))
    want_model, _want_raw = run.oracle.cells(rows, cols)
    run.attempted += count
    run.failed += int(run.oracle.wrong([r.value for r in results], want_model).sum())
    num_cols = store.shape[1]
    tracer.loop("core.store.cell", store.cell, pairs)
    tracer.loop(
        "core.delta_index.get", store.delta_index.get, [(r * num_cols + c,) for r, c in pairs]
    )
    store.close()

    # The cache-fits case: same sample, pool as large as the matrix.
    fits = CompressedMatrix.open(run.directory, pool_capacity=run.scale.rows)
    for pair in pairs:
        fits.cell(*pair)
    before = _stats(fits)
    for pair in pairs:
        fits.cell(*pair)
    delta = _delta(_stats(fits), before)
    fits.close()

    metrics.update({
        "query.engine.cell_us_p50": tracer.p50("query.engine.cell", 1e3),
        "query.engine.cell_us_p95": tracer.percentile("query.engine.cell", 95, 1e3),
        "core.store.cell_us_p50": tracer.p50("core.store.cell", 1e3),
        "core.delta_index.get_us_p50": tracer.p50("core.delta_index.get", 1e3),
        "storage.buffer_pool.hit_rate_fit": delta["hits"] / max(delta["accesses"], 1),
        "obs.trace_overhead_share": overhead,
    })
    return _finish(run, tracer, metrics, span_path)


# -- aggregates ------------------------------------------------------------


def _factor_cost(rows: int, cols: int, rank: int, function: str, page_size: int):
    """``(flops, bytes)`` of one factor-space aggregate, from its sizes.

    Operation counts per "Tutorial: Complexity analysis of Singular
    Value Decomposition and its variants": scaling U by Lambda ``n k``,
    the column sum of the selected V rows ``m k``, one GEMV ``2 n k``,
    the final reduction ``n``; stddev adds the ``k x k`` Gram ``2 m k^2``
    and the quadratic form ``2 n k^2 + 2 n k``.  Bytes are the U pages
    gathered plus the V rows read.
    """
    if function == "count":
        return 0.0, 0.0
    flops = rows * rank + cols * rank + 2 * rows * rank + rows
    if function == "stddev":
        flops += 2 * cols * rank**2 + 2 * rows * rank**2 + 2 * rows * rank
    return float(flops), float(rows * page_size + cols * rank * 8)


def _trace_aggregates(run, tracer: Tracer, store, agg, metrics: dict) -> None:
    """Replay ``agg`` against ``store`` one layer per loop (registry on).

    Call once per tracer: the span names double as lookup keys.
    """
    engine = QueryEngine(store)
    queries = [(op.query(),) for op in agg]
    resolved = [op.indices() for op in agg]
    count = len(queries)
    shape = store.shape

    before = _stats(store)
    results = tracer.loop("query.engine.execute", engine.execute, queries)
    metrics.update(_pool_metrics(_delta(_stats(store), before), count))
    want_model, _want_raw = run.oracle.aggregates(agg)
    bounds = [r.error_bound or 0.0 for r in results]
    run.attempted += count
    run.failed += int(run.oracle.wrong([r.value for r in results], want_model, bounds).sum())

    tracer.loop("query.selection.resolve", lambda q: q.selection.resolve(shape), queries)
    plans = tracer.loop("plan.planner.plan", engine.plan, queries)

    before = _stats(store)
    tracer.loop(
        "storage.matrix_store.read_rows", store.u_store.read_rows, [(r,) for r, _c in resolved]
    )
    metrics["storage.matrix_store.pages_per_op"] = (
        _delta(_stats(store), before)["accesses"] / count
    )

    before = _stats(store)
    selected = tracer.loop("core.delta_index.select", store.delta_index.select, resolved)
    probed = _delta(_stats(store), before)["keys_probed"]
    metrics["core.delta_index.keys_probed_per_op"] = probed / count
    metrics["core.delta_index.useful_share"] = (
        sum(int(values.size) for *_positions, values in selected) / max(probed, 1)
    )

    # The call that does each op's work below the planner, by route.
    routes = [result.route for result in results]
    factor = np.flatnonzero(np.array(routes) == "factor")
    stream = np.flatnonzero(np.array(routes) == "stream")
    tracer.loop(
        "query.fastpath.factor_aggregate", factor_aggregate,
        [(store, *resolved[i], agg[i].function) for i in factor],
    )
    tracer.loop(
        "core.store.reconstruct_range", store.reconstruct_range, [resolved[i] for i in stream]
    )
    summary_hits = tracer.loop("summaries.store.try_summary", engine.try_summary, queries)

    executed = tracer.durations("query.engine.execute")
    inner = tracer.durations("plan.planner.plan")
    inner[factor] += tracer.durations("query.fastpath.factor_aggregate")
    inner[stream] += tracer.durations("core.store.reconstruct_range")

    for route in ROUTES:
        key = "plan.planner.route_share." + route.replace("+", "_")
        metrics[key] = routes.count(route) / count
    profiles = [r.profile for r in results]
    paged = [p for p in profiles if p.pages_read and p.predicted_pages is not None]
    factor_profiles = [profiles[i] for i in factor]
    factor_ns = sum(p.total_ns for p in factor_profiles)
    costs = [
        _factor_cost(
            resolved[i][0].size, resolved[i][1].size, store.cutoff,
            agg[i].function, store.u_store.page_size,
        )
        for i in factor
    ]
    metrics.update({
        "query.engine.execute_ms_p50": tracer.p50("query.engine.execute", 1e6),
        "query.engine.execute_ms_p95": tracer.percentile("query.engine.execute", 95, 1e6),
        "query.engine.unattributed_share": float(np.median(1.0 - inner / executed)),
        "query.selection.resolve_us_p50": tracer.p50("query.selection.resolve", 1e3),
        "plan.planner.plan_us_p50": tracer.p50("plan.planner.plan", 1e3),
        "plan.planner.pages_ratio_p50": (
            statistics.median(p.predicted_pages / p.pages_read for p in paged) if paged else 0.0
        ),
        "plan.planner.cost_ratio_p50": statistics.median(
            plan.route.cost_ms / (ns / 1e6) for plan, ns in zip(plans, executed)
        ),
        "storage.matrix_store.read_rows_ms_p50": tracer.p50("storage.matrix_store.read_rows", 1e6),
        "core.delta_index.select_ms_p50": tracer.p50("core.delta_index.select", 1e6),
        "query.fastpath.factor_ms_p50": tracer.p50("query.fastpath.factor_aggregate", 1e6),
        "core.store.reconstruct_range_ms_p50": tracer.p50("core.store.reconstruct_range", 1e6),
        "summaries.store.try_summary_us_p50": tracer.p50("summaries.store.try_summary", 1e3),
        "summaries.store.hit_share": sum(hit is not None for hit in summary_hits) / count,
    })
    if factor.size:
        for phase in ("gather", "gemm", "delta"):
            metrics[f"query.fastpath.{phase}_share"] = (
                sum(getattr(p, f"{phase}_ns") for p in factor_profiles) / factor_ns
            )
        metrics["query.fastpath.flops_per_op"] = statistics.fmean(c[0] for c in costs)
        metrics["query.fastpath.bytes_per_op"] = statistics.fmean(c[1] for c in costs)


def _traced_aggregates(run, tracer: Tracer, store, agg, metrics: dict) -> None:
    """The trace overhead of ``engine.execute``, then the layer replay."""
    metrics["obs.trace_overhead_share"] = _call_overhead(
        QueryEngine(store).execute, [(op.query(),) for op in agg]
    )
    registry.enable()
    try:
        _trace_aggregates(run, tracer, store, agg, metrics)
    finally:
        registry.disable()


def adhoc_agg(run: workloads.Run, span_path) -> dict:
    tracer, metrics = Tracer(), {}
    store = _set_up(run, tracer, metrics)
    work = spec.workload("adhoc_agg")
    agg = ops.agg_ops(run.seed, run.raw.shape, run.scale.ops(work.pass_ops))
    _traced_aggregates(run, tracer, store, agg[: run.scale.ops(work.trace_ops)], metrics)
    store.close()
    return _finish(run, tracer, metrics, span_path)


# -- http_mix --------------------------------------------------------------


def _ladder(run, tracer: Tracer, requests, metrics: dict) -> None:
    """Answer the same requests through five rungs, innermost first.

    A rung's self time is its p50 minus the next inner rung's, so the
    five self times sum to the HTTP p50 of the sample.  Each rung's
    machinery lives only while its rung runs.
    """
    queries = [
        (CellQuery(*request.op) if request.kind == "cell" else request.op.query(),)
        for request in requests
    ]
    p50_us = []

    def rung(name: str, fn, items) -> None:
        for item in items:  # warm-up
            fn(*item)
        for _ in range(_LADDER_PASSES):
            tracer.loop(name, fn, items)
        p50_us.append(tracer.p50(name, 1e3))

    mapped = CompressedMatrix.open(run.directory, mapped=True)
    try:
        rung("ladder.query.engine.execute", QueryEngine(mapped).execute, queries)
        with QueryExecutor(mapped, max_workers=1) as threads:
            rung("ladder.query.executor.submit", lambda q: threads.submit(q).result(), queries)
    finally:
        mapped.close()
    start = time.perf_counter()
    with ProcessQueryExecutor(run.directory, max_workers=spec.SERVE_WORKERS) as processes:
        processes.submit(queries[0][0]).result()
        metrics["query.process_executor.start_s"] = time.perf_counter() - start
        rung(
            "ladder.query.process_executor.submit",
            lambda q: processes.submit(q).result(), queries,
        )
    dispatcher = RobustDispatcher(run.directory, ServeConfig(workers=spec.SERVE_WORKERS))
    try:
        dispatcher.warm()
        rung("ladder.serve.robust.dispatch", dispatcher.dispatch, queries)
    finally:
        dispatcher.close()
    rung("ladder.serve.server.get", run.child.get, [(r.path,) for r in requests])

    metrics.update({
        "query.engine.execute_ms_p50": p50_us[0] / 1e3,
        "query.engine.execute_ms_p95": tracer.percentile("ladder.query.engine.execute", 95, 1e6),
        "query.executor.overhead_us_p50": p50_us[1] - p50_us[0],
        "query.process_executor.ipc_us_p50": p50_us[2] - p50_us[1],
        "serve.robust.dispatch_overhead_us_p50": p50_us[3] - p50_us[2],
        "serve.server.http_overhead_us_p50": p50_us[4] - p50_us[3],
        "serve.server.http_ms_p50": p50_us[4] / 1e3,
    })


def http_mix(run: workloads.Run, span_path) -> dict:
    tracer, metrics = Tracer(), {}
    _set_up(run, tracer, metrics).close()
    child = run.child = model.ServeChild(run.directory)
    metrics["serve.server.ready_s"] = child.ready_s
    count = run.scale.ops(spec.workload("http_mix").pass_ops)
    per_client = ops.client_requests(run.raw, run.seed, count)
    depths = []

    def polling(slot: int, requests):
        """Plain fetches; client 0 also reads /stats now and then, while
        the other client's request may be in flight."""
        for i in range(0, len(requests), _STATS_EVERY):
            workloads.fetch_all(child, requests[i : i + _STATS_EVERY])
            if slot == 0:
                depths.append(json.loads(child.get("/stats")[1])["queue_depth"])

    def plain(_slot: int, requests):
        return workloads.fetch_all(child, requests)

    def traced(spans: Tracer):
        def fetch(slot: int, requests):
            latencies = np.empty(len(requests), dtype=np.int64)
            replies = []
            for i, request in enumerate(requests):
                start = _now()
                replies.append(child.get(request.path))
                end = _now()
                spans.record(f"client{slot}-{i}", None, f"serve.server.{request.kind}", start, end)
                latencies[i] = end - start
            return latencies, replies

        return fetch

    workloads.run_clients(per_client, polling)  # doubles as the warm-up
    results = workloads.run_clients(per_client, traced(tracer))
    for requests, (_latencies, replies) in zip(per_client, results):
        wrong, _errors = workloads.check_replies(run.oracle, requests, replies)
        run.attempted += len(requests)
        run.failed += int(wrong.sum())
    # The serve child's registry is always on (the CLI enables it), so
    # only the client-side spans differ between the two passes.
    overhead = _trace_overhead(
        lambda: workloads.run_clients(per_client, plain),
        lambda: workloads.run_clients(per_client, traced(Tracer())),
    )
    stats = json.loads(child.get("/stats")[1])
    latencies = np.concatenate([lat for lat, _replies in results])
    metrics.update({
        "obs.trace_overhead_share": overhead,
        "serve.server.latency_p95_ms": float(np.percentile(latencies, 95)) / 1e6,
        "serve.server.latency_p99_ms": float(np.percentile(latencies, 99)) / 1e6,
        "serve.admission.shed_share": stats["shed_total"]
        / max(stats["admitted_total"] + stats["shed_total"], 1),
        "serve.admission.queue_depth_max": max(depths),
    })

    # The ladder and the layer replay take the sample's cells and
    # aggregates (a group-by is not an engine query); the replay uses a
    # mapped backend because that is what a serve worker opens.
    sample = [r for requests in per_client for r in requests if r.kind != "groupby"]
    sample = sample[: run.scale.ops(spec.workload("http_mix").trace_ops)]
    mapped = CompressedMatrix.open(run.directory, mapped=True)
    registry.enable()
    try:
        _trace_aggregates(
            run, tracer, mapped, [r.op for r in sample if r.kind != "cell"], metrics
        )
        mapped.close()
        _ladder(run, tracer, sample, metrics)
    finally:
        registry.disable()
    workloads.stop_child(run)
    return _finish(run, tracer, metrics, span_path)


# -- append_visible --------------------------------------------------------


def append_visible(run: workloads.Run, span_path) -> dict:
    tracer, metrics = Tracer(), {}
    store = _set_up(run, tracer, metrics)
    count = run.scale.ops(spec.workload("append_visible").trace_ops)
    raw = run.raw
    copy = run.scratch / "copy"
    for batch in range(_APPEND_PASSES):
        new = ops.next_days(raw, run.seed, batch)
        raw = np.concatenate([raw, new], axis=1)
        reads = ops.agg_ops(run.seed, raw.shape, count, index=batch, fresh_cols=spec.APPEND_DAYS)
        shutil.copytree(run.directory, copy)

        start = _now()
        result = tracer.call(
            batch, None, "core.update.append_columns", append_columns, run.directory, new
        )
        fresh = tracer.call(batch, None, "core.store.reopen", store.reopen)
        QueryEngine(fresh).execute(reads[0].query())
        tracer.record(batch, None, "core.update.visible", start, _now())
        store.close()
        store = fresh

        # The same append without the summary refresh, then the cold
        # rebuild that would replace it.
        tracer.call(
            batch, None, "core.update.append_norefresh",
            lambda: append_columns(copy, new, refresh_summaries=False),
        )
        tracer.call(
            batch, None, "summaries.compute.summarize_directory",
            lambda: summarize_directory(copy, rebuild=True),
        )
        shutil.rmtree(copy)

    run.oracle = Oracle(raw, store.reconstruct_all())
    _traced_aggregates(run, tracer, store, reads, metrics)
    store.close()
    append_ms = tracer.p50("core.update.append_columns", 1e6)
    norefresh_ms = tracer.p50("core.update.append_norefresh", 1e6)
    metrics.update({
        "core.update.append_ms_p50": append_ms,
        "core.update.visible_ms_p50": tracer.p50("core.update.visible", 1e6),
        "core.update.append_norefresh_ms": norefresh_ms,
        "summaries.compute.refresh_ms": append_ms - norefresh_ms,
        "summaries.compute.rebuild_ms": tracer.p50("summaries.compute.summarize_directory", 1e6),
        "core.update.drift_final": result.drift,
    })
    return _finish(run, tracer, metrics, span_path)


PHASES = {
    "point_zipf": point_zipf,
    "adhoc_agg": adhoc_agg,
    "http_mix": http_mix,
    "append_visible": append_visible,
}
