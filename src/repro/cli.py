"""Command-line interface: ``python -m repro <command>``.

Gives the library the operational surface a deployed system would have:

- ``build``   — compress an on-disk matrix (or a named dataset) into a
  CompressedMatrix directory;
- ``info``    — inspect a compressed model (shape, k, deltas, space,
  append/drift state);
- ``append``  — fold new days (``--cols``) or customers (``--rows``)
  into an existing model crash-atomically, without a rebuild
  (``--defer-summaries`` postpones the rollup refresh);
- ``summarize`` — materialize or refresh a model's summary store (the
  persisted time-hierarchy rollups behind ``path=summary`` answers and
  ``/groupby``); ``--all`` walks a warehouse catalog;
- ``cell``    — reconstruct one cell, reporting the disk accesses used;
- ``aggregate`` — run an aggregate query over row/column ranges;
- ``query``   — run a textual query ('avg() rows 0:100 cols 7:14');
- ``batch``   — run a file of queries through a concurrent executor
  (``--mode sequential|thread|process``; process mode serves from
  worker processes sharing the model through mmap);
- ``stats``   — run a random-cell workload with telemetry enabled and
  dump the metrics registry (pool/pager counters, span timings) as JSON;
- ``serve``   — serve a model over HTTP (``/query``, ``/cell``,
  ``/aggregate``, ``/groupby``, ``/explain``, ``/stats``, ``/healthz``
  live/ready, ``/metrics``, ``/snapshot``), each request answered in the
  thread that read it, with bounded admission, load shedding (503 +
  Retry-After), per-request deadlines, brownout degradation, and
  graceful SIGTERM drain;
- ``serve-metrics`` — expose the live registry over HTTP (``/metrics``
  OpenMetrics text for Prometheus, ``/healthz``, ``/snapshot`` JSON),
  optionally exercising a model and writing rotating JSONL snapshots;
- ``top``     — live terminal monitor polling ``/snapshot`` on a
  ``serve`` or ``serve-metrics`` endpoint: qps, pool hit rate, per-route
  latency quantiles, workers;
- ``fsck``    — verify a model directory against its integrity manifest
  (full SHA-256 by default, ``--quick`` for sizes only) and confirm the
  model actually opens;
- ``verify``  — audit a model against its source data;
- ``scatter`` — render the Appendix A scatter plot for a dataset;
- ``datasets`` — list the built-in synthetic datasets;
- ``wh-ingest`` / ``wh-list`` / ``wh-verify`` / ``wh-drop`` — manage a
  multi-dataset warehouse catalog.

The query commands take ``--explain`` (print the engine's plan as JSON
instead of executing) and ``--profile`` (execute with telemetry enabled
and print the per-query :class:`~repro.obs.profile.QueryProfile` as
JSON).

Examples::

    python -m repro build --dataset phone2000 --budget 0.10 --out model/
    python -m repro info model/
    python -m repro cell model/ 1234 200
    python -m repro aggregate model/ --function avg --rows 0:100 --cols 7:14
    python -m repro aggregate model/ --rows 0:100 --explain
    python -m repro aggregate model/ --rows 0:100 --profile
    python -m repro stats model/ --queries 500
    python -m repro scatter stocks
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from repro.core import CompressedMatrix, SVDDCompressor
from repro.data import load_dataset
from repro.exceptions import ReproError
from repro.obs import registry
from repro.query import AggregateQuery, CellQuery, QueryEngine, Selection
from repro.query.parser import parse_query
from repro.storage import MatrixStore
from repro.viz import ascii_scatter, outlier_rows, scatter_coordinates


def _parse_range(text: str, extent: int) -> range:
    """Parse 'a:b' / 'a' / ':' into a range within [0, extent)."""
    if text == ":":
        return range(extent)
    if ":" in text:
        start_text, stop_text = text.split(":", 1)
        start = int(start_text) if start_text else 0
        stop = int(stop_text) if stop_text else extent
        return range(start, stop)
    index = int(text)
    return range(index, index + 1)


def _load_matrix(args) -> np.ndarray | MatrixStore:
    if args.dataset:
        return load_dataset(args.dataset).matrix
    return MatrixStore.open(args.input)


def cmd_build(args) -> int:
    """Handle ``repro build``: compress a source into a model directory.

    Uses the constant-memory pipeline (U streamed to disk), so building
    from an on-disk store never allocates O(N) memory.
    """
    from repro.core import build_compressed

    source = _load_matrix(args)
    store = build_compressed(
        source, args.out, budget_fraction=args.budget, jobs=args.jobs
    )
    rows, cols = store.shape
    fraction = store.space_bytes() / (rows * cols * 8)
    print(
        f"built {args.out}: shape {store.shape}, k={store.cutoff}, "
        f"{store.num_deltas} deltas, {store.num_zero_rows} zero rows, "
        f"{fraction:.2%} of original space"
    )
    store.close()
    if isinstance(source, MatrixStore):
        source.close()
    return 0


def cmd_info(args) -> int:
    """Handle ``repro info``: print a model's catalog facts."""
    from repro.exceptions import FormatError
    from repro.core.update import load_update_state

    with CompressedMatrix.open(args.model) as store:
        rows, cols = store.shape
        print(f"model: {Path(args.model).resolve()}")
        print(f"  matrix: {rows} x {cols}")
        print(f"  principal components (k): {store.cutoff}")
        print(f"  outlier deltas: {store.num_deltas}")
        print(f"  flagged zero rows: {store.num_zero_rows}")
        print(f"  model bytes (Eq. 9 accounting): {store.space_bytes()}")
        print(f"  space fraction: {store.space_bytes() / (rows * cols * 8):.2%}")
    try:
        state = load_update_state(args.model)
    except FormatError:
        print("  incremental updates: unavailable (no update state)")
        return 0
    print(
        f"  appends: {state.get('appends', 0)} "
        f"(+{state.get('rows_appended', 0)} rows, "
        f"+{state.get('cols_appended', 0)} cols)"
    )
    print(
        f"  drift: {state.get('drift', 0.0):.4f} "
        f"(threshold {state.get('drift_threshold', 0.0):.2f}, "
        f"rebuild recommended: {state.get('rebuild_recommended', False)})"
    )
    _print_summary_state(args.model)
    return 0


def _print_summary_state(model_dir) -> None:
    """One ``repro info`` line on the summary store's staleness."""
    from repro.summaries import SummaryStore

    store = SummaryStore.load(model_dir)
    if store is None:
        print(
            "  summaries: absent or stale generation "
            "(run `repro summarize` to materialize)"
        )
        return
    if store.fresh:
        print(
            f"  summaries: fresh ({store.covered_rows} x "
            f"{store.covered_cols} covered)"
        )
        return
    print(
        f"  summaries: lagging — covers {store.covered_rows} x "
        f"{store.covered_cols} of {store.model_rows} x {store.model_cols} "
        "(deferred append; run `repro summarize` to catch up)"
    )


def cmd_append(args) -> int:
    """Handle ``repro append``: fold new days/customers into a model.

    Exactly one of ``--cols``/``--rows`` names a ``.npy`` array: new
    columns are ``(N, d)`` (one value per existing customer per new
    day), new rows are ``(n, M)`` (one full history per new customer).
    The append is crash-atomic; readers holding the model open keep
    their pre-append snapshot until they reopen.
    """
    from repro.core.update import append_columns, append_rows

    refresh = not getattr(args, "defer_summaries", False)
    if args.cols:
        payload = np.load(args.cols)
        result = append_columns(args.model, payload, refresh_summaries=refresh)
    else:
        payload = np.load(args.rows)
        result = append_rows(args.model, payload, refresh_summaries=refresh)
    print(
        f"appended {result.appended} {result.kind} to {args.model}: now "
        f"{result.rows} x {result.cols}, {result.num_deltas} deltas "
        f"({result.seconds:.2f}s)"
    )
    print(
        f"drift: {result.drift:.4f}  "
        f"rebuild recommended: {result.rebuild_recommended}"
    )
    if not refresh:
        print(
            "summaries: refresh deferred "
            "(run `repro summarize` to catch up)"
        )
    return 0


def cmd_summarize(args) -> int:
    """Handle ``repro summarize``: bring summary stores up to date.

    Default target is one model directory; ``--all`` treats the target
    as a warehouse root and walks every catalogued model.  The refresh
    is crash-atomic (staged swap) and incremental where the existing
    store covers part of the model; ``--rebuild`` forces a cold
    recompute.
    """
    from repro.summaries import summarize_directory

    if getattr(args, "all_models", False):
        from repro.warehouse import Warehouse

        warehouse = Warehouse(args.target)
        targets = [
            (name, Path(args.target) / name) for name in warehouse.names()
        ]
        if not targets:
            print("(empty warehouse)")
            return 0
    else:
        targets = [(None, Path(args.target))]
    for name, directory in targets:
        report = summarize_directory(
            directory, rebuild=args.rebuild, start_date=args.start_date
        )
        label = f"{name}: " if name else ""
        state = report["state"]
        print(
            f"{label}{report['status']} — covers "
            f"{state['covered_rows']} x {state['covered_cols']} "
            f"({report['seconds']:.2f}s)"
        )
    return 0


def cmd_cell(args) -> int:
    """Handle ``repro cell``: reconstruct one cell with access accounting."""
    if getattr(args, "profile", False):
        registry.enable()
    with CompressedMatrix.open(args.model) as store:
        store.u_pool_stats.reset()
        if getattr(args, "profile", False):
            result = QueryEngine(store).cell(CellQuery(args.row, args.col))
            print(f"cell ({args.row}, {args.col}) = {result.value:.6g}")
            print(result.profile.to_json())
            return 0
        value = store.cell(args.row, args.col)
        print(f"cell ({args.row}, {args.col}) = {value:.6g}")
        print(f"disk accesses: {store.u_pool_stats.misses}")
    return 0


def cmd_aggregate(args) -> int:
    """Handle ``repro aggregate``: run one aggregate over ranges."""
    if getattr(args, "profile", False):
        registry.enable()
    with CompressedMatrix.open(args.model) as store:
        rows, cols = store.shape
        selection = Selection(
            rows=_parse_range(args.rows, rows), cols=_parse_range(args.cols, cols)
        )
        query = AggregateQuery(
            args.function, selection, max_rmspe=getattr(args, "max_rmspe", None)
        )
        engine = QueryEngine(store)
        if getattr(args, "explain", False):
            print(json.dumps(engine.explain(query), indent=2))
            return 0
        result = engine.aggregate(query)
        print(
            f"{args.function}(rows={args.rows}, cols={args.cols}) = "
            f"{result.value:.6g}  ({result.cells_touched} cells)"
        )
        if result.profile is not None:
            print(result.profile.to_json())
    return 0


def cmd_query(args) -> int:
    """Handle ``repro query``: parse and run a textual query."""
    if getattr(args, "profile", False):
        registry.enable()
    with CompressedMatrix.open(args.model) as store:
        engine = QueryEngine(store)
        query = parse_query(args.text)
        budget = getattr(args, "max_rmspe", None)
        if budget is not None and isinstance(query, AggregateQuery):
            query = dataclasses.replace(query, max_rmspe=budget)
        if getattr(args, "explain", False):
            print(json.dumps(engine.explain(query), indent=2))
            return 0
        if isinstance(query, CellQuery):
            result = engine.cell(query)
        else:
            result = engine.aggregate(query)
        print(f"{args.text.strip()} = {result.value:.6g}")
        print(f"cells touched: {result.cells_touched}")
        if result.profile is not None:
            print(result.profile.to_json())
    return 0


def cmd_batch(args) -> int:
    """Handle ``repro batch``: run many queries through an executor.

    Queries come from ``--file`` (one textual query per line; blank
    lines and ``#`` comments skipped) and/or repeated ``--query`` flags.
    ``--mode`` picks the serving strategy: ``sequential`` (one engine,
    the baseline), ``thread`` (shared-backend thread pool), or
    ``process`` (worker processes sharing ``u.mat`` through mmap — the
    mode that scales past the GIL on multi-core hosts).
    """
    import time

    from repro.query import BatchReport
    from repro.query.executor import batch_throughput, coerce_query

    texts: list[str] = []
    if args.file:
        for line in Path(args.file).read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                texts.append(line)
    texts.extend(args.query or [])
    if not texts:
        print("error: no queries given (use --file and/or --query)", file=sys.stderr)
        return 1
    profile = getattr(args, "profile", False)
    if profile:
        registry.enable()
    if getattr(args, "slow_ms", None) is not None:
        from repro.obs.slowlog import slow_query_log

        registry.enable()
        slow_query_log.configure(args.slow_ms, path=getattr(args, "slow_log", None))

    def _run() -> BatchReport:
        if args.mode == "process":
            from repro.query import ProcessQueryExecutor

            with ProcessQueryExecutor(args.model, max_workers=args.workers) as pool:
                return pool.run_batch(texts, chunksize=args.chunksize)
        if args.mode == "thread":
            from repro.query import QueryExecutor

            backend = CompressedMatrix.open(args.model)
            with QueryExecutor(
                backend, max_workers=args.workers, close_backend=True
            ) as pool:
                return pool.run_batch(texts)
        with CompressedMatrix.open(args.model) as store:
            engine = QueryEngine(store)
            start = time.perf_counter()
            results = [engine.execute(coerce_query(text)) for text in texts]
            wall = time.perf_counter() - start
        return BatchReport(
            results=results,
            queries=len(texts),
            workers=1,
            wall_s=wall,
            throughput_qps=batch_throughput(len(texts), wall),
        )

    if profile:
        # One root span for the whole batch: sequential queries nest
        # under it directly, and process-mode workers' span trees are
        # grafted under it as results are collected — the printed tree
        # spans caller and workers, joined on trace ids.
        from repro.obs.tracing import span as _span, trace as _trace

        with _trace(), _span("batch", mode=args.mode, queries=len(texts)) as root:
            report = _run()
    else:
        report = _run()
    for text, result in zip(texts, report.results):
        print(f"{text} = {result.value:.6g}")
    print(
        f"# {report.queries} queries, {report.workers} worker(s) "
        f"[{args.mode}], {report.wall_s:.3f}s, "
        f"{report.throughput_qps:.1f} qps"
    )
    if profile:
        print(json.dumps(root.to_dict(), indent=2))
    return 0


def cmd_stats(args) -> int:
    """Handle ``repro stats``: profiled random-cell workload + registry dump.

    Runs ``--queries`` single-cell queries over distinct random rows of
    the model with telemetry enabled, then dumps the full metrics
    registry.  With a cold pool this demonstrates the paper's ~1 disk
    access per reconstructed cell directly from the new counters
    (``summary.pool_accesses_per_query``).
    """
    registry.enable()
    rng = np.random.default_rng(args.seed)
    with CompressedMatrix.open(
        args.model, pool_capacity=args.pool_capacity
    ) as store:
        rows, cols = store.shape
        count = min(args.queries, rows)
        # Distinct rows: every query is cold, the paper's worst case.
        row_idx = rng.choice(rows, size=count, replace=False)
        col_idx = rng.integers(cols, size=count)
        engine = QueryEngine(store)
        store.u_pool_stats.reset()
        store.u_io_stats.reset()
        for row, col in zip(row_idx, col_idx):
            engine.cell(CellQuery(int(row), int(col)))
        pool = store.u_pool_stats
        summary = {
            "model": str(Path(args.model).resolve()),
            "queries": count,
            "pool_accesses_per_query": pool.accesses / count if count else 0.0,
            "page_misses_per_query": pool.misses / count if count else 0.0,
            "zero_row_skips": store.stats["zero_row_skips"],
        }
        print(json.dumps({"summary": summary, "registry": registry.snapshot()},
                         indent=2, default=str))
    return 0


def cmd_serve_metrics(args) -> int:
    """Handle ``repro serve-metrics``: HTTP metrics endpoint + snapshots.

    Enables telemetry, starts the embedded
    :class:`~repro.obs.serve.MetricsServer` (``/metrics`` OpenMetrics
    text, ``/healthz`` + ``/healthz/live`` + ``/healthz/ready``,
    ``/snapshot`` JSON), and ticks every ``--interval`` seconds until
    ``--duration`` elapses (forever when omitted).  Each tick
    optionally runs ``--exercise`` random cell queries against
    ``--model`` (so latency histograms and pool counters are live even
    without external traffic) and appends one registry snapshot to the
    rotating JSONL file at ``--snapshots``.  ``--slow-ms`` arms the
    slow-query log, to ``--slow-log`` if given.

    SIGTERM and SIGINT both drain gracefully — the same discipline as
    ``repro serve``: readiness flips to 503 first, in-flight scrapes
    get a bounded grace to finish, and the process exits 0.
    """
    import signal
    import threading
    import time

    from repro.obs.export import MetricsSnapshotWriter
    from repro.obs.serve import MetricsServer

    registry.enable()
    if args.slow_ms is not None:
        from repro.obs.slowlog import slow_query_log

        slow_query_log.configure(args.slow_ms, path=args.slow_log)
    store = engine = None
    rng = np.random.default_rng(args.seed)
    writer = MetricsSnapshotWriter(args.snapshots) if args.snapshots else None
    server = MetricsServer(host=args.host, port=args.port).start()
    stop_event = threading.Event()
    # Handlers only exist on the main thread; embedded runs (tests
    # driving the CLI from a worker thread) rely on --duration instead.
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop_event.set())
    try:
        if args.model:
            store = CompressedMatrix.open(args.model)
            engine = QueryEngine(store)
        print(
            f"serving metrics on {server.url}  "
            "(routes: /metrics /healthz /healthz/ready /snapshot)"
        )
        sys.stdout.flush()
        deadline = (
            time.monotonic() + args.duration if args.duration is not None else None
        )
        while not stop_event.is_set():
            if engine is not None and args.exercise:
                rows, cols = store.shape
                for index in range(args.exercise):
                    if index % 8 == 7:
                        row = int(rng.integers(rows))
                        engine.aggregate(
                            AggregateQuery(
                                "avg",
                                Selection(rows=range(row, row + 1), cols=None),
                            )
                        )
                    else:
                        engine.cell(
                            CellQuery(
                                int(rng.integers(rows)), int(rng.integers(cols))
                            )
                        )
            if writer is not None:
                writer.write()
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                stop_event.wait(min(args.interval, remaining))
            else:
                stop_event.wait(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        # Graceful drain: readiness flips before the listener closes, so
        # an orchestrator's next /healthz/ready probe sees 503 while any
        # in-flight scrape still finishes inside the grace period.
        server.stop()
        if store is not None:
            store.close()
    return 0


def cmd_serve(args) -> int:
    """Handle ``repro serve``: the fault-tolerant query HTTP tier.

    Serves one model directory (or a warehouse dataset via ``--root`` +
    ``--dataset``) over :class:`~repro.serve.server.QueryServer`:
    every request answered by the handler thread that read it, behind
    bounded admission, per-request deadlines, load shedding with
    ``Retry-After`` and brownout (SVD-only) degradation.  SIGTERM/SIGINT
    drain gracefully and exit 0.
    """
    from repro.serve import QueryServer, ServeConfig

    registry.enable()
    if args.slow_ms is not None:
        from repro.obs.slowlog import slow_query_log

        slow_query_log.configure(args.slow_ms, path=args.slow_log)
    verified_rmspe = None
    if args.model:
        model_dir = Path(args.model)
    else:
        if not args.root or not args.dataset:
            raise ReproError(
                "serve needs a model directory, or --root and --dataset"
            )
        from repro.warehouse import Warehouse

        warehouse = Warehouse(args.root)
        entry = warehouse.entry(args.dataset)
        verified_rmspe = entry.verified_rmspe
        model_dir = Path(args.root) / args.dataset / "model"
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        max_queue_age_ms=args.max_queue_age_ms,
        default_timeout_ms=args.default_timeout_ms,
        max_timeout_ms=args.max_timeout_ms,
        retry_after_s=args.retry_after_s,
        drain_grace_s=args.drain_grace_s,
        brownout_sheds=args.brownout_sheds,
        brownout_window_s=args.brownout_window_s,
        on_corrupt="degraded" if args.allow_degraded else "raise",
    )
    server = QueryServer(model_dir, config, verified_rmspe=verified_rmspe)
    server.start()
    server.install_signal_handlers()
    print(
        f"serving {model_dir} on {server.url}  "
        "(routes: /query /cell /aggregate /groupby /explain /stats /healthz "
        "/metrics /snapshot)"
    )
    sys.stdout.flush()
    drained = server.serve_until_shutdown(duration_s=args.duration)
    if not drained:
        print(
            "drain grace expired with requests still in flight",
            file=sys.stderr,
        )
    return 0


def format_top_frame(
    snapshot: dict, prev: dict | None = None, dt: float | None = None
) -> str:
    """Render one ``repro top`` frame from a registry snapshot.

    Pure function of the ``/snapshot`` payloads so tests can exercise
    the rendering without a server: ``prev``/``dt`` (the previous
    snapshot and the seconds between them) turn cumulative query
    counters into a rate; without them the frame shows totals only.
    """

    def _counter(snap: dict | None, name: str) -> float:
        return float((snap or {}).get("counters", {}).get(name, 0))

    def _queries(snap: dict | None) -> float:
        """Total queries served, from whichever source is counting.

        Executor counters cover pooled serving; the span histogram
        counts cover direct engine traffic (e.g. serve-metrics
        --exercise).  Thread-pool traffic increments both, so take the
        max rather than the sum.
        """
        executors = _counter(snap, "executor.queries") + _counter(
            snap, "executor.proc.queries"
        )
        histograms = (snap or {}).get("histograms", {}) or {}
        spans = sum(
            float(histograms.get(name, {}).get("count", 0))
            for name in ("span.query.cell", "span.query.aggregate")
        )
        return max(executors, spans)

    queries = _queries(snapshot)
    if prev is not None and dt and dt > 0:
        qps = f"{max(0.0, queries - _queries(prev)) / dt:8.1f} qps"
    else:
        qps = f"{int(queries):8d} queries total"

    pools = snapshot.get("pools", {}) or {}
    hits = sum(float(stats.get("hits", 0)) for stats in pools.values())
    misses = sum(float(stats.get("misses", 0)) for stats in pools.values())
    accesses = hits + misses
    hit_rate = f"{hits / accesses:6.1%}" if accesses else "   n/a"

    slow = int(_counter(snapshot, "slowlog.records"))

    lines = [
        f"queries {qps}   pool hit-rate {hit_rate}   slow {slow}",
        f"{'route':<28} {'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9} {'count':>9}",
    ]
    histograms = snapshot.get("histograms", {}) or {}
    routes = sorted(
        name for name in histograms if name.startswith("span.query")
    )
    for name in routes:
        summary = histograms[name]
        cells = []
        for key in ("p50", "p95", "p99"):
            value = summary.get(key)
            cells.append(f"{value / 1e6:9.3f}" if value is not None else f"{'-':>9}")
        lines.append(
            f"{name:<28} {cells[0]} {cells[1]} {cells[2]} "
            f"{int(summary.get('count', 0)):9d}"
        )
    if not routes:
        lines.append("(no span.query histograms yet)")

    gauges = snapshot.get("gauges", {}) or {}
    workers = [
        f"{name.split('.', 1)[1]}={gauges[name]:g}"
        for name in sorted(gauges)
        if name.startswith("executor.")
    ]
    if workers:
        lines.append("workers: " + "  ".join(workers))
    return "\n".join(lines)


def cmd_top(args) -> int:
    """Handle ``repro top``: poll a serve or serve-metrics endpoint and render.

    Fetches ``/snapshot`` every ``--interval`` seconds and prints a
    frame of qps (from counter deltas), pool hit rate, per-route
    ``span.query.*`` latency quantiles, and worker gauges.
    ``--iterations 0`` runs until interrupted.
    """
    import time
    import urllib.request

    base = args.url.rstrip("/")
    prev = prev_time = None
    frame = 0
    try:
        while True:
            with urllib.request.urlopen(base + "/snapshot", timeout=10) as reply:
                snapshot = json.load(reply)
            now = time.monotonic()
            dt = (now - prev_time) if prev_time is not None else None
            print(f"--- repro top @ {base} (frame {frame + 1}) ---")
            print(format_top_frame(snapshot, prev, dt))
            sys.stdout.flush()
            prev, prev_time = snapshot, now
            frame += 1
            if args.iterations and frame >= args.iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_fsck(args) -> int:
    """Handle ``repro fsck``: integrity-check a model directory.

    Verifies every file against the manifest (SHA-256 + sizes; sizes
    only with ``--quick``), then attempts a strict ``open()`` so purely
    structural damage (bad meta, shape mismatches) is caught even on
    legacy directories without a manifest.  Exit code 0 only when both
    checks pass.
    """
    from repro.storage.integrity import verify_manifest

    report = verify_manifest(args.model, deep=not args.quick)
    out = report.to_dict()
    try:
        CompressedMatrix.open(args.model).close()
        out["opens"] = "ok"
        opens_ok = True
    except ReproError as exc:
        out["opens"] = f"error: {exc}"
        opens_ok = False
    ok = report.ok and opens_ok
    out["ok"] = ok
    print(json.dumps(out, indent=2))
    return 0 if ok else 1


def cmd_verify(args) -> int:
    """Handle ``repro verify``: audit a model against its source."""
    from repro.core.verify import verify_model
    from repro.storage import MatrixStore

    with CompressedMatrix.open(args.model) as store:
        if args.dataset:
            source = load_dataset(args.dataset).matrix
            report = verify_model(source, store)
        else:
            raw = MatrixStore.open(args.input)
            try:
                report = verify_model(raw, store)
            finally:
                raw.close()
    print(report.summary())
    return 0 if report.ok else 1


def cmd_scatter(args) -> int:
    """Handle ``repro scatter``: print the Appendix A ASCII plot."""
    dataset = load_dataset(args.dataset)
    coords = scatter_coordinates(dataset.matrix, dimensions=2)
    print(f"{dataset.name}: {dataset.description}")
    print(ascii_scatter(coords, width=args.width, height=args.height))
    flagged = outlier_rows(coords)
    print(f"outlier rows: {flagged.tolist()[:20]}")
    return 0


def _warehouse(args):
    from repro.warehouse import Warehouse

    return Warehouse(args.root)


def cmd_wh_ingest(args) -> int:
    """Handle ``repro wh-ingest``: compress a dataset into a warehouse."""
    warehouse = _warehouse(args)
    matrix = load_dataset(args.dataset).matrix
    entry = warehouse.ingest(args.name, matrix, budget_fraction=args.budget)
    print(
        f"ingested {entry.name}: {entry.rows}x{entry.cols}, k={entry.cutoff}, "
        f"{entry.num_deltas} deltas, verified RMSPE={entry.verified_rmspe:.5f}"
    )
    return 0


def cmd_wh_list(args) -> int:
    """Handle ``repro wh-list``: print the warehouse catalog."""
    warehouse = _warehouse(args)
    if not warehouse.names():
        print("(empty warehouse)")
        return 0
    for name in warehouse.names():
        entry = warehouse.entry(name)
        verified = (
            f"RMSPE={entry.verified_rmspe:.5f}"
            if entry.verified_rmspe is not None
            else "unverified"
        )
        print(
            f"{entry.name}: {entry.rows}x{entry.cols} @ "
            f"{entry.budget_fraction:.0%}  k={entry.cutoff} "
            f"deltas={entry.num_deltas}  {verified}"
        )
    print(f"total model bytes: {warehouse.total_model_bytes()}")
    return 0


def cmd_wh_verify(args) -> int:
    """Handle ``repro wh-verify``: re-audit one warehouse dataset."""
    report = _warehouse(args).verify(args.name)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_wh_drop(args) -> int:
    """Handle ``repro wh-drop``: remove one warehouse dataset."""
    _warehouse(args).drop(args.name)
    print(f"dropped {args.name}")
    return 0


def cmd_datasets(_args) -> int:
    """Handle ``repro datasets``: list built-in dataset names."""
    from repro.data import dataset_names

    for name in dataset_names():
        print(name)
    print("(any phone<N> or phone<N>k name also works, e.g. phone2500)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree for the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SVDD-compressed time-sequence store (SIGMOD 1997 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="compress a matrix into a model directory")
    group = build.add_mutually_exclusive_group(required=True)
    group.add_argument("--dataset", help="built-in dataset name (e.g. phone2000)")
    group.add_argument("--input", help="path to a MatrixStore file")
    build.add_argument("--budget", type=float, default=0.10, help="space fraction")
    build.add_argument("--out", required=True, help="output model directory")
    build.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads for the parallel build passes (default 1)",
    )
    build.set_defaults(func=cmd_build)

    info = sub.add_parser("info", help="inspect a compressed model")
    info.add_argument("model", help="model directory")
    info.set_defaults(func=cmd_info)

    append = sub.add_parser(
        "append", help="append new days/customers to a model without a rebuild"
    )
    append.add_argument("model", help="model directory")
    agroup = append.add_mutually_exclusive_group(required=True)
    agroup.add_argument(
        "--cols", help=".npy with (rows, d) new day columns to append"
    )
    agroup.add_argument(
        "--rows", help=".npy with (n, cols) new customer rows to append"
    )
    append.add_argument(
        "--defer-summaries",
        action="store_true",
        dest="defer_summaries",
        help="skip the summary-store refresh (catch up later with "
        "`repro summarize`); the append itself stays crash-atomic",
    )
    append.set_defaults(func=cmd_append)

    summarize = sub.add_parser(
        "summarize",
        help="materialize or refresh a model's summary store (rollups)",
    )
    summarize.add_argument(
        "target", help="model directory (warehouse root with --all)"
    )
    summarize.add_argument(
        "--all",
        action="store_true",
        dest="all_models",
        help="treat TARGET as a warehouse root; summarize every model",
    )
    summarize.add_argument(
        "--rebuild",
        action="store_true",
        help="cold-recompute even when the store is fresh",
    )
    summarize.add_argument(
        "--start-date",
        default=None,
        help="calendar date of column 0 (YYYY-MM-DD) for calendar-aligned "
        "month/quarter/year buckets",
    )
    summarize.set_defaults(func=cmd_summarize)

    cell = sub.add_parser("cell", help="reconstruct one cell")
    cell.add_argument("model", help="model directory")
    cell.add_argument("row", type=int)
    cell.add_argument("col", type=int)
    cell.add_argument(
        "--profile", action="store_true", help="print the QueryProfile as JSON"
    )
    cell.set_defaults(func=cmd_cell)

    aggregate = sub.add_parser("aggregate", help="run an aggregate query")
    aggregate.add_argument("model", help="model directory")
    aggregate.add_argument(
        "--function", default="avg", help="sum|avg|count|min|max|stddev"
    )
    aggregate.add_argument("--rows", default=":", help="row range a:b (default all)")
    aggregate.add_argument("--cols", default=":", help="col range a:b (default all)")
    aggregate.add_argument(
        "--explain",
        action="store_true",
        help="print the query plan as JSON instead of executing",
    )
    aggregate.add_argument(
        "--profile", action="store_true", help="print the QueryProfile as JSON"
    )
    aggregate.add_argument(
        "--max-rmspe",
        type=float,
        default=None,
        dest="max_rmspe",
        help="error budget: admit the approximate SVD-only route when its "
        "stored RMSPE fits (0 = exact only)",
    )
    aggregate.set_defaults(func=cmd_aggregate)

    query = sub.add_parser("query", help="run a textual query against a model")
    query.add_argument("model", help="model directory")
    query.add_argument(
        "text", help="e.g. 'avg() rows 0:100 cols 7:14' or 'cell(3, 5)'"
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the query plan as JSON instead of executing",
    )
    query.add_argument(
        "--profile", action="store_true", help="print the QueryProfile as JSON"
    )
    query.add_argument(
        "--max-rmspe",
        type=float,
        default=None,
        dest="max_rmspe",
        help="error budget: admit the approximate SVD-only route when its "
        "stored RMSPE fits (0 = exact only)",
    )
    query.set_defaults(func=cmd_query)

    batch = sub.add_parser(
        "batch", help="run a batch of queries through a concurrent executor"
    )
    batch.add_argument("model", help="model directory")
    batch.add_argument(
        "--file", help="file of textual queries, one per line ('#' comments)"
    )
    batch.add_argument(
        "--query",
        action="append",
        help="inline textual query (repeatable)",
    )
    batch.add_argument(
        "--mode",
        choices=("sequential", "thread", "process"),
        default="thread",
        help="serving strategy (default: thread)",
    )
    batch.add_argument(
        "--workers", type=int, default=None, help="pool size (default: auto)"
    )
    batch.add_argument(
        "--chunksize",
        type=int,
        default=None,
        help="queries per worker round trip (process mode; default: auto)",
    )
    batch.add_argument(
        "--profile",
        action="store_true",
        help="enable telemetry and print the batch span tree as JSON "
        "(process mode grafts worker trees into it)",
    )
    batch.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="arm the slow-query log at this threshold (milliseconds)",
    )
    batch.add_argument(
        "--slow-log", default=None, help="JSONL file for slow-query records"
    )
    batch.set_defaults(func=cmd_batch)

    stats = sub.add_parser(
        "stats", help="profiled random-cell workload + metrics registry dump"
    )
    stats.add_argument("model", help="model directory")
    stats.add_argument(
        "--queries", type=int, default=500, help="number of random cell queries"
    )
    stats.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    stats.add_argument(
        "--pool-capacity", type=int, default=64, help="U-store buffer pool pages"
    )
    stats.set_defaults(func=cmd_stats)

    serve_q = sub.add_parser(
        "serve",
        help="serve a model over HTTP with admission control, deadlines, "
        "load shedding, and graceful degradation",
    )
    serve_q.add_argument(
        "model",
        nargs="?",
        default=None,
        help="model directory (or use --root/--dataset)",
    )
    serve_q.add_argument("--root", default=None, help="warehouse root directory")
    serve_q.add_argument(
        "--dataset", default=None, help="warehouse dataset name to serve"
    )
    serve_q.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_q.add_argument(
        "--port", type=int, default=9465, help="TCP port (0 picks a free one)"
    )
    serve_q.add_argument(
        "--workers",
        type=int,
        default=None,
        help="gathers computing at once (default: cores)",
    )
    serve_q.add_argument(
        "--max-queue-depth",
        type=int,
        default=64,
        help="admitted-but-unfinished request ceiling before shedding",
    )
    serve_q.add_argument(
        "--max-queue-age-ms",
        type=float,
        default=2000.0,
        help="shed new requests when the oldest queued one is this stale",
    )
    serve_q.add_argument(
        "--default-timeout-ms",
        type=float,
        default=5000.0,
        help="per-request deadline when the client sends none",
    )
    serve_q.add_argument(
        "--max-timeout-ms",
        type=float,
        default=60000.0,
        help="ceiling on client-requested deadlines",
    )
    serve_q.add_argument(
        "--retry-after-s",
        type=float,
        default=1.0,
        help="Retry-After hint on shed (503) responses",
    )
    serve_q.add_argument(
        "--drain-grace-s",
        type=float,
        default=5.0,
        help="SIGTERM waits this long for in-flight requests",
    )
    serve_q.add_argument(
        "--brownout-sheds",
        type=int,
        default=8,
        help="sheds within the window that trigger brownout (SVD-only answers)",
    )
    serve_q.add_argument(
        "--brownout-window-s", type=float, default=10.0, help="brownout shed window"
    )
    serve_q.add_argument(
        "--allow-degraded",
        action="store_true",
        help="serve even if the delta sidecar fails verification "
        "(answers stamped degraded)",
    )
    serve_q.add_argument(
        "--duration",
        type=float,
        default=None,
        help="exit (with a graceful drain) after this many seconds",
    )
    serve_q.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="arm the slow-query log at this threshold (milliseconds)",
    )
    serve_q.add_argument(
        "--slow-log", default=None, help="JSONL file for slow-query records"
    )
    serve_q.set_defaults(func=cmd_serve)

    serve = sub.add_parser(
        "serve-metrics",
        help="serve the metrics registry over HTTP (/metrics, /healthz, /snapshot)",
    )
    serve.add_argument(
        "--model", default=None, help="model directory to exercise (optional)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=9464, help="TCP port (0 picks a free one)"
    )
    serve.add_argument(
        "--snapshots", default=None, help="rotating JSONL registry-snapshot file"
    )
    serve.add_argument(
        "--interval", type=float, default=1.0, help="seconds between ticks"
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="exit after this many seconds (default: run until interrupted)",
    )
    serve.add_argument(
        "--exercise",
        type=int,
        default=0,
        help="random queries per tick against --model (keeps histograms live)",
    )
    serve.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="arm the slow-query log at this threshold (milliseconds)",
    )
    serve.add_argument(
        "--slow-log", default=None, help="JSONL file for slow-query records"
    )
    serve.set_defaults(func=cmd_serve_metrics)

    top = sub.add_parser(
        "top", help="live monitor polling a serve or serve-metrics endpoint"
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:9464",
        help="base URL of a `repro serve` or `repro serve-metrics` server",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between frames"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="frames to render before exiting (0 = until interrupted)",
    )
    top.set_defaults(func=cmd_top)

    fsck = sub.add_parser(
        "fsck", help="verify a model directory against its integrity manifest"
    )
    fsck.add_argument("model", help="model directory")
    fsck.add_argument(
        "--quick",
        action="store_true",
        help="compare file sizes only (skip SHA-256 hashing)",
    )
    fsck.set_defaults(func=cmd_fsck)

    verify = sub.add_parser("verify", help="audit a model against its source")
    verify.add_argument("model", help="model directory")
    vgroup = verify.add_mutually_exclusive_group(required=True)
    vgroup.add_argument("--dataset", help="built-in dataset the model was built from")
    vgroup.add_argument("--input", help="path to the source MatrixStore")
    verify.set_defaults(func=cmd_verify)

    scatter = sub.add_parser("scatter", help="Appendix A scatter plot of a dataset")
    scatter.add_argument("dataset", help="dataset name")
    scatter.add_argument("--width", type=int, default=72)
    scatter.add_argument("--height", type=int, default=20)
    scatter.set_defaults(func=cmd_scatter)

    datasets = sub.add_parser("datasets", help="list built-in datasets")
    datasets.set_defaults(func=cmd_datasets)

    wh_ingest = sub.add_parser("wh-ingest", help="ingest a dataset into a warehouse")
    wh_ingest.add_argument("--root", required=True, help="warehouse directory")
    wh_ingest.add_argument("--name", required=True, help="catalog name")
    wh_ingest.add_argument("--dataset", required=True, help="built-in dataset")
    wh_ingest.add_argument("--budget", type=float, default=0.10)
    wh_ingest.set_defaults(func=cmd_wh_ingest)

    wh_list = sub.add_parser("wh-list", help="list a warehouse's catalog")
    wh_list.add_argument("--root", required=True)
    wh_list.set_defaults(func=cmd_wh_list)

    wh_verify = sub.add_parser("wh-verify", help="re-audit one warehouse dataset")
    wh_verify.add_argument("--root", required=True)
    wh_verify.add_argument("name")
    wh_verify.set_defaults(func=cmd_wh_verify)

    wh_drop = sub.add_parser("wh-drop", help="remove one warehouse dataset")
    wh_drop.add_argument("--root", required=True)
    wh_drop.add_argument("name")
    wh_drop.set_defaults(func=cmd_wh_drop)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
