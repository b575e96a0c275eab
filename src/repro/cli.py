"""Command-line interface: ``python -m repro <command>``.

Gives the library the operational surface a deployed system would have:

- ``build``   — compress an on-disk matrix (or a named dataset) into a
  CompressedMatrix directory;
- ``info``    — inspect a compressed model (shape, k, deltas, space,
  append/drift state);
- ``append``  — fold new days (``--cols``) or customers (``--rows``)
  into an existing model crash-atomically, without a rebuild
  (``--defer-summaries`` skips the rollup refresh and leaves the model
  without a usable summary store until ``summarize``);
- ``summarize`` — rebuild a model's summary store when it is missing
  or stale (the persisted time-hierarchy rollups behind
  ``path=summary`` answers and ``/groupby``);
- ``query``   — run a textual query: a cell (``'cell(1234, 200)'``,
  reporting the disk accesses used) or an aggregate over row/column
  ranges (``'avg() rows 0:100 cols 7:14'``);
- ``batch``   — answer a file of queries in order on one engine and
  report the batch's queries per second;
- ``serve``   — serve a model over HTTP (``/query``, ``/cell``,
  ``/aggregate``, ``/groupby``, ``/explain``, ``/stats``, ``/healthz``
  live/ready, ``/metrics``, ``/snapshot``), each request answered in the
  thread that read it, with bounded admission, load shedding (503 +
  Retry-After), per-request deadlines, brownout degradation, and
  graceful SIGTERM drain;
- ``top``     — live terminal monitor polling ``/snapshot`` on a
  ``serve`` endpoint: qps, queue depth, shed rate, brownout, per-route
  latency quantiles;
- ``fsck``    — verify a model directory against its integrity manifest
  (full SHA-256 by default, ``--quick`` for sizes only) and confirm the
  model actually opens;
- ``verify``  — audit a model against its source data;
- ``scatter`` — render the Appendix A scatter plot for a dataset;
- ``datasets`` — list the built-in synthetic datasets.

``query`` takes ``--profile`` (execute with telemetry enabled and print
the per-query :class:`~repro.obs.profile.QueryProfile` as JSON),
``--explain`` (print the engine's plan as JSON instead of executing)
and ``--max-rmspe`` (the aggregate's error budget).

Every command is one row of :data:`COMMANDS` — name, help, handler,
arguments — and :func:`build_parser` is a loop over it.

Examples::

    python -m repro build --dataset phone2000 --budget 0.10 --out model/
    python -m repro info model/
    python -m repro query model/ 'cell(1234, 200)'
    python -m repro query model/ 'avg() rows 0:100 cols 7:14'
    python -m repro query model/ 'avg() rows 0:100' --explain
    python -m repro query model/ 'avg() rows 0:100' --profile
    python -m repro serve model/ --workers 2
    python -m repro scatter stocks
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from repro.core import CompressedMatrix
from repro.data import load_dataset
from repro.exceptions import ReproError
from repro.obs import registry
from repro.query import AggregateQuery, CellQuery, QueryEngine
from repro.query.parser import parse_query
from repro.serve.config import ServeConfig
from repro.storage import MatrixStore


@contextlib.contextmanager
def _source(args):
    """The matrix ``--dataset`` names, or the store at ``--input``
    (closed on exit)."""
    if args.dataset:
        yield load_dataset(args.dataset).matrix
    else:
        with MatrixStore.open(args.input) as store:
            yield store


def cmd_build(args) -> int:
    """Handle ``repro build``: compress a source into a model directory.

    Uses the constant-memory pipeline (U streamed to disk), so building
    from an on-disk store never allocates O(N) memory.
    """
    from repro.core import build_compressed

    with _source(args) as source:
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
    return 0


def cmd_info(args) -> int:
    """Handle ``repro info``: print a model's catalog facts."""
    from repro.storage.model_dir import read_update_state

    with CompressedMatrix.open(args.model) as store:
        rows, cols = store.shape
        print(f"model: {Path(args.model).resolve()}")
        print(f"  matrix: {rows} x {cols}")
        print(f"  principal components (k): {store.cutoff}")
        print(f"  outlier deltas: {store.num_deltas}")
        print(f"  flagged zero rows: {store.num_zero_rows}")
        raw = rows * cols * 8
        print(f"  model bytes (Eq. 9 accounting): {store.space_bytes()}")
        print(f"  space fraction: {store.space_bytes() / raw:.2%}")
        # Beside the paper's model: summaries, append ledger, manifest.
        on_disk = sum(p.stat().st_size for p in Path(args.model).rglob("*") if p.is_file())
        print(f"  on disk: {on_disk} ({on_disk / raw:.2%} of raw)")
    state = read_update_state(args.model)
    print(
        f"  appends: {state['appends']} "
        f"(+{state['rows_appended']} rows, +{state['cols_appended']} cols)"
    )
    print(
        f"  drift: {state['drift']:.3g} "
        f"(threshold {state['drift_threshold']:.3g}, "
        f"rebuild recommended: {state['rebuild_recommended']})"
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
    print(f"  summaries: fresh ({store.model_rows} x {store.model_cols} covered)")


def cmd_append(args) -> int:
    """Handle ``repro append``: fold new days/customers into a model.

    Exactly one of ``--cols``/``--rows`` names a ``.npy`` array: new
    columns are ``(N, d)`` (one value per existing customer per new
    day), new rows are ``(n, M)`` (one full history per new customer).
    The append is crash-atomic; readers holding the model open keep
    their pre-append snapshot until they reopen.
    """
    from repro.core.update import append_columns, append_rows

    refresh = not args.defer_summaries
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
        f"drift: {result.drift:.3g}  "
        f"rebuild recommended: {result.rebuild_recommended}"
    )
    if not refresh:
        print("summaries: refresh deferred (run `repro summarize` to rebuild)")
    return 0


def cmd_summarize(args) -> int:
    """Handle ``repro summarize``: bring a model's summary store up to date.

    A fresh store is left alone; a missing or stale one is rebuilt cold,
    file by file, the state last.  ``--rebuild`` forces the recompute.
    """
    from repro.summaries import summarize_directory

    report = summarize_directory(
        args.model, rebuild=args.rebuild, start_date=args.start_date
    )
    state = report["state"]
    print(
        f"{report['status']} — covers {state['rows']} x {state['cols']} "
        f"({report['seconds']:.2f}s)"
    )
    return 0


def cmd_query(args) -> int:
    """Handle ``repro query``: parse a textual query, then print its
    plan (``--explain``) or its answer — a cell's with the disk
    accesses it cost, an aggregate's with the cells it covered — and,
    under ``--profile``, the :class:`~repro.obs.profile.QueryProfile`."""
    query = parse_query(args.text)
    if args.max_rmspe is not None and isinstance(query, AggregateQuery):
        query = dataclasses.replace(query, max_rmspe=args.max_rmspe)
    if args.profile:
        registry.enable()
    with CompressedMatrix.open(args.model) as store:
        engine = QueryEngine(store)
        if args.explain:
            print(json.dumps(engine.explain(query), indent=2))
            return 0
        store.u_pool_stats.reset()
        result = engine.execute(query)
        label = args.text.strip()
        if isinstance(query, CellQuery):
            print(f"{label} = {result.value:.6g}")
            print(f"disk accesses: {store.u_pool_stats.misses}")
        else:
            print(f"{label} = {result.value:.6g}  ({result.cells_touched} cells)")
        if result.profile is not None:
            print(result.profile.to_json())
    return 0


def _arm_slow_log(args) -> None:
    """``--slow-ms`` arms the slow-query log, to ``--slow-log`` if given."""
    if args.slow_ms is not None:
        from repro.obs.slowlog import slow_query_log

        registry.enable()
        slow_query_log.configure(args.slow_ms, path=args.slow_log)


def cmd_batch(args) -> int:
    """Handle ``repro batch``: answer many queries on one engine, in order.

    Queries come from ``--file`` (one textual query per line; blank
    lines and ``#`` comments skipped) and/or repeated ``--query`` flags.
    """
    import time

    from repro.obs.tracing import NULL_SPAN, span
    from repro.query.engine import coerce_query

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
    if args.profile:
        registry.enable()
    _arm_slow_log(args)
    # With --profile, one root span holds every query's spans (and its
    # trace id joins them); otherwise each query is its own trace.
    root = span("batch", queries=len(texts)) if args.profile else NULL_SPAN
    with CompressedMatrix.open(args.model) as store, root:
        engine = QueryEngine(store)
        start = time.perf_counter()
        results = [engine.execute(coerce_query(text)) for text in texts]
        wall = time.perf_counter() - start
    for text, result in zip(texts, results):
        print(f"{text} = {result.value:.6g}")
    qps = len(texts) / wall if wall > 0 else 0.0
    print(f"# {len(texts)} queries, {wall:.3f}s, {qps:.1f} qps")
    if args.profile:
        print(json.dumps(root.to_dict(), indent=2))
    return 0


def cmd_serve(args) -> int:
    """Handle ``repro serve``: the fault-tolerant query HTTP tier.

    Serves one model directory over
    :class:`~repro.serve.server.QueryServer`: every request answered by
    the handler thread that read it, behind bounded admission,
    per-request deadlines, load shedding with ``Retry-After`` and
    brownout (queries planned under the model's stored RMSPE).  SIGTERM/SIGINT drain gracefully
    and exit 0.
    """
    from repro.serve import QueryServer

    registry.enable()
    _arm_slow_log(args)
    model_dir = Path(args.model)
    config = ServeConfig(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(ServeConfig)}
    )
    server = QueryServer(model_dir, config)
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
    """Render one ``repro top`` frame from a ``repro serve`` snapshot.

    Pure function of the ``/snapshot`` payloads so tests can exercise
    the rendering without a server: ``prev``/``dt`` (the previous
    snapshot and the seconds between them) turn the cumulative query
    and shed counts into rates; without them the frame shows totals.
    """

    def _queries(snap: dict) -> float:
        """Queries answered: the two root spans every one runs under."""
        histograms = snap.get("histograms", {})
        return sum(
            float(histograms.get(name, {}).get("count", 0))
            for name in ("span.query.cell", "span.query.aggregate")
        )

    def _counter(snap: dict, name: str) -> float:
        return float(snap.get("counters", {}).get(name, 0))

    shed = _counter(snapshot, "server.shed")
    if prev is not None and dt and dt > 0:
        qps = f"{max(0.0, _queries(snapshot) - _queries(prev)) / dt:8.1f} qps"
        shed = f"{max(0.0, shed - _counter(prev, 'server.shed')) / dt:.1f}/s"
    else:
        qps = f"{int(_queries(snapshot)):8d} queries total"
        shed = f"{int(shed)} total"

    gauges = snapshot.get("gauges", {})
    slow = int(_counter(snapshot, "slowlog.records"))
    lines = [
        f"queries {qps}   slow {slow}",
        f"queue depth {gauges.get('server.queue_depth', 0):g}   shed {shed}   "
        f"brownout {'on' if gauges.get('server.brownout') else 'off'}",
        f"{'route':<28} {'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9} {'count':>9}",
    ]
    histograms = snapshot.get("histograms", {})
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
    return "\n".join(lines)


def cmd_top(args) -> int:
    """Handle ``repro top``: poll a ``repro serve`` endpoint and render.

    Fetches ``/snapshot`` every ``--interval`` seconds and prints a
    frame of qps and shed rate (from count deltas), queue depth,
    brownout state and per-route ``span.query.*`` latency quantiles.
    ``--iterations 0`` runs until interrupted.
    """
    import time
    import urllib.request

    base = args.url.rstrip("/")
    prev = prev_time = None
    frame = 0
    try:
        while True:
            try:
                with urllib.request.urlopen(base + "/snapshot", timeout=10) as reply:
                    snapshot = json.load(reply)
            except OSError as exc:  # refused, reset, timed out, or not a 200
                raise ReproError(f"cannot read {base}/snapshot: {exc}") from None
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
    only with ``--quick``; a missing or unreadable manifest is itself
    the problem), then attempts a strict ``open()`` so purely
    structural damage (bad meta, shape mismatches) is caught too.  Exit
    code 0 only when both checks pass.  A directory an interrupted append left only as
    ``<model>.trash`` is moved back first.
    """
    from repro.storage.atomic import restore_trash
    from repro.storage.integrity import verify_manifest

    restored = restore_trash(args.model)
    report = verify_manifest(args.model, deep=not args.quick)
    out = report.to_dict()
    if restored:
        out["restored"] = f"{args.model}.trash (left by an interrupted swap)"
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

    with CompressedMatrix.open(args.model) as store, _source(args) as source:
        report = verify_model(source, store)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_scatter(args) -> int:
    """Handle ``repro scatter``: print the Appendix A ASCII plot."""
    # The front door's one edge into the lab, taken only by this command.
    from repro.lab.viz import ascii_scatter, outlier_rows, scatter_coordinates

    dataset = load_dataset(args.dataset)
    coords = scatter_coordinates(dataset.matrix, dimensions=2)
    print(f"{dataset.name}: {dataset.description}")
    print(ascii_scatter(coords, width=args.width, height=args.height))
    flagged = outlier_rows(coords)
    print(f"outlier rows: {flagged.tolist()[:20]}")
    return 0


def cmd_datasets(_args) -> int:
    """Handle ``repro datasets``: list built-in dataset names."""
    from repro.data import dataset_names

    for name in dataset_names():
        print(name)
    print("(any phone<N> or phone<N>k name also works, e.g. phone2500)")
    return 0


def _arg(*names: str, **spec):
    """One ``add_argument`` call, as data."""
    return names, spec


# Argument groups more than one command takes, written once.  A list is
# a required mutually-exclusive group.
_MODEL = _arg("model", help="model directory")
_SOURCE = [
    _arg("--dataset", help="built-in dataset name (e.g. phone2000)"),
    _arg("--input", help="path to a MatrixStore file"),
]
_SLOW_LOG = (
    _arg(
        "--slow-ms",
        type=float,
        help="arm the slow-query log at this threshold (milliseconds)",
    ),
    _arg("--slow-log", help="JSONL file for slow-query records"),
)

# Where ``repro serve`` legitimately differs from the ServeConfig field
# it sets: a fixed default port (a bare ServeConfig() binds a free one),
# and ``on_corrupt`` spelled as the switch that picks its other value.
_SERVE_PORT = 9465
_SERVE_SPELLINGS = {
    "port": _arg("--port", default=_SERVE_PORT),
    "on_corrupt": _arg(
        "--allow-degraded",
        action="store_const",
        const="degraded",
        help="serve even if the delta sidecar fails verification "
        "(answers stamped degraded)",
    ),
}
_FIELD_TYPES = {"int": int, "float": float, "str": str}


def _serve_config_arguments():
    """One flag per :class:`ServeConfig` field: its name, type, default
    and help are the field's, so each is written down once."""
    for field in dataclasses.fields(ServeConfig):
        flag = "--" + field.name.replace("_", "-")
        names, stated = _SERVE_SPELLINGS.get(field.name, ((flag,), {}))
        spec = {
            "dest": field.name,
            "default": field.default,
            "help": field.metadata["help"],
            **stated,
        }
        if "action" not in spec:
            spec["type"] = _FIELD_TYPES[field.type.removesuffix(" | None")]
        yield _arg(*names, **spec)


#: Every command: (name, help, handler, arguments).
COMMANDS = (
    (
        "build",
        "compress a matrix into a model directory",
        cmd_build,
        (
            _SOURCE,
            _arg("--budget", type=float, default=0.10, help="space fraction"),
            _arg("--out", required=True, help="output model directory"),
            _arg(
                "--jobs",
                type=int,
                default=1,
                help="worker threads for the parallel build passes (default 1)",
            ),
        ),
    ),
    ("info", "inspect a compressed model", cmd_info, (_MODEL,)),
    (
        "append",
        "append new days/customers to a model without a rebuild",
        cmd_append,
        (
            _MODEL,
            [
                _arg("--cols", help=".npy with (rows, d) new day columns to append"),
                _arg("--rows", help=".npy with (n, cols) new customer rows to append"),
            ],
            _arg(
                "--defer-summaries",
                action="store_true",
                help="skip the summary-store refresh: queries take the exact "
                "factor/stream routes until `repro summarize` rebuilds it; "
                "the append itself stays crash-atomic",
            ),
        ),
    ),
    (
        "summarize",
        "materialize or rebuild a model's summary store (rollups)",
        cmd_summarize,
        (
            _MODEL,
            _arg(
                "--rebuild",
                action="store_true",
                help="cold-recompute even when the store is fresh",
            ),
            _arg(
                "--start-date",
                help="calendar date of column 0 (YYYY-MM-DD) for "
                "calendar-aligned month/quarter/year buckets (default: "
                "the date the previous store recorded)",
            ),
        ),
    ),
    (
        "query",
        "run a textual query against a model",
        cmd_query,
        (
            _MODEL,
            _arg("text", help="e.g. 'avg() rows 0:100 cols 7:14' or 'cell(3, 5)'"),
            _arg(
                "--explain",
                action="store_true",
                help="print the query plan as JSON instead of executing",
            ),
            _arg(
                "--profile", action="store_true", help="print the QueryProfile as JSON"
            ),
            _arg(
                "--max-rmspe",
                type=float,
                help="error budget: admit the approximate SVD-only route when its "
                "stored RMSPE fits (0 = exact only)",
            ),
        ),
    ),
    (
        "batch",
        "answer a batch of queries in order on one engine",
        cmd_batch,
        (
            _MODEL,
            _arg("--file", help="file of textual queries, one per line ('#' comments)"),
            _arg("--query", action="append", help="inline textual query (repeatable)"),
            _arg(
                "--profile",
                action="store_true",
                help="enable telemetry and print the batch span tree as JSON",
            ),
            *_SLOW_LOG,
        ),
    ),
    (
        "serve",
        "serve a model over HTTP with admission control, deadlines, "
        "load shedding, and graceful degradation",
        cmd_serve,
        (
            _MODEL,
            *_serve_config_arguments(),
            _arg(
                "--duration",
                type=float,
                help="exit (with a graceful drain) after this many seconds",
            ),
            *_SLOW_LOG,
        ),
    ),
    (
        "top",
        "live monitor polling a `repro serve` endpoint",
        cmd_top,
        (
            _arg(
                "--url",
                default=f"http://127.0.0.1:{_SERVE_PORT}",
                help="base URL of a `repro serve` server",
            ),
            _arg("--interval", type=float, default=2.0, help="seconds between frames"),
            _arg(
                "--iterations",
                type=int,
                default=0,
                help="frames to render before exiting (0 = until interrupted)",
            ),
        ),
    ),
    (
        "fsck",
        "verify a model directory against its integrity manifest",
        cmd_fsck,
        (
            _MODEL,
            _arg(
                "--quick",
                action="store_true",
                help="compare file sizes only (skip SHA-256 hashing)",
            ),
        ),
    ),
    ("verify", "audit a model against its source", cmd_verify, (_MODEL, _SOURCE)),
    (
        "scatter",
        "Appendix A scatter plot of a dataset",
        cmd_scatter,
        (
            _arg("dataset", help="dataset name"),
            _arg("--width", type=int, default=72),
            _arg("--height", type=int, default=20),
        ),
    ),
    ("datasets", "list built-in datasets", cmd_datasets, ()),
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree from :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SVDD-compressed time-sequence store (SIGMOD 1997 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=handler)
        for argument in arguments:
            if isinstance(argument, list):
                group = command.add_mutually_exclusive_group(required=True)
                for names, spec in argument:
                    group.add_argument(*names, **spec)
            else:
                names, spec = argument
                command.add_argument(*names, **spec)
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
