"""What the benchmark measures: model, workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root is the driver's copy of the
tables below; ``test_harness.py`` fails when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- the fixed model -------------------------------------------------------

#: ``phone_matrix(MODEL_ROWS)`` through ``build_compressed`` at a 10%
#: budget.  4000 rows, not the 20000 the issue sized for: the driver
#: makes 92 runs inside 3420 s and every run sets up SETUP_REPEATS
#: times, so one build has to stay near 2.5 s on two shared cores.
MODEL_ROWS = 4000
MODEL_COLS = 366
BUDGET_FRACTION = 0.10
BYTES_PER_VALUE = 8
#: ``CompressedMatrix.open``'s default; 64 pages against MODEL_ROWS
#: one-row pages is the larger-than-cache case.
POOL_CAPACITY = 64

#: Full set-ups (build + open, plus server start on http_mix) per run;
#: ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Constants regardless of ``nproc`` so runs on different boxes offer
#: the same load.
CLIENT_THREADS = 2
SERVE_WORKERS = 2

ZIPF_EXPONENT = 1.3
APPEND_DAYS = 7

# -- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Primary operations in one pass of the measured phase.
    pass_ops: int
    #: Operations replayed under spans by the traced run.
    trace_ops: int
    #: ``a`` in ``time ~ factor^a``: how the workload's time follows the
    #: probe's (``clock.py``).  Interpreter work follows it closely,
    #: NumPy kernels less, several processes and sockets least.
    speed_sensitivity: float


WORKLOADS = (
    Workload(
        "point_zipf",
        "Zipf-1.3 cell probes, 1 caller, 64-page pool vs 4000 row-pages: "
        "the paper's random-access claim; store, pool, pager, delta get only",
        pass_ops=20_000,
        trace_ops=5_000,
        speed_sensitivity=0.9,
    ),
    Workload(
        "adhoc_agg",
        "aggregates over arbitrary row sets x column ranges, never a full "
        "axis: the paper's ad hoc query; planner, fastpath, read_rows, "
        "delta select, no serving tier",
        pass_ops=200,
        trace_ops=200,
        speed_sensitivity=0.75,
    ),
    Workload(
        "http_mix",
        "2 clients against `repro serve --workers 2`: cells, rollup sums, "
        "group-bys, 20% heavy aggregates; overhead-dominated, summaries used",
        pass_ops=300,
        trace_ops=300,
        speed_sensitivity=0.65,
    ),
    Workload(
        "append_visible",
        "append 7 days, reopen, 200 aggregates (half on the new days), "
        "repeated: writes beside reads, so a read gain that taxes append "
        "or reopen shows",
        pass_ops=200,
        trace_ops=40,
        speed_sensitivity=0.6,
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(name)


# -- metrics ---------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: float | None = None
    #: The end-to-end metric and workload a per-layer metric should
    #: move ("none" = predicted no change there).
    moves: str = ""
    #: Repeats exactly for a seed when the code is unchanged;
    #: ``compare`` demands equality instead of a bound.
    exact: bool = False


# Bounds: about three times the widest between-run spread seen on
# ten runs with different seeds (README, "Baseline"); 0.25 is the most
# the driver allows, and the shared sandbox needs all of it.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "ops/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("answer_err_mean", "fraction", "lower", 0.25, exact=True),
    Metric("space_ratio", "fraction", "lower", 0.02, exact=True),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

_SETUP = "setup_s, all workloads"
_POINT_P50 = "latency_p50_ms on point_zipf; none on http_mix"
_AGG_P50 = (
    "latency_p50_ms and ops_per_s on adhoc_agg and append_visible, "
    "ops_per_s on http_mix (its heavy 20%); none on point_zipf"
)
_HTTP = (
    "latency_p50_ms and ops_per_s on http_mix; none on the three "
    "in-process workloads"
)
_APPEND = "ops_per_s on append_visible (a pass is append + reopen + reads)"
_TAIL = (
    "ops_per_s, by the tail's share of the time; a diagnostic, since a "
    "tail latency does not repeat within a tenth here"
)

PER_LAYER = (
    Metric("core.build.build_s", "s", "lower", moves=_SETUP),
    Metric("core.build.rows_per_s", "rows/s", "higher", moves=_SETUP),
    Metric(
        "core.store.open_ms", "ms", "lower",
        moves=_SETUP + "; ops_per_s on append_visible; none on steady-state latencies",
    ),
    Metric("core.store.open_mapped_ms", "ms", "lower", moves="setup_s on http_mix"),
    Metric("core.store.cell_us_p50", "us", "lower", moves=_POINT_P50),
    Metric(
        "core.store.reconstruct_range_ms_p50", "ms", "lower",
        moves="ops_per_s on adhoc_agg (stream-route ops, the slow half)",
    ),
    Metric(
        "core.store.space_fraction", "fraction", "lower",
        moves="space_ratio, all workloads", exact=True,
    ),
    Metric(
        "storage.matrix_store.read_rows_ms_p50", "ms", "lower",
        moves="latency_p50_ms on adhoc_agg; none on http_mix p50",
    ),
    Metric(
        "storage.matrix_store.pages_per_op", "pages/op", "lower",
        moves="latency_p50_ms on adhoc_agg", exact=True,
    ),
    Metric("storage.buffer_pool.hit_rate", "fraction", "higher", moves=_POINT_P50, exact=True),
    Metric("storage.buffer_pool.evictions_per_kop", "1/kop", "lower", moves=_POINT_P50, exact=True),
    Metric(
        "storage.buffer_pool.hit_rate_fit", "fraction", "higher",
        moves="the cache-fits case of point_zipf (pool >= rows)", exact=True,
    ),
    Metric(
        "storage.buffer_pool.bypass_share", "fraction", "lower",
        moves="latency_p50_ms on adhoc_agg", exact=True,
    ),
    Metric("storage.pager.reads_per_op", "reads/op", "lower", moves=_POINT_P50, exact=True),
    Metric("storage.pager.bytes_per_op", "bytes/op", "lower", moves=_POINT_P50, exact=True),
    Metric("core.delta_index.select_ms_p50", "ms", "lower", moves=_AGG_P50),
    Metric("core.delta_index.keys_probed_per_op", "keys/op", "lower", moves=_AGG_P50, exact=True),
    Metric("core.delta_index.useful_share", "fraction", "higher", moves=_AGG_P50, exact=True),
    Metric("core.delta_index.get_us_p50", "us", "lower", moves=_POINT_P50),
    Metric(
        "query.selection.resolve_us_p50", "us", "lower",
        moves="small share of latency_p50_ms on adhoc_agg",
    ),
    Metric(
        "plan.planner.plan_us_p50", "us", "lower",
        moves="latency_p50_ms on http_mix light aggregates; small share on adhoc_agg",
    ),
    Metric("plan.planner.route_share.summary", "fraction", "higher", moves=_HTTP, exact=True),
    Metric("plan.planner.route_share.summary_factor", "fraction", "higher", moves="none today", exact=True),
    Metric("plan.planner.route_share.factor", "fraction", "higher", moves=_AGG_P50, exact=True),
    Metric("plan.planner.route_share.stream", "fraction", "lower", moves=_AGG_P50, exact=True),
    Metric("plan.planner.route_share.svd", "fraction", "lower", moves="answer_err_mean if it ever rises above 0", exact=True),
    Metric(
        "plan.planner.pages_ratio_p50", "ratio", "lower",
        moves="none directly; predicted/measured pages, target 1", exact=True,
    ),
    Metric(
        "plan.planner.cost_ratio_p50", "ratio", "lower",
        moves="none directly; predicted/measured ms, target within 3x of 1",
    ),
    Metric("query.fastpath.factor_ms_p50", "ms", "lower", moves="latency_p50_ms on adhoc_agg"),
    Metric("query.fastpath.gather_share", "fraction", "lower", moves="latency_p50_ms on adhoc_agg"),
    Metric("query.fastpath.gemm_share", "fraction", "lower", moves="latency_p50_ms on adhoc_agg"),
    Metric("query.fastpath.delta_share", "fraction", "lower", moves="latency_p50_ms on adhoc_agg"),
    Metric(
        "query.fastpath.flops_per_op", "flops/op", "lower",
        moves="computed from n, m, k, not measured", exact=True,
    ),
    Metric(
        "query.fastpath.bytes_per_op", "bytes/op", "lower",
        moves="computed from n, m, k, not measured", exact=True,
    ),
    Metric("query.engine.execute_ms_p50", "ms", "lower", moves="latency_p50_ms on adhoc_agg; rung 1 of the http_mix ladder"),
    Metric("query.engine.execute_ms_p95", "ms", "lower", moves=_TAIL),
    Metric("query.engine.cell_us_p50", "us", "lower", moves=_POINT_P50),
    Metric("query.engine.cell_us_p95", "us", "lower", moves=_TAIL),
    Metric("query.engine.unattributed_share", "fraction", "lower", moves="latency_p50_ms on adhoc_agg"),
    Metric("summaries.store.try_summary_us_p50", "us", "lower", moves=_HTTP + "; none on adhoc_agg"),
    Metric("summaries.store.hit_share", "fraction", "higher", moves=_HTTP + "; none on adhoc_agg", exact=True),
    Metric("core.update.append_ms_p50", "ms", "lower", moves=_APPEND),
    Metric("core.update.visible_ms_p50", "ms", "lower", moves=_APPEND),
    Metric("core.update.append_norefresh_ms", "ms", "lower", moves=_APPEND),
    Metric("summaries.compute.refresh_ms", "ms", "lower", moves=_APPEND),
    Metric("summaries.compute.rebuild_ms", "ms", "lower", moves=_APPEND),
    Metric("core.update.drift_final", "fraction", "lower", moves="answer_err_mean on append_visible", exact=True),
    Metric("query.executor.overhead_us_p50", "us", "lower", moves=_HTTP),
    Metric("query.process_executor.ipc_us_p50", "us", "lower", moves=_HTTP),
    Metric("serve.robust.dispatch_overhead_us_p50", "us", "lower", moves=_HTTP),
    Metric("serve.server.http_overhead_us_p50", "us", "lower", moves=_HTTP),
    Metric("serve.server.http_ms_p50", "ms", "lower", moves="the ladder's top rung; the five self times sum to it"),
    Metric("query.process_executor.start_s", "s", "lower", moves="setup_s on http_mix"),
    Metric("serve.server.ready_s", "s", "lower", moves="setup_s on http_mix"),
    Metric("serve.admission.shed_share", "fraction", "lower", moves="failed count on http_mix"),
    Metric("serve.admission.queue_depth_max", "count", "lower", moves="ops_per_s on http_mix"),
    Metric("serve.server.latency_p95_ms", "ms", "lower", moves=_TAIL),
    Metric("serve.server.latency_p99_ms", "ms", "lower", moves=_TAIL),
    Metric("obs.trace_overhead_share", "fraction", "lower", moves="none; ROADMAP aim 4's budgeted quantity"),
    Metric("harness.timer_overhead_ns", "ns", "lower", moves="floor under point_zipf's latencies"),
    Metric(
        "harness.speed_factor", "ratio", "lower",
        moves="none; probe time / reference during the traced run, whose spans are raw",
    ),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def manifest(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` these tables correspond to."""
    return {
        "command": ["python3", "-m", "benchmarks.harness"],
        "paths": ["benchmarks/harness"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
