"""The four measured phases (untraced; ``repro.obs.registry`` stays off).

Every phase is a sequence of equal *passes* after one warm-up pass, run
until ``--seconds`` have been measured.  Passes cycle through
``OP_LISTS`` seeded op lists (so at least that many run); each pass is
cut into chunks timed through :class:`~.clock.Clock` and yields a
throughput, its own latency percentiles, the machine-speed factor that
applied and the share of CPU time stolen.  A metric is the median over
passes of the pass's figure brought to a quiet machine (see
:meth:`Run.metrics`), so one pass that met a noisy neighbour does not
move it.  Answers are recorded
in the timed loop and checked against the oracle afterwards.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.store import CompressedMatrix
from repro.core.update import append_columns
from repro.query.engine import QueryEngine

from . import model, ops, spec
from .clock import Clock, StealMeter
from .oracle import Oracle

#: ``time ~ factor^a * exp(STEAL_SENSITIVITY * stolen share)``, with
#: ``a`` the workload's ``speed_sensitivity`` (``spec.WORKLOADS``) or,
#: for a set-up, ``SETUP_SENSITIVITY``.  Constants fitted once over
#: forty runs a workload, not by each run over its own 10-35 passes:
#: those leave the exponent uncertain by 0.2 or more, and a run that
#: met a factor of 1.3 throughout then read 5-10% off for that alone
#: (``http_mix`` spread 11% corrected against 8% raw).
SETUP_SENSITIVITY = 0.8
STEAL_SENSITIVITY = 2.0

#: Distinct op lists per run.  ``answer_err_mean`` is taken over all of
#: them, each checked the first time it runs, so it repeats exactly for
#: a seed however many passes the time allows.
OP_LISTS = 5

_now = time.perf_counter_ns


@dataclass
class Run:
    """One workload run: the model on disk, then what the phase measured."""

    scale: model.Scale
    seed: int
    raw: np.ndarray
    scratch: Path
    #: The workload's ``speed_sensitivity``.
    sensitivity: float
    clock: Clock = field(default_factory=Clock)
    directory: Path = None
    #: ``(seconds, factor)`` of each full set-up.
    setups: list = field(default_factory=list)
    child: model.ServeChild | None = None
    child_exit_codes: list = field(default_factory=list)
    # Per pass, all raw: seconds per op, latency percentiles, the speed
    # factor met and the share of CPU time stolen.
    pass_s_per_op: list = field(default_factory=list)
    p50_ms: list = field(default_factory=list)
    p95_ms: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    stolen: list = field(default_factory=list)
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    #: Set by the traced run, whose replays check answers too.
    oracle: Oracle | None = None

    def add_pass(self, latencies_ns, segments, steal: StealMeter) -> None:
        """One pass: raw per-op latencies, the ``(seconds, factor)`` of
        each timed segment, and the meter started before the first."""
        latencies_ms = np.asarray(latencies_ns, dtype=np.float64) / 1e6
        self.stolen.append(steal.share())
        self.factors.append(_pass_factor(segments))
        self.pass_s_per_op.append(sum(raw for raw, _f in segments) / latencies_ms.size)
        self.p50_ms.append(float(np.percentile(latencies_ms, 50)))
        self.p95_ms.append(float(np.percentile(latencies_ms, 95)))
        self.samples += int(latencies_ms.size)

    def check(self, index: int, wrong, errors) -> None:
        """Count a pass's wrong answers; keep each op list's errors once."""
        self.attempted += int(np.size(wrong))
        self.failed += int(np.sum(wrong))
        if index < OP_LISTS:
            self.errors.append(np.asarray(errors, dtype=np.float64))

    def _on_a_quiet_machine(self, per_pass: list) -> float:
        """Median over passes of a per-pass time brought to speed
        factor 1 and no stolen CPU time."""
        slowdown = np.power(self.factors, self.sensitivity) * np.exp(
            STEAL_SENSITIVITY * np.asarray(self.stolen)
        )
        return float(np.median(np.asarray(per_pass) / slowdown))

    def metrics(self) -> dict:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        s_per_op = self._on_a_quiet_machine(self.pass_s_per_op)
        p50_ms = self._on_a_quiet_machine(self.p50_ms)
        self.extra.update(
            raw_ops_per_s=1.0 / statistics.median(self.pass_s_per_op),
            raw_latency_p50_ms=statistics.median(self.p50_ms),
            # A fact, not a metric: the tail does not repeat (README).
            raw_latency_p95_ms=statistics.median(self.p95_ms),
            raw_setup_s=statistics.median(raw for raw, _factor in self.setups),
            speed_factor=statistics.median(self.factors),
            stolen_share=statistics.median(self.stolen),
            speed_sensitivity=self.sensitivity,
        )
        return {
            "setup_s": float(
                statistics.median(
                    raw / factor**SETUP_SENSITIVITY for raw, factor in self.setups
                )
            ),
            "ops_per_s": 1.0 / s_per_op,
            "latency_p50_ms": p50_ms,
            "answer_err_mean": float(np.concatenate(self.errors).mean()),
            "space_ratio": self.extra["model_bytes"] / self.extra["data_bytes"],
            "peak_rss_mb": usage / 1024.0,
        }


# -- set-up ----------------------------------------------------------------


def set_up(run: Run, serve: bool):
    """Data-to-queryable, ``SETUP_REPEATS`` times; the last one is kept.

    Timed: ``build_compressed`` + ``CompressedMatrix.open`` (+ the serve
    child answering ``/healthz/ready``).  Returns the open store.
    """
    timed = run.clock.timed
    for attempt in range(spec.SETUP_REPEATS):
        directory = run.scratch / f"model-{attempt}"
        _none, raw, factor = timed(model.build, run.raw, directory)
        segments = [(raw, factor)]
        store, raw, factor = timed(CompressedMatrix.open, directory, spec.POOL_CAPACITY)
        segments.append((raw, factor))
        child = None
        if serve:
            child, raw, factor = timed(model.ServeChild, directory)
            segments.append((raw, factor))
        run.setups.append((sum(raw for raw, _f in segments), _pass_factor(segments)))
        if attempt < spec.SETUP_REPEATS - 1:
            store.close()
            if child is not None:
                run.child_exit_codes.append(child.stop())
            shutil.rmtree(directory)
    run.directory, run.child = directory, child
    run.extra["model_bytes"] = model.directory_bytes(directory)
    run.extra["data_bytes"] = run.raw.nbytes
    return store


def _measure(run: Run, seconds: float, one_pass) -> None:
    """Warm up once, then call ``one_pass(index)`` until time is up."""
    one_pass(-1)
    start = time.perf_counter()
    index = 0
    while index < OP_LISTS or time.perf_counter() - start < seconds:
        one_pass(index)
        index += 1
    run.extra["passes"] = index


def _pass_factor(segments) -> float:
    """Time-weighted geometric mean factor of ``(seconds, factor)`` segments."""
    seconds = np.array([raw for raw, _factor in segments])
    factors = np.array([factor for _raw, factor in segments])
    return float(np.exp(np.dot(np.log(factors), seconds) / seconds.sum()))


def _run_chunks(clock: Clock, chunks, do_chunk):
    """``do_chunk(chunk) -> (latencies_ns, output)`` over every chunk.

    Returns the raw latencies (concatenated), the outputs, and each
    chunk's ``(seconds, factor)``.
    """
    latencies, outputs, segments = [], [], []
    for chunk in chunks:
        (chunk_ns, output), raw, factor = clock.timed(do_chunk, chunk)
        latencies.append(chunk_ns)
        outputs.append(output)
        segments.append((raw, factor))
    return np.concatenate(latencies), outputs, segments


def _chunks(items, size: int) -> list:
    return [items[i : i + size] for i in range(0, len(items), size)]


# -- point_zipf ------------------------------------------------------------

_CELL_CHUNK = 500


def _cell_chunk(engine: QueryEngine):
    cell = engine.cell

    def do_chunk(probes):
        stamps = np.empty(len(probes) + 1, dtype=np.int64)
        got = np.full(len(probes), np.nan)
        stamps[0] = _now()
        for i, probe in enumerate(probes):
            try:
                got[i] = cell(probe).value
            except Exception:
                pass  # stays NaN: counted as failed by the oracle
            stamps[i + 1] = _now()
        return np.diff(stamps), got

    return do_chunk


def point_zipf(run: Run, seconds: float) -> None:
    store = set_up(run, serve=False)
    oracle = Oracle(run.raw, store.reconstruct_all())
    count = run.scale.ops(spec.workload("point_zipf").pass_ops)
    lists = []
    for index in range(OP_LISTS):
        rows, cols = ops.cell_ops(run.raw, run.seed, count, index)
        probes = list(zip(rows.tolist(), cols.tolist()))
        lists.append((_chunks(probes, _CELL_CHUNK), *oracle.cells(rows, cols)))
    do_chunk = _cell_chunk(QueryEngine(store))

    def one_pass(index: int) -> None:
        chunks, want_model, want_raw = lists[index % OP_LISTS]
        steal = StealMeter()
        latencies, outputs, segments = _run_chunks(run.clock, chunks, do_chunk)
        if index < 0:
            return
        got = np.concatenate(outputs)
        run.add_pass(latencies, segments, steal)
        run.check(index, oracle.wrong(got, want_model), oracle.cell_error(got, want_raw))

    _measure(run, seconds, one_pass)
    store.close()


# -- adhoc_agg -------------------------------------------------------------

_AGG_CHUNK = 5


def _aggregate_chunk(engine: QueryEngine):
    def do_chunk(queries):
        latencies = np.empty(len(queries), dtype=np.int64)
        values = np.full(len(queries), np.nan)
        bounds = np.zeros(len(queries))
        for i, query in enumerate(queries):
            start = _now()
            try:
                result = engine.aggregate(query)
                values[i] = result.value
                bounds[i] = result.error_bound or 0.0
            except Exception:
                pass  # stays NaN: counted as failed by the oracle
            latencies[i] = _now() - start
        return latencies, (values, bounds)

    return do_chunk


def _check_aggregates(run: Run, index: int, oracle: Oracle, agg, outputs) -> None:
    values = np.concatenate([v for v, _bounds in outputs])
    bounds = np.concatenate([b for _values, b in outputs])
    want_model, want_raw = oracle.aggregates(agg)
    run.check(
        index,
        oracle.wrong(values, want_model, bounds),
        oracle.aggregate_error(values, want_raw),
    )


def adhoc_agg(run: Run, seconds: float) -> None:
    store = set_up(run, serve=False)
    oracle = Oracle(run.raw, store.reconstruct_all())
    count = run.scale.ops(spec.workload("adhoc_agg").pass_ops)
    lists = []
    for index in range(OP_LISTS):
        agg = ops.agg_ops(run.seed, run.raw.shape, count, index)
        lists.append((agg, _chunks([op.query() for op in agg], _AGG_CHUNK)))
    do_chunk = _aggregate_chunk(QueryEngine(store))

    def one_pass(index: int) -> None:
        agg, chunks = lists[index % OP_LISTS]
        steal = StealMeter()
        latencies, outputs, segments = _run_chunks(run.clock, chunks, do_chunk)
        if index < 0:
            return
        run.add_pass(latencies, segments, steal)
        _check_aggregates(run, index, oracle, agg, outputs)

    _measure(run, seconds, one_pass)
    store.close()


# -- http_mix --------------------------------------------------------------

_HTTP_CHUNK = 25


def fetch_all(child: model.ServeChild, requests):
    """GET each request in turn; ``(latencies_ns, [(status, body)])``."""
    latencies = np.empty(len(requests), dtype=np.int64)
    replies = []
    for i, request in enumerate(requests):
        start = _now()
        try:
            reply = child.get(request.path)
        except OSError:
            reply = (-1, b"")
        latencies[i] = _now() - start
        replies.append(reply)
    return latencies, replies


def check_replies(oracle: Oracle, requests, replies) -> tuple[np.ndarray, np.ndarray]:
    """``(wrong, raw errors)`` for one client's HTTP replies."""
    wrong = np.ones(len(requests), dtype=bool)
    errors = np.zeros(len(requests))
    for i, (request, (status, body)) in enumerate(zip(requests, replies)):
        try:
            payload = json.loads(body) if status == 200 else None
        except ValueError:
            payload = None
        if payload is None:
            continue
        if request.kind == "groupby":
            want_model, want_raw = oracle.series(payload["edges"])
            got = np.asarray(payload["values"])
            if got.shape == want_model.shape:
                wrong[i] = oracle.wrong(got, want_model).any()
                errors[i] = oracle.aggregate_error(got, want_raw).max()
            continue
        got = payload["value"]
        bound = payload.get("error_bound") or payload.get("rmspe_estimate") or 0.0
        if request.kind == "cell":
            want_model, want_raw = oracle.cells(*request.op)
            errors[i] = oracle.cell_error(got, want_raw)
        else:
            want_model, want_raw = oracle.aggregate(request.op)
            errors[i] = oracle.aggregate_error(got, want_raw)
        wrong[i] = oracle.wrong(got, want_model, bound)
    return wrong, errors


def run_clients(per_client, fetch):
    """Closed loop: each client thread sends its own list through
    ``fetch(slot, requests)``; returns the clients' results."""
    results = [None] * len(per_client)

    def client(slot: int) -> None:
        results[slot] = fetch(slot, per_client[slot])

    threads = [
        threading.Thread(target=client, args=(slot,)) for slot in range(len(per_client))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def stop_child(run: Run) -> None:
    """SIGTERM the serve child; a non-zero exit fails the run."""
    if run.child is not None:
        run.child_exit_codes.append(run.child.stop())
        run.child = None


def http_mix(run: Run, seconds: float) -> None:
    store = set_up(run, serve=True)
    try:
        oracle = Oracle(run.raw, store.reconstruct_all())
        store.close()
        count = run.scale.ops(spec.workload("http_mix").pass_ops)
        lists = [ops.client_requests(run.raw, run.seed, count, i) for i in range(OP_LISTS)]

        def do_chunk(slices):
            results = run_clients(slices, lambda _slot, reqs: fetch_all(run.child, reqs))
            return np.concatenate([lat for lat, _replies in results]), results

        def one_pass(index: int) -> None:
            per_client = lists[index % OP_LISTS]
            # A chunk is the same slice of every client's list, sent
            # concurrently; the probe runs between chunks, server idle.
            chunks = list(zip(*(_chunks(requests, _HTTP_CHUNK) for requests in per_client)))
            steal = StealMeter()
            latencies, outputs, segments = _run_chunks(run.clock, chunks, do_chunk)
            if index < 0:
                return
            run.add_pass(latencies, segments, steal)
            wrong, errors = [], []
            for slot, requests in enumerate(per_client):
                replies = [r for results in outputs for r in results[slot][1]]
                checked = check_replies(oracle, requests, replies)
                wrong.append(checked[0])
                errors.append(checked[1])
            run.check(index, np.concatenate(wrong), np.concatenate(errors))

        _measure(run, seconds, one_pass)
    finally:
        stop_child(run)


# -- append_visible --------------------------------------------------------

_READ_CHUNK = 10


def append_visible(run: Run, seconds: float) -> None:
    store = set_up(run, serve=False)
    engine = QueryEngine(store)
    do_chunk = _aggregate_chunk(engine)
    count = run.scale.ops(spec.workload("append_visible").pass_ops)
    state = {"raw": run.raw, "store": store, "batch": 0}
    append_ms, visible_ms = [], []

    def one_pass(index: int) -> None:
        batch = state["batch"]
        new = ops.next_days(state["raw"], run.seed, batch)
        raw = np.concatenate([state["raw"], new], axis=1)
        reads = ops.agg_ops(run.seed, raw.shape, count, batch, fresh_cols=spec.APPEND_DAYS)
        chunks = _chunks([op.query() for op in reads], _READ_CHUNK)

        steal = StealMeter()
        _result, append_s, factor = run.clock.timed(append_columns, run.directory, new)
        written = [(append_s, factor)]
        fresh, reopen_s, factor = run.clock.timed(state["store"].reopen)
        written.append((reopen_s, factor))
        engine.refresh(fresh)
        latencies, outputs, segments = _run_chunks(run.clock, chunks, do_chunk)

        state["store"].close()
        state.update(raw=raw, store=fresh, batch=batch + 1)
        if index < 0:
            return
        run.add_pass(latencies, written + segments, steal)
        _check_aggregates(run, index, Oracle(raw, fresh.reconstruct_all()), reads, outputs)
        if index == OP_LISTS - 1:
            # Sized at a fixed pass, so space_ratio repeats for a seed.
            run.extra["model_bytes"] = model.directory_bytes(run.directory)
            run.extra["data_bytes"] = raw.nbytes
        append_ms.append(append_s * 1e3)
        # Op 0 covers the newest day: the first answer a reader of the
        # fresh data gets.
        visible_ms.append((append_s + reopen_s) * 1e3 + latencies[0] / 1e6)

    _measure(run, seconds, one_pass)
    state["store"].close()
    run.extra["raw_append_p50_ms"] = statistics.median(append_ms)
    run.extra["raw_visible_p50_ms"] = statistics.median(visible_ms)


PHASES = {
    "point_zipf": point_zipf,
    "adhoc_agg": adhoc_agg,
    "http_mix": http_mix,
    "append_visible": append_visible,
}
