"""Serving tier under offered load: admitted latency and shed rate.

Drives a real ``python -m repro serve`` child (HTTP over a loopback
socket, every answer computed in its handler threads) at 1x / 4x / 16x
its *measured* sequential capacity and records, per load level, the
admitted-request latency distribution (p50/p95/p99), the shed rate and
the replies per second the level actually saw.

The server is a child process so that the 64 client threads do not
share its GIL: handler threads compute, so for a client in the same
process "1x the sequential rate" *is* GIL saturation (1x read p50
95-113 ms in process; the same server answers the same rate from
another process at p50 ~1 ms).

What this bench can and cannot claim.  The server answers overload by
shedding (503 + ``Retry-After``): asserted, at 16x.  That a bounded
admission queue bounds the latency of what it admits is **not met**
(nor was it with the process pool this tier used until PR 22): past
saturation admitted p99 reads 70-120 ms against an unloaded 1-5 ms,
set by these 64 clients times the service time, not by
``max_queue_depth``.  Requests wait for the GIL *before* admission,
where a depth bound cannot see them (ROADMAP 4(d)), so the p99
assertion below only ever holds on its absolute floor, never on the
multiple of the unloaded p99.  It stays as the guard against
unbounded growth.

Load is generated open-loop: requests are launched on a schedule
derived from the offered rate, regardless of how fast earlier ones
complete — the arrival pattern that actually produces queueing — up to
the 64 client threads, past which the schedule slips (``replies/s``
is what was achieved).
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro
from benchmarks.conftest import emit, emit_json, format_table
from repro.core import CompressedMatrix, SVDDCompressor
from repro.obs import Histogram
from repro.obs.bench import latency_summary_ms

LOAD_MULTIPLIERS = (1, 4, 16)
#: Sequential requests used to measure capacity and unloaded latency.
CALIBRATION_REQUESTS = 60
#: Wall-clock per load level.
LEVEL_DURATION_S = 2.5
#: Cap on requests per level so 16x on a fast machine stays bounded.
MAX_REQUESTS_PER_LEVEL = 800
#: Admitted p99 under 16x load may be at most this multiple of the
#: unloaded p99 ...
P99_BLOWUP_CEILING = 3.0
#: ... or this absolute bound, whichever is larger (shared CI runners
#: jitter individual request latencies far more than a local box).
P99_ABSOLUTE_FLOOR_MS = 250.0

#: The benched route: a factor-path aggregate, the paper's ad hoc
#: query shape (Section 5.2).
ROUTE = "/aggregate?fn=avg&rows=0:120&cols=0:80"
WORKERS = 2
MAX_QUEUE_DEPTH = 8


@contextlib.contextmanager
def _serve_child(model_dir: Path):
    """``python -m repro serve`` on a free port; yields its base URL.
    SIGTERM on exit must drain and exit 0."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        PYTHONUNBUFFERED="1",
    )
    child = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(model_dir),
            "--port", "0",
            "--workers", str(WORKERS),
            "--max-queue-depth", str(MAX_QUEUE_DEPTH),
            "--default-timeout-ms", "30000",
            # Measure shedding, not degradation.
            "--brownout-sheds", str(10**6),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        # "serving <dir> on http://127.0.0.1:<port>  (routes: ...)"
        base = child.stdout.readline().split(" on ")[1].split()[0]
        while _request(base + "/healthz/ready")[0] != 200:
            time.sleep(0.01)
        yield base
    finally:
        child.send_signal(signal.SIGTERM)
        try:
            code = child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            code = child.wait()
        child.stdout.close()
    assert code == 0, f"repro serve exited {code} on SIGTERM"


def _request(url: str, timeout: float = 30.0) -> tuple[int, float]:
    """(status, latency_seconds) for one GET; 503 is an answer, not
    an error."""
    begin = time.perf_counter()
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            status = resp.status
            resp.read()
    except urllib.error.HTTPError as error:
        status = error.code
        error.read()
    return status, time.perf_counter() - begin


def _drive_open_loop(
    base: str, offered_qps: float, duration_s: float
) -> tuple[list[tuple[int, float]], float]:
    """Launch requests at ``offered_qps`` for ``duration_s``; returns
    the (status, latency) pairs and the replies (200 or 503) per second
    over the level's wall-clock."""
    total = min(MAX_REQUESTS_PER_LEVEL, max(1, int(offered_qps * duration_s)))
    interval = 1.0 / offered_qps
    outcomes: list[tuple[int, float]] = []
    lock = threading.Lock()

    def one() -> None:
        outcome = _request(base + ROUTE)
        with lock:
            outcomes.append(outcome)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=64) as clients:
        for index in range(total):
            # Open loop: launch at the scheduled instant even if prior
            # requests are still in flight.
            target = start + index * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            clients.submit(one)
    return outcomes, total / (time.perf_counter() - start)


def test_serving_latency_under_offered_load(
    tmp_path_factory, phone2000, benchmark
) -> None:
    root = tmp_path_factory.mktemp("serving")
    model = SVDDCompressor(budget_fraction=0.10).fit(phone2000)
    CompressedMatrix.save(model, root / "model").close()

    with _serve_child(root / "model") as base:
        # Warm: page in the U spans this route reads.
        for _ in range(8):
            status, _latency = _request(base + ROUTE)
            assert status == 200

        # Calibrate: sequential requests measure single-client capacity
        # and the unloaded latency distribution.
        unloaded = Histogram()
        start = time.perf_counter()
        for _ in range(CALIBRATION_REQUESTS):
            status, latency = _request(base + ROUTE)
            assert status == 200
            unloaded.observe(latency * 1e9)
        capacity_qps = CALIBRATION_REQUESTS / (time.perf_counter() - start)
        unloaded_p99_ms = (unloaded.quantile(0.99) or 0.0) / 1e6

        levels: dict[int, dict] = {}
        for multiplier in LOAD_MULTIPLIERS:
            outcomes, replies_per_s = _drive_open_loop(
                base, capacity_qps * multiplier, LEVEL_DURATION_S
            )
            admitted = Histogram()
            shed = 0
            for status, latency in outcomes:
                if status == 200:
                    admitted.observe(latency * 1e9)
                elif status == 503:
                    shed += 1
                else:
                    raise AssertionError(
                        f"unexpected status {status} at {multiplier}x load"
                    )
            levels[multiplier] = {
                "requests": len(outcomes),
                "replies_per_s": replies_per_s,
                "shed": shed,
                "shed_rate": shed / len(outcomes),
                "admitted_ms": latency_summary_ms(admitted),
            }

        status, _latency = _request(base + "/stats")
        assert status == 200

        benchmark(lambda: _request(base + ROUTE))

    rows = []
    for multiplier, level in levels.items():
        summary = level["admitted_ms"]
        rows.append(
            [
                f"{multiplier}x",
                str(level["requests"]),
                f"{level['replies_per_s']:,.0f}",
                f"{level['shed_rate'] * 100:.1f}%",
                f"{summary['p50_ms']:.1f}",
                f"{summary['p95_ms']:.1f}",
                f"{summary['p99_ms']:.1f}",
            ]
        )
    lines = format_table(
        f"Admitted latency vs offered load "
        f"(capacity {capacity_qps:,.0f} q/s, queue depth "
        f"{MAX_QUEUE_DEPTH}, {WORKERS} gather slots, server in a child process)",
        ["load", "requests", "replies/s", "shed", "p50 ms", "p95 ms", "p99 ms"],
        rows,
    )
    lines.append("")
    lines.append(f"unloaded p99: {unloaded_p99_ms:.1f} ms")
    emit("serving", lines)
    emit_json(
        "serving",
        params={
            "dataset": "phone2000",
            "budget_fraction": 0.10,
            "route": ROUTE,
            "workers": WORKERS,
            "max_queue_depth": MAX_QUEUE_DEPTH,
            "load_multipliers": list(LOAD_MULTIPLIERS),
            "level_duration_s": LEVEL_DURATION_S,
        },
        metrics={
            "capacity_qps": round(capacity_qps, 1),
            "unloaded_p99_ms": round(unloaded_p99_ms, 3),
            **{
                f"shed_rate_{multiplier}x": round(level["shed_rate"], 4)
                for multiplier, level in levels.items()
            },
            **{
                f"replies_per_s_{multiplier}x": round(level["replies_per_s"], 1)
                for multiplier, level in levels.items()
            },
            "latency_ms": {
                f"admitted_{multiplier}x": level["admitted_ms"]
                for multiplier, level in levels.items()
            },
        },
    )

    # Overload sheds instead of queueing: at 16x offered load the
    # bounded queue must actually turn requests away.
    assert levels[16]["shed"] > 0, "no shedding at 16x offered load"
    # And the requests it does admit stay fast: bounded queue depth
    # bounds the queueing delay an admitted request can absorb.
    p99_16x = levels[16]["admitted_ms"]["p99_ms"]
    ceiling = max(P99_BLOWUP_CEILING * unloaded_p99_ms, P99_ABSOLUTE_FLOOR_MS)
    assert p99_16x <= ceiling, (
        f"admitted p99 at 16x load is {p99_16x:.1f} ms, "
        f"over the {ceiling:.1f} ms ceiling"
    )
