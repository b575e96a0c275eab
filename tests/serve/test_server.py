"""QueryServer over real sockets: routes, errors, overload, chaos, drain.

The robustness acceptance tests live here:

- adversarial query text through the HTTP parser boundary must come
  back as structured 400s — never a 500, never a traceback;
- a worker killed mid-traffic must cost zero non-deadline 5xx once the
  pool rebuilds;
- overload must shed with 503 + ``Retry-After`` instead of queueing
  without bound;
- SIGTERM must drain in-flight requests and exit 0.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs.serve import BaseEndpointHandler
from repro.query.process_executor import _CrashProbe
from repro.serve.config import ServeConfig
from repro.serve.server import QueryServer


def _get(base: str, path: str, timeout: float = 30.0):
    """(status, headers, parsed-or-raw body) for one GET, errors included."""
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as resp:
            body = resp.read()
            headers = dict(resp.headers)
            status = resp.status
    except urllib.error.HTTPError as error:
        body = error.read()
        headers = dict(error.headers)
        status = error.code
    if "json" in headers.get("Content-Type", ""):
        return status, headers, json.loads(body)
    return status, headers, body


@pytest.fixture(scope="module")
def server(serve_model_dir):
    config = ServeConfig(
        port=0,
        workers=2,
        max_queue_depth=32,
        default_timeout_ms=15_000,
        brownout_sheds=10_000,
        breaker_failures=10_000,
    )
    with QueryServer(serve_model_dir, config) as srv:
        yield srv


class TestRoutes:
    def test_query_round_trip(self, server):
        text = urllib.parse.quote("avg() rows 0:40 cols 0:25")
        status, _headers, payload = _get(server.url, f"/query?q={text}")
        assert status == 200
        assert payload["degraded"] is False
        assert payload["cells"] == 40 * 25

    def test_cell_route(self, server):
        status, _headers, payload = _get(server.url, "/cell?row=3&col=7")
        assert status == 200
        assert payload["cells"] == 1

    def test_aggregate_route(self, server):
        status, _headers, payload = _get(
            server.url, "/aggregate?fn=sum&rows=0:10&cols=0:10"
        )
        assert status == 200
        assert payload["cells"] == 100

    def test_explain_route(self, server):
        # Full-axis selection: covered by the rollups → summary route.
        text = urllib.parse.quote("stddev() rows 0:10")
        status, _headers, plan = _get(server.url, f"/explain?q={text}")
        assert status == 200
        assert plan["path"] == "summary"
        assert plan["mode"] == "healthy"
        # Sub-rectangle: summaries cannot cover it → factor route.
        text = urllib.parse.quote("stddev() rows 0:10 cols 0:10")
        status, _headers, plan = _get(server.url, f"/explain?q={text}")
        assert status == 200
        assert plan["path"] == "factor"
        assert plan["error_bound"] == 0.0

    def test_stats_route(self, server):
        status, _headers, stats = _get(server.url, "/stats")
        assert status == 200
        assert stats["breaker_state"] == "closed"
        assert stats["workers"] == 2
        assert stats["admitted_total"] >= 1

    def test_stats_split_answers_by_side(self, server):
        before = _get(server.url, "/stats")[2]
        _get(server.url, "/cell?row=3&col=7")
        _get(server.url, "/aggregate?fn=sum&cols=0:10")
        _get(server.url, "/aggregate?fn=sum&rows=0:10&cols=0:10")
        after = _get(server.url, "/stats")[2]
        assert after["parent_answers"] == before["parent_answers"] + 2
        assert after["pool_answers"] == before["pool_answers"] + 1
        text = urllib.parse.quote("sum() rows 0:10 cols 0:10")
        assert _get(server.url, f"/explain?q={text}")[2]["executes_in"] == "pool"

    def test_metrics_route_validates(self, server):
        from repro.obs.export import validate_openmetrics

        _get(server.url, "/cell?row=3&col=7")
        _get(server.url, "/aggregate?fn=sum&rows=0:10&cols=0:10")
        status, headers, body = _get(server.url, "/metrics")
        assert status == 200
        assert "openmetrics" in headers["Content-Type"]
        text = body.decode()
        assert text.rstrip().endswith("# EOF")
        assert "server_admitted" in text
        families = validate_openmetrics(text)
        assert "repro_server_answers_parent" in families
        assert "repro_server_answers_pool" in families

    def test_health_split(self, server):
        assert _get(server.url, "/healthz")[0] == 200
        assert _get(server.url, "/healthz")[2] == b"ok\n"
        assert _get(server.url, "/healthz/live")[0] == 200
        assert _get(server.url, "/healthz/ready")[0] == 200

    def test_unknown_route_is_404(self, server):
        status, _headers, payload = _get(server.url, "/nope")
        assert status == 404
        assert payload["error"] == "not_found"


class TestErrorContract:
    def test_out_of_range_is_400(self, server):
        status, _headers, payload = _get(server.url, "/cell?row=999999&col=0")
        assert status == 400
        assert payload["error"] == "bad_request"

    def test_missing_params_are_400(self, server):
        for path in ("/query", "/cell", "/cell?row=1", "/aggregate"):
            status, _headers, payload = _get(server.url, path)
            assert status == 400, path
            assert payload["error"] == "bad_request"

    def test_non_numeric_cell_is_400(self, server):
        status, _headers, _payload = _get(server.url, "/cell?row=abc&col=0")
        assert status == 400

    def test_bad_timeout_is_400(self, server):
        for bad in ("banana", "-5", "0", "nan", "inf", "-inf"):
            status, _headers, payload = _get(
                server.url, f"/cell?row=1&col=1&timeout_ms={bad}"
            )
            assert status == 400, bad
            assert payload["error"] == "bad_request"
        # The header spelling goes through the same check.
        request = urllib.request.Request(
            server.url + "/cell?row=1&col=1", headers={"X-Repro-Deadline-Ms": "nan"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=st.text(max_size=80))
    def test_fuzzed_query_text_never_500s(self, server, text):
        """Arbitrary text through the parser boundary: 200 or 400, and
        the body is structured JSON — never a traceback."""
        quoted = urllib.parse.quote(text, safe="")
        status, _headers, payload = _get(server.url, f"/query?q={quoted}")
        assert status in (200, 400)
        assert isinstance(payload, dict)
        if status == 400:
            assert payload["error"] == "bad_request"
            assert "Traceback" not in payload["message"]

    @pytest.mark.parametrize(
        "hostile",
        [
            "cell(1,1); import os",
            "sum() rows 0:999999999999999999999",
            "cell(-1, -1)",
            "cell(999999999999, 0)",
            "%00%01%02",
            "avg() rows cols",
            "a" * 500,
            "cell(1.5, 2.5)",
            "sum() rows 5:5",
        ],
    )
    def test_adversarial_queries_are_400(self, server, hostile):
        quoted = urllib.parse.quote(hostile, safe="")
        status, _headers, payload = _get(server.url, f"/query?q={quoted}")
        assert status == 400
        assert payload["error"] == "bad_request"


class TestOverload:
    def test_shed_responses_carry_retry_after(self, serve_model_dir):
        """Tiny admission ceiling + a thundering herd: every response
        is 200 or 503-with-Retry-After, and sheds actually occur."""
        config = ServeConfig(
            port=0,
            workers=1,
            max_queue_depth=1,
            retry_after_s=3.0,
            default_timeout_ms=15_000,
            brownout_sheds=10_000,
            breaker_failures=10_000,
        )
        with QueryServer(serve_model_dir, config) as srv:
            outcomes: list[tuple[int, dict]] = []
            lock = threading.Lock()

            def blast():
                # A gather (full on neither axis) holds its ticket for
                # a pool round-trip; a rollup hit would be a 100 us window.
                status, headers, _body = _get(
                    srv.url, "/aggregate?fn=stddev&rows=0:60&cols=0:30", timeout=30.0
                )
                with lock:
                    outcomes.append((status, headers))

            for _round in range(5):
                threads = [
                    threading.Thread(target=blast) for _ in range(12)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if any(status == 503 for status, _ in outcomes):
                    break
            statuses = {status for status, _ in outcomes}
            assert statuses <= {200, 503}
            assert 503 in statuses, "no shed under 12x concurrency at depth 1"
            for status, headers in outcomes:
                if status == 503:
                    assert headers.get("Retry-After") == "3"
            status, _headers, stats = _get(srv.url, "/stats")
            assert stats["shed_total"] >= 1
            # Shed counters made it to the exported metrics too.
            _status, _headers, body = _get(srv.url, "/metrics")
            assert "server_shed" in body.decode()


class TestChaos:
    def test_worker_kill_yields_no_non_deadline_5xx(self, serve_model_dir):
        """Kill a worker mid-traffic; after the rebuild every response
        is 200/503/504 — the crash never leaks a 500 to a client."""
        config = ServeConfig(
            port=0,
            workers=2,
            max_queue_depth=64,
            default_timeout_ms=30_000,
            brownout_sheds=10_000,
            breaker_failures=10_000,
        )
        with QueryServer(serve_model_dir, config) as srv:
            statuses: list[int] = []
            lock = threading.Lock()
            stop = threading.Event()

            def traffic():
                while not stop.is_set():
                    status, _headers, _body = _get(
                        srv.url, "/aggregate?fn=sum&rows=0:40&cols=0:25", timeout=60.0
                    )
                    with lock:
                        statuses.append(status)

            threads = [threading.Thread(target=traffic) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                # Kill real worker processes through the real dispatch
                # path, twice, with traffic in flight.
                for _ in range(2):
                    with pytest.raises(Exception):
                        srv.dispatcher.executor.submit(_CrashProbe()).result(
                            timeout=60
                        )
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
            assert statuses, "no traffic completed during the chaos window"
            bad = [s for s in statuses if s not in (200, 503, 504)]
            assert not bad, f"non-deadline 5xx leaked: {bad}"
            # And the server still answers healthily afterwards.
            status, _headers, payload = _get(srv.url, "/cell?row=1&col=1")
            assert status == 200
            assert payload["degraded"] is False


class TestDrain:
    def test_stop_flips_readiness_and_sheds(self, serve_model_dir):
        config = ServeConfig(
            port=0, workers=1, drain_grace_s=2.0, brownout_sheds=10_000
        )
        srv = QueryServer(serve_model_dir, config).start()
        url = srv.url
        assert _get(url, "/healthz/ready")[0] == 200
        srv.request_shutdown()
        # Readiness flips immediately, before the drain completes.
        assert _get(url, "/healthz/ready")[0] == 503
        assert srv.serve_until_shutdown(duration_s=5.0) is True
        srv.stop()  # idempotent

    def test_double_stop_is_safe(self, serve_model_dir):
        config = ServeConfig(port=0, workers=1)
        srv = QueryServer(serve_model_dir, config).start()
        srv.stop()
        srv.stop()

    def test_silent_connection_is_closed_and_does_not_stall_stop(
        self, serve_model_dir, monkeypatch
    ):
        """A client that connects and sends nothing is timed out by the
        handler's read timeout; it neither pins a handler thread nor
        holds stop() to the drain grace."""
        monkeypatch.setattr(BaseEndpointHandler, "timeout", 0.3)
        config = ServeConfig(port=0, workers=1, drain_grace_s=5.0)
        srv = QueryServer(serve_model_dir, config).start()
        try:
            with socket.create_connection((config.host, srv.port), timeout=5.0) as silent:
                assert silent.recv(1) == b""  # the server hung up first
            with socket.create_connection((config.host, srv.port), timeout=5.0):
                # In flight from the hand-off, before any byte arrives.
                deadline = time.monotonic() + 5.0
                while srv._server.active_requests == 0 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert srv._server.active_requests == 1
                start = time.monotonic()
                srv.stop()
                assert time.monotonic() - start < config.drain_grace_s
        finally:
            srv.stop()


class TestHandlerThreads:
    def test_sequential_requests_reuse_a_handler(self, serve_model_dir):
        """Handlers accept for themselves and the one that takes the
        last idle slot starts a standby, so a sequential client is
        served by one handler plus that standby."""
        threads_before = threading.active_count()
        config = ServeConfig(port=0, workers=1)
        with QueryServer(serve_model_dir, config) as srv:
            for i in range(50):
                assert _get(srv.url, f"/cell?row={i}&col=1")[0] == 200
            # The next connection can arrive a moment before the last
            # handler marks itself idle: one spare at most, plus the
            # standby.
            assert 1 <= srv._server.handler_threads <= 3
        # stop() joined the handlers (there is no accept-loop thread)
        # and the pool's threads.
        assert threading.active_count() <= threads_before

    def test_health_answers_while_every_handler_is_blocked(
        self, serve_model_dir, monkeypatch
    ):
        """No handler count is configured: a probe arriving while all
        handlers sit in slow gathers is accepted by the standby — which
        starts the next standby before it answers (4 blocked + the
        probe's handler + one standby)."""
        config = ServeConfig(port=0, workers=1, default_timeout_ms=30_000)
        with QueryServer(serve_model_dir, config) as srv:
            release = threading.Event()
            dispatch = srv.dispatcher.dispatch

            def slow_gather(query, timeout_ms=None):
                release.wait(timeout=30.0)
                return dispatch(query, timeout_ms=timeout_ms)

            monkeypatch.setattr(srv.dispatcher, "dispatch", slow_gather)
            statuses: list[int] = []
            clients = [
                threading.Thread(
                    target=lambda: statuses.append(
                        _get(srv.url, "/aggregate?fn=sum&rows=0:40&cols=0:25")[0]
                    )
                )
                for _ in range(4)
            ]
            for client in clients:
                client.start()
            try:
                deadline = time.monotonic() + 10.0
                while srv._server.active_requests < 4 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert srv._server.active_requests == 4
                assert _get(srv.url, "/healthz/ready", timeout=5.0)[0] == 200
                assert srv._server.handler_threads == 6
            finally:
                release.set()
                for client in clients:
                    client.join(timeout=30.0)
            assert not any(client.is_alive() for client in clients)
            assert statuses == [200] * 4
