"""QueryServer over real sockets: routes, errors, overload, chaos, drain.

The robustness acceptance tests live here:

- adversarial query text through the HTTP parser boundary must come
  back as structured 400s — never a 500, never a traceback;
- a storage fault under one request is that request's typed 500 and
  nobody else's;
- overload must shed with 503 + ``Retry-After`` instead of queueing
  without bound, and an answer computed past its deadline is a 504,
  never a late 200;
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

from repro.exceptions import StorageError
from repro.obs.serve import BaseEndpointHandler
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


def _settle(server, timeout: float = 10.0) -> None:
    """Wait until no connection is in flight.  A handler re-counts
    itself idle a moment *after* its client sees the reply or the
    hang-up, so a test that counts connections or handlers waits the
    last one out first."""
    deadline = time.monotonic() + timeout
    while server.active_requests and time.monotonic() < deadline:
        time.sleep(0.0005)
    assert server.active_requests == 0


@pytest.fixture(scope="module")
def server(serve_model_dir):
    config = ServeConfig(
        port=0,
        workers=2,
        max_queue_depth=32,
        default_timeout_ms=15_000,
        brownout_sheds=10_000,
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
        # Every row: covered by the per-day profile → summary route.
        text = urllib.parse.quote("stddev() cols 0:10")
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
        assert stats["workers"] == 2
        assert stats["admitted_total"] >= 1
        assert stats["brownout"] is False and stats["draining"] is False
        gone = ("breaker", "pool_", "parent_", "worker_metrics")
        assert not [key for key in stats if key.startswith(gone)]

    def test_stats_count_answers_and_gathers(self, server):
        before = _get(server.url, "/stats")[2]
        _get(server.url, "/cell?row=3&col=7")
        _get(server.url, "/aggregate?fn=sum&cols=0:10")
        _get(server.url, "/aggregate?fn=sum&rows=0:10&cols=0:10")
        after = _get(server.url, "/stats")[2]
        assert after["answers"] == before["answers"] + 3
        assert after["gathers"] == before["gathers"] + 1
        text = urllib.parse.quote("sum() rows 0:10 cols 0:10")
        assert "executes_in" not in _get(server.url, f"/explain?q={text}")[2]

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
        assert "repro_server_answers" in families
        assert "repro_server_gathers" in families

    def test_gathers_leave_their_spans_on_metrics(
        self, stale_model_dir, enabled_registry
    ):
        """One gather on each gathering route, computed in this
        process: its engine spans are in the registry ``/metrics``
        scrapes, and the 200 names its trace."""
        from repro.obs.export import validate_openmetrics

        config = ServeConfig(port=0, workers=2, brownout_sheds=10_000)
        with QueryServer(stale_model_dir, config) as srv:
            enabled_registry.reset()  # drop the warm-up's spans
            for query, route in (
                ("fn=sum&rows=0:10&cols=0:10", "factor"),
                ("fn=min&rows=0:10&cols=0:10", "stream"),
                ("fn=min", "stream"),
            ):
                status, _headers, payload = _get(srv.url, f"/aggregate?{query}")
                assert (status, payload["route"]) == (200, route)
                assert len(payload["trace_id"]) == 16
            text = _get(srv.url, "/metrics")[2].decode()
        assert {
            "repro_span_query_aggregate",
            "repro_span_query_factor_gather",
            "repro_span_query_factor_gemm",
            "repro_span_query_factor_delta",
            "repro_span_query_stream_scan",
            "repro_span_store_read_rows",
        } <= set(validate_openmetrics(text))
        counts = dict(
            line.split() for line in text.splitlines() if "_count " in line
        )
        assert counts["repro_span_query_aggregate_count"] == "3"
        assert counts["repro_span_query_factor_gather_count"] == "1"
        assert counts["repro_span_query_factor_gemm_count"] == "1"
        assert counts["repro_span_query_factor_delta_count"] == "1"
        assert counts["repro_span_query_stream_scan_count"] == "2"
        assert counts["repro_span_store_read_rows_count"] == "3"

    def test_snapshot_route_feeds_repro_top(self, serve_model_dir, enabled_registry):
        """``repro top`` polls ``/snapshot``: the query server answers it
        with the registry its own requests record into."""
        from repro.cli import format_top_frame

        config = ServeConfig(port=0, workers=1, brownout_sheds=10_000)
        with QueryServer(serve_model_dir, config) as srv:
            enabled_registry.reset()  # drop the warm-up's spans
            assert _get(srv.url, "/cell?row=3&col=7")[0] == 200
            status, headers, snapshot = _get(srv.url, "/snapshot")
        assert status == 200
        assert "json" in headers["Content-Type"]
        assert snapshot["histograms"]["span.query.cell"]["count"] == 1
        frame = format_top_frame(snapshot)
        assert "span.query.cell" in frame
        assert "1 queries total" in frame
        assert "queue depth 0   shed 0 total   brownout off" in frame

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

    @pytest.mark.parametrize(
        "row,status,message",
        [
            ("-1", 400, "row -1 out of range [0, 80)"),
            ("+3", 200, None),  # int() takes a sign ...
            (" 5", 200, None),  # ... and surrounding blanks
            ("1e3", 400, "row/col must be integers, got row='1e3' col='2'"),
            (
                "99999999999999999999",
                400,
                "row 99999999999999999999 out of range [0, 80)",
            ),
        ],
        ids=["minus-one", "plus-three", "blank-five", "1e3", "twenty-digits"],
    )
    def test_cell_index_errors_say_what_is_wrong(self, server, row, status, message):
        """An integer the matrix does not have is out of range, in the
        engine's words; only a non-integer is "must be integers"."""
        quoted = urllib.parse.quote(row, safe="")
        got, _headers, payload = _get(server.url, f"/cell?row={quoted}&col=2")
        assert got == status
        if status == 200:
            expected = _get(server.url, f"/cell?row={int(row)}&col=2")[2]
            assert payload["value"] == expected["value"]
        else:
            assert payload == {"error": "bad_request", "message": message}

    def test_negative_column_is_out_of_range(self, server):
        status, _headers, payload = _get(server.url, "/cell?row=2&col=-1")
        assert status == 400
        assert payload["message"] == "col -1 out of range [0, 50)"

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
        )
        with QueryServer(serve_model_dir, config) as srv:
            outcomes: list[tuple[int, dict]] = []
            lock = threading.Lock()

            def blast():
                # A gather (full on neither axis) holds its ticket for
                # its compute; a rollup hit would be a 100 us window.
                for _ in range(6):
                    status, headers, _body = _get(
                        srv.url,
                        "/aggregate?fn=stddev&rows=0:60&cols=0:30",
                        timeout=30.0,
                    )
                    with lock:
                        outcomes.append((status, headers))

            # 48 threads x 6 requests, not a dozen x 1: a gather holds
            # its ticket for ~0.3 ms of compute under the GIL, so a small
            # herd serializes *before* admission.  With one usable core,
            # 12 x 1 never shed in 5 rounds on 6-7 of 20 server starts;
            # 48 x 6 shed in its first round on 79 of 80 (ROADMAP 4(d);
            # README "Given up, plainly" (3)).
            for _round in range(5):
                threads = [
                    threading.Thread(target=blast) for _ in range(48)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if any(status == 503 for status, _ in outcomes):
                    break
            statuses = {status for status, _ in outcomes}
            assert statuses <= {200, 503}
            assert 503 in statuses, "no shed under 48x concurrency at depth 1"
            for status, headers in outcomes:
                if status == 503:
                    assert headers.get("Retry-After") == "3"
            status, _headers, stats = _get(srv.url, "/stats")
            assert stats["shed_total"] >= 1
            # Shed counters made it to the exported metrics too.
            _status, _headers, body = _get(srv.url, "/metrics")
            assert "server_shed" in body.decode()

    def test_a_held_ticket_sheds_every_arrival(self, serve_model_dir, spy_on_execute):
        """The deterministic half of the herd test above: with the one
        ticket held open (its gather blocked on an ``Event``), each of
        12 arrivals is a 503 with ``Retry-After`` through the HTTP
        boundary, and the holder is the only 200.  This does not show
        that load *finds* the bound — only the herd does."""
        config = ServeConfig(
            port=0,
            workers=1,
            max_queue_depth=1,
            retry_after_s=3.0,
            default_timeout_ms=15_000,
            brownout_sheds=10_000,
        )
        with QueryServer(serve_model_dir, config) as srv:
            outcomes: list[tuple[int, dict]] = []
            lock = threading.Lock()
            release = threading.Event()
            executed = spy_on_execute(
                srv.dispatcher, before=lambda _query: release.wait(timeout=30.0)
            )

            def blast():
                status, headers, _body = _get(
                    srv.url, "/aggregate?fn=stddev&rows=0:60&cols=0:30", timeout=30.0
                )
                with lock:
                    outcomes.append((status, headers))

            holder = threading.Thread(target=blast)
            holder.start()
            deadline = time.monotonic() + 10.0
            while not executed and time.monotonic() < deadline:
                time.sleep(0.002)
            assert executed
            threads = [threading.Thread(target=blast) for _ in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            release.set()
            holder.join(timeout=30.0)
            assert sorted(status for status, _ in outcomes) == [200] + [503] * 12
            for status, headers in outcomes:
                if status == 503:
                    assert headers.get("Retry-After") == "3"
            assert _get(srv.url, "/stats")[2]["shed_total"] == 12


class TestDeadlines:
    def test_answer_computed_past_its_deadline_is_504(self, server, spy_on_execute):
        """The deadline is compared again after execution: an overrun
        gather is a 504 when its compute ends, never a late 200."""
        spy_on_execute(server.dispatcher, before=lambda _query: time.sleep(0.05))
        before = _get(server.url, "/stats")[2]
        for path in (
            "/aggregate?fn=sum&rows=0:40&cols=0:25",
            "/aggregate?fn=min&rows=0:40&cols=0:25",
            "/cell?row=3&col=7",
        ):
            status, _headers, payload = _get(server.url, path + "&timeout_ms=10")
            assert status == 504, path
            assert payload["error"] == "deadline_exceeded"
        after = _get(server.url, "/stats")[2]
        assert after["deadline_misses"] == before["deadline_misses"] + 3
        assert after["answers"] == before["answers"]
        assert after["queue_depth"] == 0

    def test_groupby_computed_past_its_deadline_is_504(self, server, monkeypatch):
        """A group-by keeps its deadline as ``dispatch`` does: a series
        that overruns it is a 504, not a late 200."""
        import repro.serve.robust as robust

        series = robust.bucket_series

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return series(*args, **kwargs)

        monkeypatch.setattr(robust, "bucket_series", slow)
        before = _get(server.url, "/stats")[2]
        status, _headers, payload = _get(server.url, "/groupby?by=month&timeout_ms=10")
        assert status == 504
        assert payload["error"] == "deadline_exceeded"
        status, _headers, payload = _get(server.url, "/groupby?by=month&timeout_ms=5000")
        assert status == 200 and payload["path"] == "summary"
        after = _get(server.url, "/stats")[2]
        assert after["deadline_misses"] == before["deadline_misses"] + 1
        assert after["summary_hits"] == before["summary_hits"] + 1
        assert after["queue_depth"] == 0


class TestWarm:
    def test_nothing_is_left_to_build_after_ready(self, serve_model_dir):
        """``start()`` answers one cell, one rollup and one gather on
        the serving engine, so the first real request of each kind finds
        every lazy table (the summary arrays) already built; the delta
        index has none (its row table is read, not derived)."""
        config = ServeConfig(port=0, workers=1)
        with QueryServer(serve_model_dir, config) as srv:
            backend = srv.dispatcher._backend
            assert backend._summaries_checked
            summaries, index_bytes = backend.summaries, backend.delta_index.size_bytes()
            index = backend.delta_index
            assert index_bytes == sum(
                array.nbytes for array in (index.row_start, index.cols, index.values)
            )
            assert _get(srv.url, "/stats")[2]["answers"] == 0  # warm-up is uncounted
            for path in (
                "/cell?row=41&col=17",
                "/aggregate?fn=avg&rows=5:30",
                "/aggregate?fn=stddev&rows=5:70&cols=3:45",
                "/aggregate?fn=max&rows=5:70&cols=3:45",
            ):
                assert _get(srv.url, path)[0] == 200
            assert backend.summaries is summaries
            assert backend.delta_index.size_bytes() == index_bytes

    def test_warm_on_an_empty_axis_is_a_noop(self, serve_model_dir, monkeypatch):
        config = ServeConfig(port=0, workers=1)
        srv = QueryServer(serve_model_dir, config)
        try:
            engine = srv.dispatcher._engine
            monkeypatch.setattr(
                type(engine), "shape", property(lambda self: (0, 50))
            )
            monkeypatch.setattr(
                type(engine), "execute", lambda *a, **k: pytest.fail("executed")
            )
            srv.dispatcher.warm()
        finally:
            srv.stop()


class TestChaos:
    def test_storage_fault_under_one_gather_is_that_requests_500(
        self, serve_model_dir, spy_on_execute
    ):
        """A ``StorageError`` under one gather amid four-thread traffic
        is that request's typed 500 and nobody else's: every other
        status is 200, its slot and ticket come back, and the server
        answers healthily afterwards."""
        config = ServeConfig(
            port=0,
            workers=2,
            max_queue_depth=64,
            default_timeout_ms=30_000,
            brownout_sheds=10_000,
        )
        with QueryServer(serve_model_dir, config) as srv:
            replies: list[tuple[int, dict]] = []
            lock = threading.Lock()
            stop = threading.Event()
            calls = iter(range(10**9))

            def fault_on_the_eleventh(_query):
                if next(calls) == 10:  # next() on one iterator is atomic
                    raise StorageError("injected: page 7 of u.mat failed its checksum")

            spy_on_execute(srv.dispatcher, before=fault_on_the_eleventh)

            def traffic():
                while not stop.is_set():
                    status, _headers, body = _get(
                        srv.url, "/aggregate?fn=sum&rows=0:40&cols=0:25", timeout=60.0
                    )
                    with lock:
                        replies.append((status, body))

            threads = [threading.Thread(target=traffic) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                deadline = time.monotonic() + 30.0
                while len(replies) < 60 and time.monotonic() < deadline:
                    time.sleep(0.01)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
            failed = [body for status, body in replies if status != 200]
            assert failed == [
                {
                    "error": "StorageError",
                    "message": "injected: page 7 of u.mat failed its checksum",
                }
            ]
            assert len(replies) >= 60
            assert all(status in (200, 500) for status, _ in replies)
            # Its slot and ticket came back, and the server still
            # answers healthily afterwards.
            stats = _get(srv.url, "/stats")[2]
            assert stats["queue_depth"] == 0
            assert stats["answers"] == stats["gathers"] == len(replies) - 1
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

    def test_port_in_use_is_an_oserror(self, server, serve_model_dir):
        # A failed bind leaves no listener behind to close; it must
        # surface as the bind error, not an AttributeError, and stop()
        # must still release the model the dispatcher opened.
        second = QueryServer(serve_model_dir, ServeConfig(port=server.port))
        try:
            with pytest.raises(OSError):
                second.start()
        finally:
            second.stop()

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
            _settle(srv._server)
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
    def test_sequential_requests_reuse_a_handler(self, serve_model_dir, monkeypatch):
        """A standby starts only when every existing handler is between
        its ``accept()`` and re-counting itself idle, so the thread
        count is peak connections in flight + 1 and does not grow with
        the number of requests.  A client that reacts to a reply before
        its handler has unwound (CPU steal, a GIL hand-off) overlaps it,
        so the first loop is held to the peak it recorded, not to a
        constant (it read 3-5 beside a busy loop pinned to the same
        core); the second waits each handler out and must add none."""
        threads_before = threading.active_count()
        config = ServeConfig(port=0, workers=1)
        with QueryServer(serve_model_dir, config) as srv:
            server = srv._server
            in_flight_at_start = []
            start_handler = server._start_handler

            def recording_start():  # runs under the server's lock
                in_flight_at_start.append(server._active)
                start_handler()

            monkeypatch.setattr(server, "_start_handler", recording_start)

            for i in range(50):
                assert _get(srv.url, f"/cell?row={i}&col=1")[0] == 200
            _settle(server)
            handlers = server.handler_threads
            assert handlers == max(in_flight_at_start) + 1
            for i in range(450):
                assert _get(srv.url, f"/cell?row={i % 50}&col=1")[0] == 200
                _settle(server)
            assert server.handler_threads == handlers
        # stop() joined the handlers (there is no accept-loop thread).
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
