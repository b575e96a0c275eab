"""The wire, hostile: raw bytes against the HTTP front door.

Everything else in the suite reaches the server through ``urllib``, so
every byte its parser ever saw was well-formed.  Here a raw socket
sends what a broken, slow or malicious peer would, against
:class:`~repro.serve.server.QueryServer` (whose request reader is
:mod:`repro.obs.serve`):

- a table of malformed and borderline requests, each with the exact
  status it gets — or the hang-up, where no reply is owed;
- for the well-formed ones, status, ``Content-Type`` and body exactly
  as the stdlib-based server answered them before this tier read its
  own sockets (recorded below; ``elapsed_ms`` aside);
- a Hypothesis property: whatever arrives, the peer gets one
  well-formed response or a hang-up — never a 500, never a traceback,
  never a leaked handler;
- the whole-head deadline: a client dripping bytes is hung up on when
  the deadline passes, however steadily it drips.
"""

from __future__ import annotations

import email.utils
import json
import re
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs.serve import BaseEndpointHandler
from repro.serve.config import ServeConfig
from repro.serve.server import QueryServer

_TEXT = "text/plain; charset=utf-8"
_JSON = "application/json; charset=utf-8"
_STATUS_LINE = re.compile(rb"HTTP/1\.1 (\d{3}) [ -~]+")


_GRACE_S = 5.0


def _start_query_server(model_dir):
    config = ServeConfig(port=0, workers=1, drain_grace_s=_GRACE_S)
    return QueryServer(model_dir, config).start()


#: Every HTTP server in the package, by name -> how to start it: each
#: faces the whole file.
SERVERS = {"query": _start_query_server}


@pytest.fixture(scope="module")
def servers(serve_model_dir):
    started = {kind: start(serve_model_dir) for kind, start in SERVERS.items()}
    yield started
    for server in started.values():
        server.stop()


def _exchange(
    port: int, pieces, gap_s: float = 0.0, half_close: bool = False
) -> bytes:
    """Send ``pieces`` (``gap_s`` apart), then read until the server
    closes.  A reset while sending or reading ends the exchange with
    whatever arrived — an early refusal may race the unread input."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as client:
        try:
            for index, piece in enumerate(pieces):
                if index:
                    time.sleep(gap_s)
                client.sendall(piece)
            if half_close:
                client.shutdown(socket.SHUT_WR)
            while chunk := client.recv(65536):
                received += chunk
        except ConnectionError:
            pass
    return received


def _response(raw: bytes) -> tuple[int, dict, bytes]:
    """(status, headers, body) of exactly one well-formed response."""
    head, separator, body = raw.partition(b"\r\n\r\n")
    assert separator, raw[:200]
    status_line, *header_lines = head.split(b"\r\n")
    match = _STATUS_LINE.fullmatch(status_line)
    assert match, status_line
    headers = {}
    for line in header_lines:
        name, _colon, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    assert int(headers["content-length"]) == len(body), (headers, body[:200])
    assert headers["connection"] == "close"
    assert headers["server"] == "repro"
    assert email.utils.parsedate_to_datetime(headers["date"]) is not None
    return int(match.group(1)), headers, body


_OK = (200, _TEXT, b"ok\n")
#: ``/cell?row=1&col=1`` on the session's 80 x 50 model.
_CELL = (
    200,
    _JSON,
    {"value": 0.36488685654971237, "cells": 1, "rows_fetched": 1, "degraded": False},
)


def _no_route(path: str):
    body = json.dumps({"error": "not_found", "message": f"no route {path}"})
    return (404, _JSON, body.encode())


#: The deadline header was read: its value is what gets refused.
_DEADLINE = (
    400,
    _JSON,
    json.dumps(
        {
            "error": "bad_request",
            "message": "timeout_ms must be a number, got 'soon'",
        }
    ).encode(),
)

#: name -> (request bytes, the answer).  An answer is a bare status (the
#: refusals the request reader makes itself — the body is prose), a
#: ``(status, content type, body)`` triple recorded from the
#: stdlib-based server this one replaced (a dict body is JSON compared
#: without ``elapsed_ms``), or None: hung up on, nothing sent.
WIRE_TABLE = {
    "plain": (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", _OK),
    "http-1.0": (b"GET /healthz HTTP/1.0\r\n\r\n", _OK),
    "lf-only-line-endings": (b"GET /healthz HTTP/1.1\nHost: x\n\n", _OK),
    "empty-connection": (b"", None),
    "missing-version": (b"GET /healthz\r\n\r\n", 400),
    "four-word-request-line": (b"GET /healthz extra HTTP/1.1\r\n\r\n", 400),
    "blank-line-only": (b"\r\n\r\n", 400),
    "not-http": (b"GET /healthz FTP/1.1\r\n\r\n", 400),
    "http-2.0": (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    "http-0.9": (b"GET /healthz HTTP/0.9\r\n\r\n", 505),
    "post": (b"POST /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501),
    "head": (b"HEAD /healthz HTTP/1.1\r\n\r\n", 501),
    "header-without-colon": (b"GET /healthz HTTP/1.1\r\nHost x\r\n\r\n", 400),
    "folded-header": (
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n",
        400,
    ),
    "space-before-colon": (b"GET /healthz HTTP/1.1\r\nHost : x\r\n\r\n", 400),
    "100-headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-%d: y\r\n" % i for i in range(100))
        + b"\r\n",
        _OK,
    ),
    "101-headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-%d: y\r\n" % i for i in range(101))
        + b"\r\n",
        431,
    ),
    "70-KiB-header": (
        b"GET /healthz HTTP/1.1\r\nX: " + b"a" * (70 * 1024) + b"\r\n\r\n",
        431,
    ),
    "70-KiB-request-line": (
        b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
        414,
    ),
    "nul-in-target": (
        b"GET /heal\x00thz HTTP/1.1\r\n\r\n",
        _no_route("/heal\x00thz"),
    ),
    "non-latin-1-bytes": (
        b"GET /healthz\xff\xfe HTTP/1.1\r\nX-\xff: \xfe\r\n\r\n",
        _no_route("/healthz\xff\xfe"),
    ),
    "absolute-form-target": (
        b"GET http://h/cell?row=1&col=1 HTTP/1.1\r\nHost: h\r\n\r\n",
        _CELL,
    ),
    "pipelined-second-request": (
        b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz/ready HTTP/1.1\r\n\r\n",
        _OK,
    ),
    "deadline-header-lower": (
        b"GET /cell?row=1&col=1 HTTP/1.1\r\nx-repro-deadline-ms: soon\r\n\r\n",
        _DEADLINE,
    ),
    "deadline-header-upper": (
        b"GET /cell?row=1&col=1 HTTP/1.1\r\nX-REPRO-DEADLINE-MS: soon\r\n\r\n",
        _DEADLINE,
    ),
    "deadline-header-mixed": (
        b"GET /cell?row=1&col=1 HTTP/1.1\r\nX-Repro-Deadline-Ms: soon\r\n\r\n",
        _DEADLINE,
    ),
    "first-of-a-repeated-header-wins": (
        b"GET /cell?row=1&col=1 HTTP/1.1\r\n"
        b"X-Repro-Deadline-Ms: soon\r\nX-Repro-Deadline-Ms: 5000\r\n\r\n",
        _DEADLINE,
    ),
    "cell": (b"GET /cell?row=1&col=1 HTTP/1.1\r\n\r\n", _CELL),
    # Every query route reads its deadline as /cell does.
    "groupby-timeout-param": (
        b"GET /groupby?by=month&timeout_ms=soon HTTP/1.1\r\n\r\n",
        _DEADLINE,
    ),
    "groupby-timeout-negative": (
        b"GET /groupby?by=month&timeout_ms=-5 HTTP/1.1\r\n\r\n",
        (
            400,
            _JSON,
            json.dumps(
                {
                    "error": "bad_request",
                    "message": "timeout_ms must be positive and finite, got -5",
                }
            ).encode(),
        ),
    ),
    "groupby-deadline-header": (
        b"GET /groupby?by=month HTTP/1.1\r\nX-Repro-Deadline-Ms: soon\r\n\r\n",
        _DEADLINE,
    ),
    "explain-timeout-param": (
        b"GET /explain?q=count()&timeout_ms=soon HTTP/1.1\r\n\r\n",
        _DEADLINE,
    ),
}


@pytest.mark.parametrize("kind", SERVERS)
@pytest.mark.parametrize("name", WIRE_TABLE)
def test_wire_table(servers, kind, name):
    payload, expected = WIRE_TABLE[name]
    # The empty connection half-closes so the server sees end of input
    # at once; a peer that stays silent instead is the deadline's case.
    raw = _exchange(servers[kind].port, [payload], half_close=not payload)
    if expected is None:
        assert raw == b""
        return
    status, headers, body = _response(raw)
    if isinstance(expected, int):
        assert status == expected
        assert headers["content-type"] == _TEXT
        return
    want_status, want_type, want_body = expected
    assert (status, headers["content-type"]) == (want_status, want_type)
    if isinstance(want_body, dict):
        answered = json.loads(body)
        assert answered.pop("elapsed_ms") >= 0
        assert answered == want_body
    else:
        assert body == want_body


_PREFIXES = (
    b"",
    b"GET ",
    b"GET /healthz HTTP/1.1\r\n",
    b"GET /cell?row=1&col=1 HTTP/1.1\r\nX-Repro-Deadline-Ms: ",
    b"GET /metrics HTTP/1.",
    b"POST /query?q=",
    b"GET /query?q=",
    b"GET /aggregate?fn=sum&rows=",
)
_SUFFIXES = (b"", b"\r\n\r\n", b" HTTP/1.1\r\n\r\n", b"\n\n")


@pytest.mark.parametrize("kind", SERVERS)
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    prefix=st.sampled_from(_PREFIXES),
    blob=st.binary(max_size=4096),
    suffix=st.sampled_from(_SUFFIXES),
)
def test_any_bytes_get_one_response_or_a_hang_up(
    servers, kind, capsys, prefix, blob, suffix
):
    server = servers[kind]
    start = time.monotonic()
    # Half-closed, an unfinished head is hung up on at once instead of
    # at the deadline (the drip tests below cover that wait).
    raw = _exchange(server.port, [prefix + blob + suffix], half_close=True)
    assert time.monotonic() - start < BaseEndpointHandler.timeout + 1.0
    if raw:
        status, _headers, _body = _response(raw)
        assert status in {200, 400, 404, 414, 431, 501, 505}, raw[:300]
    deadline = time.monotonic() + 5.0
    while server._server.active_requests and time.monotonic() < deadline:
        time.sleep(0.001)
    assert server._server.active_requests == 0
    # One client at a time: its handler, a spare when the next connect
    # beats that handler going idle, and the standby.
    assert server._server.handler_threads <= 3
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", SERVERS)
def test_request_split_across_three_sends_is_answered(servers, kind):
    pieces = [b"GET /heal", b"thz HTTP/1.1\r\nHo", b"st: x\r\n\r\n"]
    raw = _exchange(servers[kind].port, pieces, gap_s=0.05)
    status, headers, body = _response(raw)
    assert (status, headers["content-type"], body) == _OK


def _drip(port: int, stop: threading.Event, gap_s: float = 0.05) -> tuple[bytes, float]:
    """Send a never-finished head a few bytes every ``gap_s`` until the
    server hangs up; (bytes received, seconds it took)."""
    head = b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: " + b"p" * 4096
    received = b""
    start = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as client:
        client.settimeout(gap_s)
        for offset in range(0, len(head), 3):
            if stop.is_set():
                break
            try:
                client.sendall(head[offset : offset + 3])
                chunk = client.recv(4096)
            except TimeoutError:
                continue  # still connected: nothing to read yet
            except ConnectionError:
                break
            if not chunk:
                break
            received += chunk
    return received, time.monotonic() - start


@pytest.mark.parametrize("kind", SERVERS)
def test_dripping_client_is_hung_up_on_at_the_whole_head_deadline(
    serve_model_dir, kind, monkeypatch
):
    """The bound on a silent peer is per request head, not per read: a
    byte every 50 ms never lets a single ``recv`` time out, and must
    still lose the connection — unanswered — once the deadline passes;
    nor may it hold ``stop()`` to the drain grace."""
    monkeypatch.setattr(BaseEndpointHandler, "timeout", 0.3)
    server = SERVERS[kind](serve_model_dir)
    try:
        received, elapsed = _drip(server.port, threading.Event())
        assert received == b""
        assert 0.25 < elapsed < 0.3 + 1.0
        deadline = time.monotonic() + 5.0
        while server._server.active_requests and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server._server.active_requests == 0

        stop_dripping = threading.Event()
        dripper = threading.Thread(
            target=_drip, args=(server.port, stop_dripping), daemon=True
        )
        dripper.start()
        deadline = time.monotonic() + 5.0
        while not server._server.active_requests and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server._server.active_requests == 1
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < _GRACE_S / 2
        stop_dripping.set()
        dripper.join(timeout=10.0)
        assert not dripper.is_alive()
    finally:
        server.stop()
