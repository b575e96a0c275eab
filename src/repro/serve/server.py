"""The query-serving HTTP endpoint.

:class:`QueryServer` is an HTTP front door over one
:class:`~repro.serve.robust.RobustDispatcher` that reads and writes its
own sockets: reused handler threads that each ``accept()`` a
connection, read its request head, run the route below and write the
response themselves — one thread, one read, one write per request, no
accept loop or hand-off in between.  A request is ``GET`` over
``HTTP/1.x`` with a head of at most 64 KiB and 100 headers, delivered
within 2 s of connecting (the whole head, not each read); anything
else is refused (400/414/431/501/505) or hung up on before a route
runs, and every response closes its connection.  The routes:

- ``GET /query?q=<text>`` — any query in the textual language
  (:mod:`repro.query.parser`);
- ``GET /cell?row=R&col=C`` — one cell;
- ``GET /aggregate?fn=sum&rows=0:50&cols=0:30`` — one aggregate;
- ``GET /groupby?by=month&fn=sum[&limit=N]`` — a whole dashboard
  series from the materialized summary store (zero ``u.mat`` pages on
  a hit; ``by`` is ``day``/``week``/``month``/``quarter``/``year``/
  ``customer``);
- ``GET /explain?q=<text>`` — the planner's chosen route (the one
  ``/query`` would execute right now, healthy or brownout), never
  executed;
- ``GET /stats`` — the dispatcher's health snapshot (JSON);
- ``GET /healthz`` / ``/healthz/live`` — liveness (always ``ok``);
- ``GET /healthz/ready`` — readiness (503 while warming or draining);
- ``GET /metrics`` — OpenMetrics exposition of the process registry;
- ``GET /snapshot`` — the same registry as raw JSON (what ``repro top``
  polls).

Every request is computed by the handler thread that read it
(``answers`` in ``/stats``); an aggregate whose plan gathers rows of U
first takes one of ``workers`` slots (``gathers``), waiting no longer
than its deadline.

A request target becomes engine query objects in one step: its query
string is split once (``%xx`` and ``+`` decoded, the last value of a
repeated name wins, as ``parse_qs`` reads it), ``/cell`` is a
``CellQuery`` of two ints, and ``/aggregate`` an ``AggregateQuery``
whose ``rows`` and ``cols`` are each read as a range or a list on
their own (:func:`~repro.query.parser.parse_indices`); ``/query`` and
``/explain`` parse their text.

Every query route (``/query``, ``/cell``, ``/aggregate``, ``/groupby``,
``/explain``) reads a deadline as ``?timeout_ms=`` or the
``X-Repro-Deadline-Ms`` header (query param wins), clamped to the
configured maximum; a malformed one is a 400 on each.  ``/query``,
``/aggregate``, and ``/explain`` additionally accept ``?max_rmspe=`` —
the per-query error budget the planner enforces (0 demands exactness; a
positive fraction admits the approximate SVD-only route when the
model's stored estimate fits).

**Error contract** — the handler maps exceptions, never leaks them:

====================================  ======  ==========================
exception                             status  extras
====================================  ======  ==========================
``QueryError`` (parse/validation)     400     structured JSON error
``OverloadedError`` (shed)            503     ``Retry-After`` header
``DeadlineExceededError``             504     never a late 200
anything else                         500     generic JSON, no traceback
====================================  ======  ==========================

A deadline that passes while a gather waits for a slot is a 504 before
any compute; one that passes while the gather (or a group-by) *runs* is
a 504 when the compute ends (a thread cannot be abandoned mid-flight).

**Lifecycle** — ``start()`` warms the serving engine *before* accepting
traffic (one cell, one rollup, one gather: no request builds a lazy
table inside its deadline) and only then flips readiness.
SIGTERM/SIGINT (via :meth:`install_signal_handlers` or
:meth:`request_shutdown`) flips readiness off and sheds new queries with
``503`` (reason ``drain``) while the listener still answers health
probes, waits up to ``drain_grace_s`` for the admitted queries — the
one wait — then stops accepting, joins the handler threads (a second at
most), releases the model, and releases :meth:`serve_until_shutdown` so
the CLI can ``exit 0``.  A query the grace ran out on is shed ``503``
``drain`` too, when the released model fails it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import signal
import socket
import threading
import time
import traceback
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path
from urllib.parse import unquote, urlsplit

from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    QueryError,
    ReproError,
)
from repro.obs.export import OPENMETRICS_CONTENT_TYPE, render_openmetrics
from repro.obs.registry import registry as _obs
from repro.query.engine import AggregateQuery, CellQuery
from repro.query.parser import parse_function, parse_indices, parse_query
from repro.query.selection import Selection
from repro.serve.config import ServeConfig
from repro.serve.robust import RobustDispatcher

__all__ = ["QueryServer"]

_JSON = "application/json; charset=utf-8"
_TEXT = "text/plain; charset=utf-8"

# Request-head limits (the stdlib server's, kept): bytes, header lines.
_MAX_HEAD = 65536
_MAX_HEADERS = 100

_HEAD_END = re.compile(rb"\r?\n\r?\n")  # a bare LF ends a line too

#: Status code -> reason phrase, read once.
_PHRASES = {status.value: status.phrase for status in HTTPStatus}


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` header value — cached, so formatted once a second."""
    return formatdate(second, usegmt=True)


def _error_body(kind: str, message: str) -> bytes:
    return json.dumps({"error": kind, "message": message}).encode()


def _split_target(target: str) -> tuple[str, dict]:
    """``(path, params)`` of a request target, ``params`` holding the
    last value of each name, as ``parse_qs(keep_blank_values=True)``
    and a last-wins pick read them; raises ``ValueError`` where
    ``urlsplit`` does.  An origin-form target (``/path?query``, no
    fragment) is split here; any other form goes through ``urlsplit``.
    """
    if target[:1] == "/" and target[1:2] != "/" and "#" not in target:
        path, _mark, query = target.partition("?")
    else:
        split = urlsplit(target)
        path, query = split.path, split.query
    params = {}
    if query:
        for field in query.split("&"):
            if field:
                name, _eq, value = field.partition("=")
                if "+" in name or "%" in name:
                    name = unquote(name.replace("+", " "))
                if "+" in value or "%" in value:
                    value = unquote(value.replace("+", " "))
                params[name] = value
    return path, params


class _QueryHandler:
    """One connection, one request: read the head, route, reply once.

    Built per connection by the :class:`QueryServer` whose dispatcher
    and readiness it answers with.  The parser accepts what this tier
    serves and nothing else: ``GET <target> HTTP/1.x`` plus at most 100
    ``name: value`` header lines in at most 64 KiB; anything else is
    answered 400 / 414 / 431 / 501 / 505 before a route runs.
    """

    #: Seconds a client has to deliver its whole request head (and to
    #: take the response); past it the connection is hung up on.  A
    #: client that sends nothing, or drips a byte at a time, would
    #: otherwise pin a handler thread.
    timeout = 2.0

    def __init__(self, server: "QueryServer", connection: socket.socket) -> None:
        self.server = server
        self.connection = connection

    def handle(self) -> None:
        """Serve the connection's one request."""
        head = self._read_head()
        if head is None:
            return
        refusal = self._parse_head(head)
        if refusal is None:
            self.do_GET()
        else:
            self._reply(refusal[0], _TEXT, f"{refusal[1]}\n".encode())

    def _read_head(self) -> bytearray | None:
        """The request head up to its blank line (what follows it — a
        body, a pipelined request — is ignored: every response closes
        the connection), as far as it was read when oversized, or None
        when the peer hung up or ran past the deadline first."""
        deadline = time.monotonic() + self.timeout
        received = bytearray()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self.connection.settimeout(remaining)
            try:
                chunk = self.connection.recv(_MAX_HEAD)
            except OSError:  # timeout or reset
                return None
            if not chunk:
                return None
            scanned = max(0, len(received) - 3)  # a blank line may straddle
            received += chunk
            end = _HEAD_END.search(received, scanned)
            if end is not None:
                return received[: end.start()]
            if len(received) > _MAX_HEAD:
                return received

    def _parse_head(self, head: bytearray) -> tuple[int, str] | None:
        """Fill ``path`` / ``headers``, or return the
        ``(status, message)`` to refuse the head with."""
        lines = head.decode("latin-1").split("\n")
        if len(lines[0]) > _MAX_HEAD:
            return 414, "request line too long"
        if len(head) > _MAX_HEAD:
            return 431, "request head too large"
        words = lines[0].split()
        if len(words) != 3:
            return 400, "bad request line"
        command, self.path, version = words
        self.headers: dict[str, str] = {}
        if not version.startswith("HTTP/"):
            return 400, "bad HTTP version"
        if not version.startswith("HTTP/1."):
            return 505, "HTTP version not supported"
        if len(lines) - 1 > _MAX_HEADERS:
            return 431, "too many headers"
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon or not name or name != name.strip():
                return 400, "bad header line"
            # The first of a repeated header wins, as it did.
            self.headers.setdefault(name.lower(), value.strip())
        if command != "GET":
            return 501, f"unsupported method {command!r}"
        return None

    def _reply(
        self,
        status: int,
        content_type: str,
        body: bytes,
        extra_headers: dict | None = None,
    ) -> None:
        # One request per connection: an idle keep-alive connection
        # would pin a handler thread.
        head = (
            f"HTTP/1.1 {status} {_PHRASES[status]}\r\n"
            "Server: repro\r\n"
            f"Date: {_http_date(int(time.time()))}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
        )
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        try:
            self.connection.settimeout(self.timeout)
            self.connection.sendall(head.encode("latin-1") + b"\r\n" + body)
        except OSError:
            pass  # client went away; nothing to salvage

    def do_GET(self) -> None:
        try:
            path, params = _split_target(self.path)
        except ValueError:
            self._reply(400, _JSON, _error_body("bad_request", "unparseable URL"))
            return
        try:
            route = _ROUTES.get(path)
            if route is not None:
                route(self, params)
            else:
                self._reply(
                    404, _JSON, _error_body("not_found", f"no route {path}")
                )
        except QueryError as exc:
            self._reply(400, _JSON, _error_body("bad_request", str(exc)))
        except OverloadedError as exc:
            self._reply(
                503,
                _JSON,
                _error_body("overloaded", str(exc)),
                extra_headers={
                    "Retry-After": f"{max(1, round(exc.retry_after_s))}"
                },
            )
        except DeadlineExceededError as exc:
            self._reply(504, _JSON, _error_body("deadline_exceeded", str(exc)))
        except ReproError as exc:
            # A library failure below the query layer (storage fault,
            # corrupt page...).  Structured, no traceback.
            _obs.counter("server.internal_errors").inc()
            self._reply(500, _JSON, _error_body(type(exc).__name__, str(exc)))
        except Exception:
            # Never leak a traceback to the wire.
            _obs.counter("server.internal_errors").inc()
            self._reply(
                500, _JSON, _error_body("internal", "internal server error")
            )

    # -- request parsing ------------------------------------------------

    def _timeout_ms(self, params: dict) -> float | None:
        """The request's deadline in ms (None: the default), read the
        same way on every query route."""
        raw = params.get("timeout_ms", self.headers.get("x-repro-deadline-ms"))
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise QueryError(f"timeout_ms must be a number, got {raw!r}") from None
        if not (math.isfinite(value) and value > 0):
            raise QueryError(f"timeout_ms must be positive and finite, got {value:g}")
        return value

    def _text_query(self, params: dict):
        text = params.get("q")
        if text is None:
            raise QueryError("missing required parameter 'q'")
        query = parse_query(text)
        raw = params.get("max_rmspe")
        if raw is None:
            return query
        # Validated by AggregateQuery (a bad budget is a 400).
        if not isinstance(query, AggregateQuery):
            raise QueryError("max_rmspe only applies to aggregate queries")
        return dataclasses.replace(query, max_rmspe=raw)

    # -- routes ----------------------------------------------------------

    def _answer(self, query, params: dict) -> None:
        payload = self.server.dispatcher.dispatch(query, timeout_ms=self._timeout_ms(params))
        self._reply(200, _JSON, json.dumps(payload).encode())

    def _query(self, params: dict) -> None:
        self._answer(self._text_query(params), params)

    def _cell(self, params: dict) -> None:
        row, col = params.get("row"), params.get("col")
        if row is None or col is None:
            raise QueryError("/cell needs integer 'row' and 'col' parameters")
        try:
            query = CellQuery(int(row), int(col))
        except ValueError:
            raise QueryError(
                f"row/col must be integers, got row={row!r} col={col!r}"
            ) from None
        self._answer(query, params)

    def _aggregate(self, params: dict) -> None:
        fn = params.get("fn")
        if fn is None:
            raise QueryError("/aggregate needs an 'fn' parameter")
        function = parse_function(fn)
        rows, cols = params.get("rows"), params.get("cols")
        selection = Selection(
            rows=parse_indices(rows, "rows") if rows else None,
            cols=parse_indices(cols, "cols") if cols else None,
        )
        self._answer(AggregateQuery(function, selection, params.get("max_rmspe")), params)

    def _groupby(self, params: dict) -> None:
        by = params.get("by") or "day"
        fn = params.get("fn") or "sum"
        raw_limit = params.get("limit")
        limit = None
        if raw_limit is not None:
            try:
                limit = int(raw_limit)
            except ValueError:
                raise QueryError(
                    f"limit must be an integer, got {raw_limit!r}"
                ) from None
        payload = self.server.dispatcher.groupby(
            by, fn, limit=limit, timeout_ms=self._timeout_ms(params)
        )
        self._reply(200, _JSON, json.dumps(payload).encode())

    def _explain(self, params: dict) -> None:
        query = self._text_query(params)
        # Read as on every query route; planning is not admitted, so
        # no deadline binds it.
        self._timeout_ms(params)
        plan = self.server.dispatcher.explain(query)
        self._reply(200, _JSON, json.dumps(plan).encode())

    def _live(self, _params: dict) -> None:
        self._reply(200, _TEXT, b"ok\n")

    def _ready(self, _params: dict) -> None:
        if self.server.ready.is_set():
            self._reply(200, _TEXT, b"ready\n")
        else:
            self._reply(503, _TEXT, b"not ready\n")

    def _metrics(self, _params: dict) -> None:
        body = render_openmetrics().encode()
        self._reply(200, OPENMETRICS_CONTENT_TYPE, body)

    def _snapshot(self, _params: dict) -> None:
        body = json.dumps(_obs.snapshot(), default=str).encode()
        self._reply(200, _JSON, body)

    def _stats(self, _params: dict) -> None:
        body = json.dumps(self.server.dispatcher.stats(), default=str).encode()
        self._reply(200, _JSON, body)


#: Path -> route; 404 is ``do_GET``'s fallback.  ``/healthz`` stays the
#: bare liveness probe (``ok``) scrapers and the CI smoke curl.
_ROUTES = {
    "/healthz": _QueryHandler._live,
    "/healthz/live": _QueryHandler._live,
    "/healthz/ready": _QueryHandler._ready,
    "/metrics": _QueryHandler._metrics,
    "/snapshot": _QueryHandler._snapshot,
    "/stats": _QueryHandler._stats,
    "/query": _QueryHandler._query,
    "/cell": _QueryHandler._cell,
    "/aggregate": _QueryHandler._aggregate,
    "/groupby": _QueryHandler._groupby,
    "/explain": _QueryHandler._explain,
}


class QueryServer:
    """One model directory served over HTTP with the robustness stack.

    Args:
        model_dir: a ``CompressedMatrix`` model directory.
        config: serving thresholds (:class:`ServeConfig`).

    Usable as a context manager.  :attr:`url` resolves the bound port
    (``port=0`` picks a free one).

    **Thread model.**  The server owns the listening socket; every
    handler thread blocks in ``accept()`` on it itself (the kernel wakes
    exactly one per connection) and serves what it accepted.  A handler
    that was the last idle one starts a standby before it serves, so a
    health probe is accepted even while every other handler sits in a
    slow request.  Handlers live until :meth:`stop`; their count is peak
    connections in flight plus the standby — admission, not a pool
    size, is what sheds — so no request pays for a thread start once
    warm.  A connection is in flight from its ``accept()`` until its
    handler has closed it and re-counted itself idle, so a client that
    reacts to a reply before that handler has unwound is, for the
    count, one connection more in flight than it has requests
    outstanding.

    **Readiness** (:attr:`ready`) is set once warm and cleared the
    moment a drain begins: a draining process is still live — don't
    restart it — but not ready — stop routing to it.
    """

    def __init__(
        self, model_dir: str | Path, config: ServeConfig | None = None
    ) -> None:
        self.config = config or ServeConfig()
        self.dispatcher = RobustDispatcher(model_dir, self.config)
        self.ready = threading.Event()
        self.drained_clean = True
        self._listener: socket.socket | None = None
        self._port = self.config.port
        self._handlers: list[threading.Thread] = []
        # Connections in flight, handlers idle, and whether stop() has
        # begun (_stopped) or shut the listener (_closing): one lock,
        # taken as itself per connection (a plain lock is entered in C).
        self._active = 0
        self._idle = 0
        self._stopped = False
        self._closing = False
        self._lock = threading.Lock()
        self._shutdown_event = threading.Event()

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    @property
    def handler_threads(self) -> int:
        """Handler threads started so far (peak in flight + standby)."""
        return len(self._handlers)

    @property
    def active_requests(self) -> int:
        with self._lock:
            return self._active

    def start(self) -> "QueryServer":
        """Warm the engine, bind, serve on daemon threads; returns self."""
        if self._listener is not None:
            return self
        self.dispatcher.warm()
        # Backlog 128: a small one overflows under a burst of concurrent
        # connections, which shows up as 1s/3s SYN-retransmit latency
        # spikes on *admitted* requests — the admission queue, not the
        # kernel, is where this tier sheds.
        self._listener = socket.create_server(
            (self.config.host, self.config.port), backlog=128
        )
        self._port = self._listener.getsockname()[1]
        self._start_handler()
        self.ready.set()
        _obs.gauge("server.ready").set(1)
        return self

    def _start_handler(self) -> None:
        """Start a handler thread, counted idle (callers but start() hold
        ``_lock``)."""
        self._idle += 1
        handler = threading.Thread(
            target=self._handle_connections,
            name=f"repro-http-handler-{len(self._handlers)}",
            daemon=True,
        )
        self._handlers.append(handler)
        handler.start()

    def _handle_connections(self) -> None:
        """One handler thread: accept and serve until the listener is shut."""
        listener = self._listener
        while True:
            try:
                connection, _address = listener.accept()
            except OSError:  # stop()'s wake, or a transient failure
                if self._closing:
                    return
                continue
            with self._lock:
                self._active += 1
                self._idle -= 1
                if self._idle == 0 and not self._closing:
                    self._start_handler()  # the standby
            try:
                _QueryHandler(self, connection).handle()
            except Exception:
                # The boundary that must keep serving: record, move on.
                traceback.print_exc()
            finally:
                connection.close()
                with self._lock:
                    self._active -= 1
                    self._idle += 1

    def stop(self) -> None:
        """Graceful drain: readiness off → shed new queries and wait out
        the admitted ones, bounded by ``drain_grace_s`` → stop accepting
        and join the handlers (a second at most; one still inside a
        request is a daemon) → release the model.

        Idempotent and safe from signal handlers' deferred context (the
        actual call happens on the main thread via
        :meth:`serve_until_shutdown`).
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self.ready.clear()
        _obs.gauge("server.ready").set(0)
        # The one wait: new queries shed with 503 + Retry-After while
        # the listener keeps answering health checks.
        self.drained_clean = self.dispatcher.drain()
        if self._listener is not None:
            with self._lock:
                self._closing = True
            try:
                # Fails a blocked accept() on Linux, where this tier
                # runs and is tested; closing the socket would not.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # a platform that refuses it on a listening socket
            self._listener.close()
            deadline = time.monotonic() + 1.0
            for handler in self._handlers:
                handler.join(timeout=max(0.0, deadline - time.monotonic()))
        self.dispatcher.close()
        self._shutdown_event.set()

    def request_shutdown(self) -> None:
        """Flip readiness and wake :meth:`serve_until_shutdown`.

        Signal-handler safe: does no blocking work itself — the waiting
        thread performs the actual drain.
        """
        self.ready.clear()
        _obs.gauge("server.ready").set(0)
        self._shutdown_event.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into a graceful drain.

        A no-op off the main thread (handlers can only be installed
        there); embedded callers use :meth:`request_shutdown` directly.
        """
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: self.request_shutdown())

    def serve_until_shutdown(self, duration_s: float | None = None) -> bool:
        """Block until a shutdown is requested (or ``duration_s`` runs
        out), then drain.  Returns True when the admitted queries
        finished within the grace period."""
        self._shutdown_event.wait(timeout=duration_s)
        self.stop()
        return self.drained_clean

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
