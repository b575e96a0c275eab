"""The query-serving HTTP endpoint.

:class:`QueryServer` is an HTTP front door over one
:class:`~repro.serve.robust.RobustDispatcher`, on the plumbing in
:mod:`repro.obs.serve`: reused handler threads that each ``accept()``
a connection, read its request head, run the route below and write
the response themselves — one thread, one read, one write per request,
no accept loop or hand-off in between.  A request is ``GET`` over
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
:meth:`request_shutdown`) flips readiness off, sheds new requests with
``503``, waits out in-flight requests bounded by ``drain_grace_s``,
releases the model, and releases :meth:`serve_until_shutdown` so the
CLI can ``exit 0``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import signal
import threading
from pathlib import Path
from urllib.parse import unquote, urlsplit

from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    QueryError,
    ReproError,
)
from repro.obs.export import render_openmetrics
from repro.obs.registry import registry as _obs
from repro.obs.serve import (
    OPENMETRICS_CONTENT_TYPE,
    BaseEndpointHandler,
    GracefulHTTPServer,
    HealthState,
)
from repro.query.engine import AggregateQuery, CellQuery
from repro.query.parser import parse_function, parse_indices, parse_query
from repro.query.selection import Selection
from repro.serve.config import ServeConfig
from repro.serve.robust import RobustDispatcher

__all__ = ["QueryServer"]

_JSON = "application/json; charset=utf-8"


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


class _QueryHandler(BaseEndpointHandler):
    """Routes one request; all state lives on the bound server object."""

    # Bound by QueryServer before serving starts.
    dispatcher: RobustDispatcher = None  # type: ignore[assignment]
    config: ServeConfig = None  # type: ignore[assignment]

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
            elif not self.handle_health(path):
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
        payload = self.dispatcher.dispatch(query, timeout_ms=self._timeout_ms(params))
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
        payload = self.dispatcher.groupby(
            by, fn, limit=limit, timeout_ms=self._timeout_ms(params)
        )
        self._reply(200, _JSON, json.dumps(payload).encode())

    def _explain(self, params: dict) -> None:
        query = self._text_query(params)
        # Read as on every query route; planning is not admitted, so
        # no deadline binds it.
        self._timeout_ms(params)
        plan = self.dispatcher.explain(query)
        self._reply(200, _JSON, json.dumps(plan).encode())

    def _metrics(self, _params: dict) -> None:
        body = render_openmetrics().encode()
        self._reply(200, OPENMETRICS_CONTENT_TYPE, body)

    def _snapshot(self, _params: dict) -> None:
        body = json.dumps(_obs.snapshot(), default=str).encode()
        self._reply(200, _JSON, body)

    def _stats(self, _params: dict) -> None:
        body = json.dumps(self.dispatcher.stats(), default=str).encode()
        self._reply(200, _JSON, body)


#: Path -> route; the health routes and 404 are ``do_GET``'s fallback.
_ROUTES = {
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
    """

    def __init__(
        self, model_dir: str | Path, config: ServeConfig | None = None
    ) -> None:
        self.config = config or ServeConfig()
        self.dispatcher = RobustDispatcher(model_dir, self.config)
        self.health = HealthState()
        self._server: GracefulHTTPServer | None = None
        self._shutdown_event = threading.Event()
        self._stop_lock = threading.Lock()
        self._stopped = False
        self.drained_clean = True

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is not None:
            return self._server.server_address[1]
        return self.config.port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "QueryServer":
        """Warm the engine, bind, serve on daemon threads; returns self."""
        if self._server is not None:
            return self
        self.dispatcher.warm()
        handler = type(
            "_BoundQueryHandler",
            (_QueryHandler,),
            {
                "dispatcher": self.dispatcher,
                "config": self.config,
                "health": self.health,
            },
        )
        self._server = GracefulHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self.health.set_ready(True)
        _obs.gauge("server.ready").set(1)
        return self

    def stop(self) -> None:
        """Graceful drain: readiness off → shed new work → wait out
        in-flight requests (bounded) → release model and listener.

        Idempotent and safe from signal handlers' deferred context (the
        actual call happens on the main thread via
        :meth:`serve_until_shutdown`).
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        self.health.set_ready(False)
        _obs.gauge("server.ready").set(0)
        # Dispatcher first: new requests now shed with 503 + Retry-After
        # while the HTTP listener keeps answering health checks.
        self.drained_clean = self.dispatcher.drain()
        server, self._server = self._server, None
        if server is not None:
            server.drain(self.config.drain_grace_s)
            server.server_close()
        self._shutdown_event.set()

    def request_shutdown(self) -> None:
        """Flip readiness and wake :meth:`serve_until_shutdown`.

        Signal-handler safe: does no blocking work itself — the waiting
        thread performs the actual drain.
        """
        self.health.set_ready(False)
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
        out), then drain.  Returns True when in-flight requests
        finished within the grace period."""
        self._shutdown_event.wait(timeout=duration_s)
        self.stop()
        return self.drained_clean

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
