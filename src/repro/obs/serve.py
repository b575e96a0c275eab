"""Embedded HTTP plumbing for serving processes: metrics endpoint,
health states, and graceful drain.

Two layers live here:

- :class:`GracefulHTTPServer` + :class:`HealthState` +
  :class:`BaseEndpointHandler` — the stdlib-only serving substrate
  (``http.server.HTTPServer`` accepting in a daemon thread, handing
  each connection to a reused handler thread) shared by
  the metrics endpoint below and the query tier in
  :mod:`repro.serve.server`.  The server counts in-flight requests so
  :meth:`GracefulHTTPServer.drain` can wait them out under a bounded
  grace period, and the health state splits *liveness* (the process is
  up) from *readiness* (it should receive new traffic) the way
  orchestrators expect: a draining process is still live — don't
  restart it — but not ready — stop routing to it.

- :class:`MetricsServer` — the observability surface of a serving
  process:

  - ``GET /metrics`` — OpenMetrics exposition text from
    :func:`repro.obs.export.render_openmetrics`, scrapeable by
    Prometheus;
  - ``GET /healthz`` — liveness probe, always ``ok`` (kept as the
    bare-liveness spelling for existing scrapers);
  - ``GET /healthz/live`` — explicit liveness, always ``ok``;
  - ``GET /healthz/ready`` — readiness: ``200 ready`` until the server
    starts draining, then ``503 draining``;
  - ``GET /snapshot`` — the raw JSON registry snapshot (what
    ``repro top`` polls: it needs counter values to difference into
    rates, which the rendered text would make it re-parse).

The metrics server holds no query-path locks: every request just calls
``registry.snapshot()``, which reads each metric under its own short
lock.  ``repro serve-metrics`` wraps this in a CLI; embedders use it
directly::

    with MetricsServer(port=9464) as server:
        print(server.url)        # http://127.0.0.1:9464
        ...                      # serve queries; scrape any time
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from repro.obs.export import render_openmetrics
from repro.obs.registry import MetricsRegistry, registry as _default_registry

__all__ = [
    "BaseEndpointHandler",
    "GracefulHTTPServer",
    "HealthState",
    "MetricsServer",
    "OPENMETRICS_CONTENT_TYPE",
]

OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


class HealthState:
    """Liveness/readiness split for a serving process.

    Liveness is implicit — if the process answers HTTP at all, it is
    live.  Readiness is an explicit flag the owner flips: True once the
    server is warmed up and accepting traffic, False the moment a drain
    begins (SIGTERM) so load balancers stop routing to it while
    in-flight requests finish.
    """

    def __init__(self) -> None:
        self._ready = threading.Event()

    @property
    def ready(self) -> bool:
        return self._ready.is_set()

    def set_ready(self, ready: bool = True) -> None:
        """Flip readiness; draining servers flip it off first."""
        if ready:
            self._ready.set()
        else:
            self._ready.clear()


class GracefulHTTPServer(HTTPServer):
    """An HTTPServer with reused handler threads and a bounded drain.

    The accept loop hands each connection to an idle handler thread and
    starts a new one only when none is idle, so the thread count
    follows peak concurrency (admission, not a pool size, is what
    sheds) and no request pays for a thread start.  Handlers live until
    :meth:`server_close`.  A connection counts as in flight from the
    hand-off until its response is written, so :meth:`drain` can block
    — bounded by a grace period — on accepted-but-unstarted requests
    as well as running ones.
    """

    #: Listen backlog.  socketserver's default of 5 overflows under a
    #: burst of concurrent connections, and an overflowed backlog shows
    #: up as 1s/3s SYN-retransmit latency spikes on *admitted* requests
    #: — the admission queue, not the kernel, is where this tier sheds.
    request_queue_size = 128

    def __init__(self, *args, **kwargs) -> None:
        self._active = 0
        self._idle = 0
        self._active_cond = threading.Condition()
        self._handoff: queue.SimpleQueue = queue.SimpleQueue()
        self._handlers: list[threading.Thread] = []
        # Last: a failed bind calls server_close(), which reads the above.
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        """Hand one accepted connection to a handler thread."""
        with self._active_cond:
            self._active += 1
            reuse = self._idle > 0
            if reuse:
                self._idle -= 1  # that handler is now spoken for
        self._handoff.put((request, client_address))
        if not reuse:
            handler = threading.Thread(
                target=self._handle_connections,
                name=f"repro-http-handler-{len(self._handlers)}",
                daemon=True,
            )
            self._handlers.append(handler)
            handler.start()

    def _handle_connections(self) -> None:
        """One handler thread: serve connections until told to stop."""
        while (item := self._handoff.get()) is not None:
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
                with self._active_cond:
                    self._active -= 1
                    self._idle += 1
                    self._active_cond.notify_all()

    def server_close(self) -> None:
        """Close the listener and stop the handler threads (a handler
        still inside a request past the drain grace is a daemon; it is
        not waited for beyond a second)."""
        super().server_close()
        for _handler in self._handlers:
            self._handoff.put(None)
        deadline = time.monotonic() + 1.0
        for handler in self._handlers:
            handler.join(timeout=max(0.0, deadline - time.monotonic()))
        self._handlers.clear()

    @property
    def handler_threads(self) -> int:
        """Handler threads started so far (peak concurrency)."""
        return len(self._handlers)

    @property
    def active_requests(self) -> int:
        with self._active_cond:
            return self._active

    def drain(self, grace_s: float) -> bool:
        """Wait until no requests are in flight, bounded by ``grace_s``.

        Returns True when the server drained fully, False when the
        grace period expired with requests still running (the caller
        closes anyway — bounded beats graceful when they conflict).
        """
        deadline = time.monotonic() + max(0.0, grace_s)
        with self._active_cond:
            while self._active > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._active_cond.wait(timeout=remaining)
        return True


class BaseEndpointHandler(BaseHTTPRequestHandler):
    """Shared request-handler plumbing: replies, health routes, quiet logs.

    Subclasses set ``health`` (class attribute, bound per-server) and
    route unknown paths through :meth:`handle_health` before 404ing.
    """

    protocol_version = "HTTP/1.1"

    #: Socket timeout, seconds (``StreamRequestHandler`` applies it).  A
    #: client that connects and sends nothing would otherwise pin a
    #: handler thread forever and hold every drain to its grace cap.
    timeout = 2.0

    # Bound by the owning server object before serving starts.
    health: HealthState | None = None

    def _reply(
        self,
        status: int,
        content_type: str,
        body: bytes,
        extra_headers: dict | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        # One request per connection: an idle keep-alive connection
        # would pin a handler thread and stall drain() at its grace
        # cap, so the in-flight count must mean *requests*, not
        # connections.  (send_header('Connection', 'close') also flips
        # close_connection for us.)
        self.send_header("Connection", "close")
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage

    def handle_health(self, path: str) -> bool:
        """Answer the health routes; returns False for other paths.

        ``/healthz`` stays the bare liveness probe (``ok``) existing
        scrapers and the CI smoke test curl; ``/healthz/live`` spells
        it explicitly; ``/healthz/ready`` reflects the
        :class:`HealthState` — 503 while warming up or draining.
        """
        if path in ("/healthz", "/healthz/live"):
            self._reply(200, "text/plain; charset=utf-8", b"ok\n")
            return True
        if path == "/healthz/ready":
            if self.health is not None and self.health.ready:
                self._reply(200, "text/plain; charset=utf-8", b"ready\n")
            else:
                self._reply(503, "text/plain; charset=utf-8", b"not ready\n")
            return True
        return False

    def log_message(self, format, *args) -> None:
        """Silence per-request stderr chatter; scrapes are frequent."""


class _MetricsHandler(BaseEndpointHandler):
    """Routes /metrics, /healthz[/live|/ready] and /snapshot; 404 otherwise."""

    # Set by MetricsServer before the server starts.
    registry: MetricsRegistry = _default_registry

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_openmetrics(registry=self.registry).encode()
            self._reply(200, OPENMETRICS_CONTENT_TYPE, body)
        elif self.handle_health(path):
            pass
        elif path == "/snapshot":
            body = json.dumps(self.registry.snapshot(), default=str).encode()
            self._reply(200, "application/json", body)
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")


class MetricsServer:
    """Serves the registry over HTTP from a background daemon thread.

    Args:
        host: bind address; default loopback only.
        port: TCP port; 0 picks a free one (read it back from
            :attr:`port` after :meth:`start`).
        registry: metrics registry to expose; defaults to the
            process-wide one.

    Usable as a context manager; :meth:`stop` is idempotent.  The
    server is *ready* from :meth:`start` (it has no warmup) until
    :meth:`stop` begins draining.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._host = host
        self._port = int(port)
        self._registry = registry or _default_registry
        self._server: GracefulHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.health = HealthState()

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves 0 once the server has started)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        """Bind and start serving in a daemon thread; returns self."""
        if self._server is not None:
            return self
        handler = type(
            "_BoundMetricsHandler",
            (_MetricsHandler,),
            {"registry": self._registry, "health": self.health},
        )
        self._server = GracefulHTTPServer((self._host, self._port), handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()
        self.health.set_ready(True)
        return self

    def stop(self, drain_grace_s: float = 2.0) -> None:
        """Drain and shut down: readiness flips first, then the accept
        loop stops, in-flight scrapes get ``drain_grace_s`` to finish,
        and the listener closes."""
        server, thread = self._server, self._thread
        self._server = None
        self._thread = None
        self.health.set_ready(False)
        if server is not None:
            server.shutdown()
            server.drain(drain_grace_s)
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
