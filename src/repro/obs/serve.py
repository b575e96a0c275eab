"""Embedded HTTP plumbing for a serving process: a listening socket
served by reused handler threads, health states, and graceful drain.

:class:`GracefulHTTPServer` + :class:`HealthState` +
:class:`BaseEndpointHandler` are the substrate of the query tier in
:mod:`repro.serve.server`, their one client (its handler adds the
routes, ``/metrics`` and ``/snapshot`` among them).  **Thread model:**
the server owns the listening socket; every handler thread blocks in
``accept()`` on it itself (the kernel wakes exactly one per
connection), then reads the request head, routes it and writes the
response — one ``recv``, one parse by splitting, one ``sendall`` — and
loops.  A handler that was the last idle one starts a standby before it
serves, so a health probe is accepted even while every other handler
sits in a slow request.  The server counts in-flight requests so
:meth:`GracefulHTTPServer.drain` can wait them out under a bounded
grace period, and the health state splits *liveness* (the process is
up) from *readiness* (it should receive new traffic) the way
orchestrators expect: a draining process is still live — don't restart
it — but not ready — stop routing to it.
"""

from __future__ import annotations

import functools
import re
import socket
import threading
import time
import traceback
from email.utils import formatdate
from http import HTTPStatus

__all__ = [
    "BaseEndpointHandler",
    "GracefulHTTPServer",
    "HealthState",
    "OPENMETRICS_CONTENT_TYPE",
]

OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_TEXT = "text/plain; charset=utf-8"

# Request-head limits (the stdlib server's, kept): bytes, header lines.
_MAX_HEAD = 65536
_MAX_HEADERS = 100

_HEAD_END = re.compile(rb"\r?\n\r?\n")  # a bare LF ends a line too

#: Status code -> reason phrase, read once.
_PHRASES = {status.value: status.phrase for status in HTTPStatus}


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


class GracefulHTTPServer:
    """A listening socket served by reused handler threads, with a
    bounded drain.

    Handler threads accept for themselves (no accept loop, no hand-off:
    the module docstring's thread model) and live until
    :meth:`server_close`; their count is peak connections in flight
    plus the standby — admission, not a pool size, is what sheds — so
    no request pays for a thread start once warm.  A connection counts
    as in flight from its ``accept()`` until its handler has written
    the response, closed it and re-counted itself idle, so
    :meth:`drain` also waits on connected-but-silent clients — and a
    client that reacts to a reply before that handler has unwound is,
    for the count, one connection more in flight than it has requests
    outstanding.

    Args:
        address: ``(host, port)`` to bind; port 0 picks a free one
            (read it back from ``server_address``).
        handler_class: the :class:`BaseEndpointHandler` subclass to
            serve each connection with.
    """

    def __init__(self, address: tuple[str, int], handler_class: type) -> None:
        self._handler_class = handler_class
        self._active = 0
        self._idle = 0
        self._stopping = False
        # The counts' lock, taken as itself per connection (a plain lock
        # is entered in C); drain() waits on the condition built on it.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._handlers: list[threading.Thread] = []
        # Backlog 128: a small one overflows under a burst of concurrent
        # connections, which shows up as 1s/3s SYN-retransmit latency
        # spikes on *admitted* requests — the admission queue, not the
        # kernel, is where this tier sheds.
        self._listener = socket.create_server(address, backlog=128)
        self.server_address = self._listener.getsockname()
        self._start_handler()

    def _start_handler(self) -> None:
        """Start a handler thread, counted idle (later callers hold ``_lock``)."""
        self._idle += 1
        handler = threading.Thread(
            target=self._handle_connections,
            name=f"repro-http-handler-{len(self._handlers)}",
            daemon=True,
        )
        self._handlers.append(handler)
        handler.start()

    def _handle_connections(self) -> None:
        """One handler thread: accept and serve until the listener stops."""
        while True:
            try:
                connection, _address = self._listener.accept()
            except OSError:  # drain()'s wake, or a transient failure
                with self._lock:
                    if not self._stopping:
                        continue
                    self._idle -= 1
                    self._cond.notify_all()
                return
            with self._lock:
                self._active += 1
                self._idle -= 1
                if self._idle == 0 and not self._stopping:
                    self._start_handler()  # the standby
            try:
                self._handler_class(connection).handle()
            except Exception:
                # The boundary that must keep serving: record, move on.
                traceback.print_exc()
            finally:
                connection.close()
                with self._lock:
                    self._active -= 1
                    self._idle += 1
                    if self._stopping:  # only drain() waits on the counts
                        self._cond.notify_all()

    def server_close(self) -> None:
        """Close the listener and stop the handler threads (a handler
        still inside a request past the drain grace is a daemon; it is
        not waited for beyond a second)."""
        self.drain(0.0)
        self._listener.close()
        deadline = time.monotonic() + 1.0
        for handler in self._handlers:
            handler.join(timeout=max(0.0, deadline - time.monotonic()))
        self._handlers.clear()

    @property
    def handler_threads(self) -> int:
        """Handler threads started so far (peak in flight + standby)."""
        return len(self._handlers)

    @property
    def active_requests(self) -> int:
        with self._lock:
            return self._active

    def drain(self, grace_s: float) -> bool:
        """Stop accepting, then wait until no requests are in flight,
        bounded by ``grace_s``.

        Returns True when the server drained fully, False when the
        grace period expired with requests still running (the caller
        closes anyway — bounded beats graceful when they conflict).
        Handlers blocked in ``accept()`` are woken — by
        ``listener.shutdown(SHUT_RDWR)``, which fails a blocked
        ``accept()`` on Linux, where this tier runs and is tested;
        closing the socket would not — and waited out too, so a
        connection is either counted in flight or refused.
        """
        with self._cond:
            self._stopping = True
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already shut down
            return self._cond.wait_for(
                lambda: self._active == 0 and self._idle == 0,
                timeout=max(0.0, grace_s),
            )


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` header value — cached, so formatted once a second."""
    return formatdate(second, usegmt=True)


class BaseEndpointHandler:
    """One connection, one request: read the head, route, reply once.

    Subclasses implement ``do_GET`` against ``command``, ``path`` and
    ``headers`` (a dict keyed by lower-cased name), set ``health`` (class
    attribute, bound per-server) and route unknown paths through
    :meth:`handle_health` before 404ing.  The parser accepts what this
    tier serves and nothing else: ``GET <target> HTTP/1.x`` plus at
    most 100 ``name: value`` header lines in at most 64 KiB; anything
    else is answered 400 / 414 / 431 / 501 / 505 before a route runs.
    """

    #: Seconds a client has to deliver its whole request head (and to
    #: take the response); past it the connection is hung up on.  A
    #: client that sends nothing, or drips a byte at a time, would
    #: otherwise pin a handler thread and hold every drain to its grace.
    timeout = 2.0

    # Bound by the owning server object before serving starts.
    health: HealthState | None = None

    def __init__(self, connection: socket.socket) -> None:
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
        """Fill ``command`` / ``path`` / ``headers``, or return the
        ``(status, message)`` to refuse the head with."""
        lines = head.decode("latin-1").split("\n")
        if len(lines[0]) > _MAX_HEAD:
            return 414, "request line too long"
        if len(head) > _MAX_HEAD:
            return 431, "request head too large"
        words = lines[0].split()
        if len(words) != 3:
            return 400, "bad request line"
        self.command, self.path, version = words
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
        if self.command != "GET":
            return 501, f"unsupported method {self.command!r}"
        return None

    def _reply(
        self,
        status: int,
        content_type: str,
        body: bytes,
        extra_headers: dict | None = None,
    ) -> None:
        # One request per connection: an idle keep-alive connection
        # would pin a handler thread and stall drain() at its grace
        # cap, so the in-flight count must mean *requests*, not
        # connections.
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

    def handle_health(self, path: str) -> bool:
        """Answer the health routes; returns False for other paths.

        ``/healthz`` stays the bare liveness probe (``ok``) existing
        scrapers and the CI smoke test curl; ``/healthz/live`` spells
        it explicitly; ``/healthz/ready`` reflects the
        :class:`HealthState` — 503 while warming up or draining.
        """
        if path in ("/healthz", "/healthz/live"):
            self._reply(200, _TEXT, b"ok\n")
            return True
        if path == "/healthz/ready":
            if self.health is not None and self.health.ready:
                self._reply(200, _TEXT, b"ready\n")
            else:
                self._reply(503, _TEXT, b"not ready\n")
            return True
        return False
