"""Bounded admission with load shedding.

The failure mode this prevents: a burst of queries outruns the gather
slots, the queue grows without bound, every queued request eventually
times out, and the server spends its capacity computing answers nobody
is waiting for anymore.  Classic remedy (and the one this module
implements): **admit a bounded amount of work and shed the rest
early**, with a ``Retry-After`` hint so well-behaved clients back off.

Two guards, checked at admission time:

- **depth** — admitted-but-unfinished requests ≥ ``max_depth``;
- **age** — the *oldest* in-flight request has been in the system
  longer than ``max_age_ms``.  Depth alone misses the pathological
  case where a few slow queries hold every slot: the queue is short but
  stale, and piling new work behind it only manufactures deadline
  misses.

Both fire :class:`~repro.exceptions.OverloadedError` (the HTTP tier
maps it to ``503`` + ``Retry-After``) and count into
``server.shed.<reason>``.  Admission itself is a ticket, released once
(a context manager, or ``release()`` in a ``finally``), so the depth
can never leak on an error path.  The ``server.queue_depth`` and
``server.queue_age_ms`` gauges are watched: a snapshot reads them off
the in-flight table, and no request writes them.
"""

from __future__ import annotations

import threading
import time

from repro.exceptions import OverloadedError
from repro.obs.registry import registry as _obs

__all__ = ["AdmissionController"]

_ADMITTED = _obs.bind_counter("server.admitted")
_SHED = _obs.bind_counter("server.shed")


class AdmissionController:
    """Tracks in-flight requests; admits or sheds new arrivals.

    Args:
        max_depth: ceiling on concurrently admitted requests.
        max_age_ms: staleness ceiling on the oldest admitted request.
        retry_after_s: backoff hint carried by the shed error.
    """

    def __init__(
        self, max_depth: int, max_age_ms: float, retry_after_s: float = 1.0
    ) -> None:
        self.max_depth = int(max_depth)
        self.max_age_ms = float(max_age_ms)
        self.retry_after_s = float(retry_after_s)
        self._lock = threading.Lock()
        self._next_ticket = 0
        #: ticket id -> monotonic_ns admission instant (insertion
        #: ordered, so the first value is always the oldest).
        self._inflight: dict[int, int] = {}
        self.admitted_total = 0
        self.shed_total = 0
        _obs.watch("server.queue_depth", self._depth_gauge)
        _obs.watch("server.queue_age_ms", self.oldest_age_ms)

    # -- observation ----------------------------------------------------

    def _depth_gauge(self) -> float:
        return float(len(self._inflight))

    @property
    def depth(self) -> int:
        """Admitted-but-unfinished requests right now."""
        with self._lock:
            return len(self._inflight)

    def oldest_age_ms(self) -> float:
        """Age of the oldest in-flight request (0.0 when idle)."""
        with self._lock:
            return self._oldest_age_ms_locked(time.monotonic_ns())

    def _oldest_age_ms_locked(self, now_ns: int) -> float:
        if not self._inflight:
            return 0.0
        oldest_ns = next(iter(self._inflight.values()))
        return (now_ns - oldest_ns) / 1e6

    # -- admission ------------------------------------------------------

    def shed(self, reason: str, message: str | None = None) -> OverloadedError:
        """Count one shed and build the error to raise for it.

        Shared by the two admission guards here and by the dispatcher's
        drain/brownout sheds, so every 503 the server ever
        sends flows through one counter family.
        """
        with self._lock:
            self.shed_total += 1
        _SHED.inc()
        _obs.counter(f"server.shed.{reason}").inc()
        return OverloadedError(
            message or f"overloaded ({reason}); retry after "
            f"{self.retry_after_s:g}s",
            retry_after_s=self.retry_after_s,
            reason=reason,
        )

    def admit(self) -> "_Ticket":
        """Admit one request or raise :class:`OverloadedError`.

        Use as a context manager::

            with controller.admit():
                ... run the query ...
        """
        now_ns = time.monotonic_ns()
        inflight = self._inflight
        with self._lock:
            depth = len(inflight)
            if depth >= self.max_depth:
                pass
            elif depth and (now_ns - next(iter(inflight.values()))) / 1e6 > self.max_age_ms:
                raise self._shed_locked_age(now_ns)
            else:
                self._next_ticket = ticket = self._next_ticket + 1
                inflight[ticket] = now_ns
                self.admitted_total += 1
                _ADMITTED.inc()
                admitted = _new_ticket(_Ticket)
                admitted._controller = self
                admitted._id = ticket
                return admitted
        # Depth shed: raise outside the lock (shed() re-acquires it).
        raise self.shed(
            "depth",
            f"queue depth {depth} at ceiling {self.max_depth}; "
            f"retry after {self.retry_after_s:g}s",
        )

    def _shed_locked_age(self, now_ns: int) -> OverloadedError:
        # Called with the lock held; inline the shed bookkeeping.
        self.shed_total += 1
        _SHED.inc()
        _obs.counter("server.shed.age").inc()
        age = self._oldest_age_ms_locked(now_ns)
        return OverloadedError(
            f"oldest queued request is {age:.0f} ms old "
            f"(ceiling {self.max_age_ms:g} ms); retry after "
            f"{self.retry_after_s:g}s",
            retry_after_s=self.retry_after_s,
            reason="age",
        )

    def wait_idle(self, grace_s: float) -> bool:
        """Busy-wait (coarsely) until no requests are in flight.

        Used by drain: returns True once idle, False when ``grace_s``
        expired first.  Polling at 10 ms is fine here — drain happens
        once per process lifetime.
        """
        deadline = time.monotonic() + max(0.0, grace_s)
        while self.depth > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)
        return True


class _Ticket:
    """One admitted request; releasing is idempotent.  Made by
    :meth:`AdmissionController.admit`."""

    __slots__ = ("_controller", "_id")

    def release(self) -> None:
        ticket, self._id = self._id, None
        if ticket is not None:
            controller = self._controller
            with controller._lock:
                controller._inflight.pop(ticket, None)

    def __enter__(self) -> "_Ticket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


_new_ticket = object.__new__
