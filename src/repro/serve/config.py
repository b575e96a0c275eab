"""Serving-tier configuration: every robustness knob in one place.

The thresholds interlock — queue age only means something relative to
the default deadline, brownout only triggers off shed bursts the
admission controller produces — so they live in one frozen dataclass
that the CLI builds from flags and the tests build directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for :class:`~repro.serve.server.QueryServer`.

    Attributes:
        host: bind address (loopback by default).
        port: TCP port; 0 picks a free one.
        workers: how many gathers (aggregates that read rows of U)
            compute at once; further ones wait for a slot, no longer
            than their deadline (None → the CPUs this process may run
            on).
        max_queue_depth: admitted-but-unfinished request ceiling;
            beyond it new requests are shed with 503.
        max_queue_age_ms: when the *oldest* admitted request has been
            in the system this long, new arrivals are shed — depth says
            how much is queued, age says how stale the queue is.
        default_timeout_ms: per-request deadline applied when the
            client sends none.
        max_timeout_ms: ceiling on client-requested deadlines (a
            client asking for an hour still gets this).
        retry_after_s: the ``Retry-After`` hint attached to shed
            responses.
        drain_grace_s: how long SIGTERM waits for in-flight requests
            before closing anyway.
        brownout_sheds: shed events within ``brownout_window_s`` that
            flip the server into brownout (SVD-only answers).
        brownout_window_s: sliding window for counting those sheds.
        on_corrupt: forwarded to the server's one
            ``CompressedMatrix.open`` ("raise" refuses to serve a
            damaged model; "degraded" starts serving even with a
            damaged delta sidecar — answers carry ``degraded: true``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int | None = None
    max_queue_depth: int = 64
    max_queue_age_ms: float = 2_000.0
    default_timeout_ms: float = 5_000.0
    max_timeout_ms: float = 60_000.0
    retry_after_s: float = 1.0
    drain_grace_s: float = 5.0
    brownout_sheds: int = 8
    brownout_window_s: float = 10.0
    on_corrupt: str = "raise"

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        for name in (
            "max_queue_age_ms",
            "default_timeout_ms",
            "max_timeout_ms",
            "retry_after_s",
            "drain_grace_s",
            "brownout_window_s",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.brownout_sheds < 1:
            raise ConfigurationError(
                f"brownout_sheds must be >= 1, got {self.brownout_sheds}"
            )

    def clamp_timeout_ms(self, requested: float | None) -> float:
        """The effective deadline for one request, in milliseconds."""
        if requested is None:
            return min(self.default_timeout_ms, self.max_timeout_ms)
        return max(1.0, min(float(requested), self.max_timeout_ms))
