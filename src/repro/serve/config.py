"""Serving-tier configuration: every robustness knob in one place.

The thresholds interlock — queue age only means something relative to
the default deadline, brownout only triggers off shed bursts the
admission controller produces — so they live in one frozen dataclass
that the CLI builds from flags and the tests build directly; the
defaults and their descriptions are written here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError

__all__ = ["ServeConfig"]


def _knob(default, help: str):
    """A config field carrying the one copy of its prose."""
    return field(default=default, metadata={"help": help})


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for :class:`~repro.serve.server.QueryServer`.

    Each field's ``help`` is its documentation, and its name, type,
    default and help are its ``repro serve`` flag (:mod:`repro.cli`
    derives the flags from these fields).
    """

    host: str = _knob("127.0.0.1", "bind address")
    port: int = _knob(0, "TCP port (0 picks a free one)")
    workers: int | None = _knob(
        None,
        "gathers (aggregates that read rows of U) computing at once; "
        "further ones wait for a slot, no longer than their deadline "
        "(default: the CPUs this process may run on)",
    )
    max_queue_depth: int = _knob(
        64,
        "admitted-but-unfinished request ceiling; beyond it new requests "
        "are shed (503)",
    )
    max_queue_age_ms: float = _knob(
        2_000.0,
        "shed new requests when the oldest admitted one has been in the "
        "system this long (depth says how much is queued, age how stale)",
    )
    default_timeout_ms: float = _knob(
        5_000.0, "per-request deadline when the client sends none"
    )
    max_timeout_ms: float = _knob(60_000.0, "ceiling on client-requested deadlines")
    retry_after_s: float = _knob(1.0, "Retry-After hint on shed (503) responses")
    drain_grace_s: float = _knob(
        5.0, "SIGTERM waits this long for in-flight requests before closing anyway"
    )
    brownout_sheds: int = _knob(
        8, "sheds within the window that trigger brownout (SVD-only answers)"
    )
    brownout_window_s: float = _knob(
        10.0, "sliding window for counting those sheds, in seconds"
    )
    on_corrupt: str = _knob(
        "raise",
        "forwarded to the server's one CompressedMatrix.open: 'raise' "
        "refuses to serve a damaged model; 'degraded' serves even if the "
        "delta sidecar fails verification (answers stamped degraded)",
    )

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
