"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  More specific
subclasses are grouped by subsystem (storage, numerics, queries, data)
so that tests and applications can discriminate failure modes without
string matching.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or combination of parameters was supplied."""


class ShapeError(ReproError, ValueError):
    """A matrix or vector had an incompatible or degenerate shape."""


class ConvergenceError(ReproError, ArithmeticError):
    """An iterative numerical routine failed to converge."""


class StorageError(ReproError, IOError):
    """Base class for errors from the paged storage subsystem."""


class PageError(StorageError):
    """A page id was out of range or a page was malformed."""


class StoreClosedError(StorageError):
    """An operation was attempted on a closed store."""


class ChecksumError(StorageError):
    """A page or file failed checksum validation when read back."""


class RetryExhaustedError(StorageError):
    """A transient I/O error persisted past the bounded retry budget."""


class FormatError(StorageError):
    """A file on disk did not match the expected binary format."""


class BudgetError(ConfigurationError):
    """A space budget was too small to hold even a minimal model."""


class QueryError(ReproError, ValueError):
    """A query referenced cells outside the matrix or was malformed."""


class RouteUnavailableError(QueryError):
    """The planner found no admissible route under the caller's budget.

    A subclass of :class:`QueryError` so plain callers still see a
    malformed-query error, but distinct so the serving tier can tell
    "this engine cannot answer that exactly right now" (shed with
    reason ``"brownout"``) apart from "the query itself is bad" (400).
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A query's deadline expired before (or while) it was answered.

    Raised by the serving tier when an admitted request runs out of
    time.
    """


class OverloadedError(ReproError):
    """The serving tier shed a request instead of queueing it unboundedly.

    Carries ``retry_after_s`` — the backoff hint the HTTP tier turns
    into a ``Retry-After`` header — and ``reason`` (``"depth"``,
    ``"age"``, ``"drain"`` or ``"brownout"``) naming which guard fired.
    """

    def __init__(
        self, message: str, retry_after_s: float = 1.0, reason: str = "depth"
    ) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)
        self.reason = reason


class DatasetError(ReproError, ValueError):
    """A dataset could not be generated or loaded as requested."""
