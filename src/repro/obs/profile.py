"""Per-query execution profiles.

A :class:`QueryProfile` is the paper's cost model made observable for
one query: which path answered it (factor space, row streaming, or a
single-cell probe), how many backend rows it fetched, how many buffer
pool page accesses and physical reads those cost, and where the
nanoseconds went (factor gather / GEMM / delta folding / streaming).

The engine only builds profiles while the process-wide registry is
enabled; a disabled run returns results whose ``profile`` is None and
pays nothing beyond the guard branch.

:func:`counters` is the capture half: it reads the pool, pager and
delta-index counters a resolved
:class:`~repro.query.backend.Backend` names in ``Backend.counters``
(resolved once per backend), before the query and after; the
difference, ``map(operator.sub, after, before)``, is a profile's
fields from ``pages_read`` to ``delta_keys_probed``.  A backend without
a paged store or without deltas reads zeros there.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

__all__ = ["QueryProfile", "counters"]


@dataclass(slots=True)
class QueryProfile:
    """Execution accounting for one answered query.

    Slotted, not frozen (a frozen build pays an ``object.__setattr__``
    per field, per traced probe); nothing mutates one once handed out.

    The pool, I/O and delta counts are differences of process-wide
    counters read before and after the query, so they include whatever
    other threads on the same backend did meanwhile — true of every
    gather ``repro serve`` answers in its handler threads.  The wall
    times are this query's own.
    """

    #: 'factor' | 'stream' | 'cell' — the path that produced the value.
    path: str
    #: Aggregate function, or None for cell queries.
    function: str | None
    #: Cells the selection covers.
    cells: int
    #: Backend row fetches the evaluation performed.
    rows_fetched: int
    #: Buffer-pool page accesses during the query (hits+misses+bypasses).
    pages_read: int
    pool_hits: int = 0
    pool_misses: int = 0
    pool_bypasses: int = 0
    pool_evictions: int = 0
    #: Physical pager reads / bytes under those pool accesses.
    io_reads: int = 0
    io_bytes_read: int = 0
    #: Delta-index probes resolved during the query.
    delta_lookups: int = 0
    delta_keys_probed: int = 0
    #: Wall time of the whole query and of its phases, in nanoseconds.
    total_ns: int = 0
    gather_ns: int = 0
    gemm_ns: int = 0
    delta_ns: int = 0
    stream_ns: int = 0
    #: Backend class name, for context in dumped profiles.
    backend: str = ""
    #: Achieved error bound of the route that answered the query: 0.0
    #: for exact routes, the model's stored RMSPE estimate for an
    #: ``svd``-route answer.
    error_bound: float = 0.0
    #: Pages the planner predicted the chosen route would touch; pair
    #: with ``pages_read`` (measured) to audit the cost model.  None
    #: for unplanned (cell) queries.
    predicted_pages: int | None = None
    #: Trace id of the span tree this query ran under — the join key
    #: between profiles, structured log lines and span trees.
    trace_id: str = ""

    @property
    def pool_hit_rate(self) -> float:
        """Fraction of this query's page accesses served from memory."""
        return self.pool_hits / self.pages_read if self.pages_read else 0.0

    def to_dict(self) -> dict:
        """All fields plus the derived ``pool_hit_rate``, JSON-ready."""
        out = asdict(self)
        out["pool_hit_rate"] = self.pool_hit_rate
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """The profile serialized as JSON (the CLI ``--profile`` output)."""
        return json.dumps(self.to_dict(), indent=indent, default=str)


def counters(sources: tuple) -> tuple[int, ...]:
    """The counters a profile diffs, in QueryProfile's field order from
    ``pages_read`` (pool hits + misses + bypasses) to
    ``delta_keys_probed``; ``sources`` is a backend's ``(pool stats,
    I/O stats, delta-index stats)``, each None when absent."""
    pool, io, delta = sources
    hits, misses, bypasses, evictions = (
        (0, 0, 0, 0)
        if pool is None
        else (pool.hits, pool.misses, pool.bypasses, pool.evictions)
    )
    return (
        hits + misses + bypasses,
        hits,
        misses,
        bypasses,
        evictions,
        *((0, 0) if io is None else (io.reads, io.bytes_read)),
        *((0, 0) if delta is None else (delta["lookups"], delta["keys_probed"])),
    )
