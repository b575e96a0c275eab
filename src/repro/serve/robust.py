"""The robust dispatcher: admission, deadlines, gather slots, brownout.

:class:`RobustDispatcher` is the policy layer between the HTTP handler
and the query engine.  Every request is computed **by the handler
thread that read it**, on the one engine over the one mapped backend
this process opened — there is no worker pool, so no question is
pickled, no queue thread woken, and the engine's spans and counters
land in the registry ``/metrics`` scrapes.  One request flows through :meth:`dispatch` as:

1. **drain check** — a draining server sheds immediately (503) so the
   load balancer's next health probe sees not-ready and moves on;
2. **admission** — bounded by queue depth and queue age
   (:mod:`repro.serve.admission`); shed requests never reach an engine;
3. **deadline** — the clamped per-request timeout becomes a
   ``monotonic_ns`` instant.  A request whose deadline has already
   passed when its ticket is admitted fails with
   :class:`~repro.exceptions.DeadlineExceededError` (504) before any
   compute;
4. **plan once** (:func:`repro.plan.plan_aggregate`).  **Brownout**
   (sustained shedding, or a degraded open) is a budget: a query that
   set none is planned under the model's stored RMSPE estimate.  A
   rollup hit stays exact, a partial sum/avg/stddev
   takes ``svd`` (stamped ``degraded: true`` with the estimate), and a
   plan that would ``stream``, or no route at all, is shed with reason
   ``brownout``.  A client's own budget is kept (``max_rmspe=0`` buys
   an exact ``factor`` answer).  A cell is never planned; it is
   ``degraded`` only on a store that lost its deltas;
5. **execute here, what you planned** — the plan goes back to the
   engine that made it.  A plan that gathers rows of U
   (``row_fetches > 0``: ``factor``, ``stream``, ``svd``) first takes
   one of ``workers`` **slots** — how many gathers compute at once —
   waiting no longer than its deadline: a gather still queued when its
   deadline passes is dropped before any compute (504), and it holds
   its admission ticket while it waits, so depth and age shedding see
   the backlog.  Cells, rollup hits, ``count`` and group-bys never take
   a slot.  The deadline is compared once more after execution, so a
   200 never arrives after its deadline, on any route.

What the process pool this replaced gave, and this does not: a *running*
gather cannot be abandoned mid-flight, so its 504 arrives when the
compute ends rather than at the deadline (the pool's waiter got its 504
on time while the worker kept burning a core for nobody); a hard crash
inside the engine (a segfault, not a Python exception — those stay
typed 500s) takes the server with it instead of one worker; and a ticket
is now held for ~0.3 ms of compute *under* the GIL rather than across a
wait that released it, so short requests queue for the GIL before step
2, where no bound counts them — a small burst seldom finds the depth
ceiling by itself, and past saturation admission sheds less than the
pool did (ROADMAP 4(d)).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path

from repro.core.store import CompressedMatrix
from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    RouteUnavailableError,
)
from repro.obs.registry import registry as _obs
from repro.plan import ROUTE_STREAM, ROUTE_SUMMARY, ROUTE_SVD
from repro.query.backend import as_backend
from repro.query.engine import (
    AggregateQuery,
    CellQuery,
    QueryEngine,
    coerce_query,
    usable_cpu_count,
)
from repro.query.groupby import bucket_series
from repro.query.parser import parse_query
from repro.serve.admission import AdmissionController
from repro.serve.config import ServeConfig

__all__ = ["RobustDispatcher"]

_ANSWERS = _obs.bind_counter("server.answers")
_GATHERS = _obs.bind_counter("server.gathers")
_SUMMARY_HITS = _obs.bind_counter("server.summary.hits")
_SUMMARY_MISSES = _obs.bind_counter("server.summary.misses")


class RobustDispatcher:
    """Admission + deadlines + gather slots + brownout around one engine.

    Opens the model once, mapped, with ``config.on_corrupt``: a damaged
    model raises its typed :class:`~repro.exceptions.StorageError` here
    unless the config allows a degraded open.

    Args:
        model_dir: a ``CompressedMatrix`` model directory.
        config: the serving thresholds.
    """

    def __init__(
        self, model_dir: str | Path, config: ServeConfig | None = None
    ) -> None:
        self.config = config or ServeConfig()
        self.model_dir = Path(model_dir)
        self.admission = AdmissionController(
            max_depth=self.config.max_queue_depth,
            max_age_ms=self.config.max_queue_age_ms,
            retry_after_s=self.config.retry_after_s,
        )
        #: How many gathers compute at once.
        self.workers = self.config.workers or usable_cpu_count()
        self._slots = threading.Semaphore(self.workers)
        self._backend = CompressedMatrix.open(
            self.model_dir, on_corrupt=self.config.on_corrupt, mapped=True
        )
        # Resolved once, for the engine and the group-bys alike.
        self._resolved = as_backend(self._backend)
        # One engine, healthy or in brownout (a degraded open stays in
        # brownout): brownout changes the budget, nothing else.
        self._engine = QueryEngine(self._resolved)
        self.model_degraded = self._backend.degraded
        #: Brownout's budget and ``svd`` answers' stamp.
        self.rmspe = self._backend.rmspe_estimate
        self._default_budget_ns = int(self.config.clamp_timeout_ms(None) * 1e6)
        self._shed_times: deque[float] = deque()
        self._shed_lock = threading.Lock()
        self._count_lock = threading.Lock()
        self._draining = False
        self._closed = False
        self.answers = 0
        self.gathers = 0
        self.degraded_answers = 0
        self.deadline_misses = 0
        self.summary_hits = 0
        self.summary_misses = 0
        self.summary_brownout_hits = 0
        _obs.watch("server.brownout", self._brownout_gauge)

    # -- lifecycle ------------------------------------------------------

    def warm(self) -> None:
        """Answer one cell, one rollup and one gather before taking
        traffic, planned as they will be served.

        The backend builds some tables on first use (the summary
        arrays, the delta index's row offsets and the row and column
        of each delta, which a ``stddev`` fold reads); without a warmup
        the first real request of each kind would build them inside its
        deadline.  Uncounted, and a no-op on an empty axis.
        """
        rows, cols = self._engine.shape
        if not (rows and cols):
            return
        for text in ("cell(0, 0)", "sum() rows 0:1", "stddev() rows 0:1 cols 0:1"):
            query = parse_query(text)
            try:
                self._engine.execute(query, plan=self._plan(query, self.model_degraded))
            except RouteUnavailableError:
                pass  # shed when served, so nothing to warm

    def drain(self) -> bool:
        """Stop admitting, wait out in-flight work, release the model.

        Returns True when in-flight requests finished inside the grace
        period, False when the grace expired first (the mapping is
        released regardless — bounded beats graceful).  Idempotent.
        """
        self._draining = True
        drained = self.admission.wait_idle(self.config.drain_grace_s)
        self.close()
        return drained

    def close(self) -> None:
        """Release the model mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._backend.close()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- brownout accounting --------------------------------------------

    def _note_shed(self) -> None:
        now = time.monotonic()
        with self._shed_lock:
            self._shed_times.append(now)
            self._prune_sheds_locked(now)

    def _prune_sheds_locked(self, now: float) -> None:
        window = self.config.brownout_window_s
        while self._shed_times and now - self._shed_times[0] > window:
            self._shed_times.popleft()

    def brownout_active(self) -> bool:
        """True while the server plans under the model's stated error:
        sustained shedding, or a model that opened degraded."""
        if self.model_degraded:
            return True
        now = time.monotonic()
        with self._shed_lock:
            self._prune_sheds_locked(now)
            return len(self._shed_times) >= self.config.brownout_sheds

    def _brownout_gauge(self) -> float:
        """The ``server.brownout`` gauge, read at each snapshot."""
        return 1.0 if self.brownout_active() else 0.0

    # -- dispatch -------------------------------------------------------

    def _count(self, attr: str, metric: str) -> None:
        """Bump one ``/stats`` total and its registry counter."""
        with self._count_lock:
            setattr(self, attr, getattr(self, attr) + 1)
        _obs.counter(metric).inc()

    def _admit(self):
        """Drain check, then admission; a shed feeds the brownout window."""
        if self._draining:
            raise self.admission.shed(
                "drain", "server is draining; connection will not be retried here"
            )
        try:
            return self.admission.admit()
        except OverloadedError:
            self._note_shed()
            raise

    def _plan(self, query, brownout: bool):
        """The plan a request is routed by, executed with or explained
        from — None for a cell, which is never planned.  Brownout plans
        under the model's estimate and refuses a streaming plan."""
        if not isinstance(query, AggregateQuery):
            return None
        budget = self.rmspe if brownout and query.max_rmspe is None else None
        plan = self._engine.plan(query, max_rmspe=budget)
        if brownout and plan.route.name == ROUTE_STREAM:
            raise RouteUnavailableError("streaming per-cell values is shed in brownout")
        return plan

    def _budget_ns(self, timeout_ms: float | None) -> int:
        """A request's time to answer: its clamped timeout, or the default."""
        if timeout_ms is None:
            return self._default_budget_ns
        return int(self.config.clamp_timeout_ms(timeout_ms) * 1e6)

    def dispatch(self, query, timeout_ms: float | None = None) -> dict:
        """Answer one request under the full robustness policy.

        ``query`` is any :func:`~repro.query.engine.coerce_query` form
        (query text, ``(row, col)``, engine query objects).  Raises:

        - :class:`~repro.exceptions.QueryError` — malformed (→ 400);
        - :class:`~repro.exceptions.OverloadedError` — shed (→ 503);
        - :class:`~repro.exceptions.DeadlineExceededError` — out of
          time (→ 504).

        Returns the response payload dict (value, accounting, degraded
        stamp, elapsed time).
        """
        if type(query) is not CellQuery and type(query) is not AggregateQuery:
            query = coerce_query(query)  # QueryError propagates (→ 400)
        start_ns = time.monotonic_ns()
        deadline_ns = start_ns + self._budget_ns(timeout_ms)
        ticket = self._admit()
        try:
            if time.monotonic_ns() >= deadline_ns:
                raise self._deadline_miss(start_ns, deadline_ns)
            # Asked only while something was shed in the window.
            brownout = self.model_degraded or (
                bool(self._shed_times) and self.brownout_active()
            )
            try:
                result, gathered = self._execute(query, brownout, start_ns, deadline_ns)
            except RouteUnavailableError:
                self._note_shed()
                raise self.admission.shed(
                    "brownout",
                    "server is in brownout (answers within the model's stated "
                    "error) and this query has no route it serves; retry after "
                    f"{self.config.retry_after_s:g}s",
                ) from None
            if time.monotonic_ns() >= deadline_ns:
                # Computed, but late: a 200 never follows its deadline.
                raise self._deadline_miss(start_ns, deadline_ns)
        finally:
            ticket.release()
        with self._count_lock:
            self.answers += 1
            if gathered:
                self.gathers += 1
        _ANSWERS.inc()
        if gathered:
            _GATHERS.inc()
        route = result.route
        # The bare SVD (a cell of a store that lost its deltas too).
        degraded = route == ROUTE_SVD
        if degraded:
            self._count("degraded_answers", "server.degraded_answers")
        elif brownout and route == ROUTE_SUMMARY:
            self._count("summary_brownout_hits", "server.summary.brownout_hits")
        payload = {
            "value": result.value,
            "cells": result.cells_touched,
            "rows_fetched": result.rows_fetched,
            "degraded": degraded,
            "elapsed_ms": round((time.monotonic_ns() - start_ns) / 1e6, 3),
        }
        if route:
            payload["route"] = route
            payload["error_bound"] = result.error_bound
        if degraded:
            payload["rmspe_estimate"] = self.rmspe
        profile = result.profile
        if profile is not None and profile.trace_id:
            payload["trace_id"] = profile.trace_id
        return payload

    def _deadline_miss(self, start_ns: int, deadline_ns: int) -> DeadlineExceededError:
        self._count("deadline_misses", "server.deadline_misses")
        return DeadlineExceededError(
            f"query exceeded its {int((deadline_ns - start_ns) / 1e6)} ms deadline"
        )

    def _execute(self, query, brownout: bool, start_ns: int, deadline_ns: int):
        """Plan for this mode and run that plan in this thread.

        Returns ``(result, gathered)``.  The test for a gather is
        ``row_fetches``, not ``pages``: a mapped backend's pages are
        logical only, so every route plans ``pages == 0``.
        """
        if type(query) is CellQuery:
            return self._engine.execute(query), False
        plan = self._plan(query, brownout)
        if plan.route.row_fetches == 0:
            return self._engine.execute(query, plan=plan), False
        left_s = max(0.0, (deadline_ns - time.monotonic_ns()) / 1e9)
        if not self._slots.acquire(timeout=left_s):
            raise self._deadline_miss(start_ns, deadline_ns)
        try:
            return self._engine.execute(query, plan=plan), True
        finally:
            self._slots.release()

    def groupby(
        self,
        by: str,
        function: str,
        limit: int | None = None,
        timeout_ms: float | None = None,
    ) -> dict:
        """A whole dashboard series from the summary store.

        A summary hit reads only the small rollup arrays (zero
        ``u.mat`` pages), so a group-by never takes a gather slot.
        Admission and the deadline still apply, as in :meth:`dispatch`:
        a model without a store streams the series, which is real work.
        Raises :class:`~repro.exceptions.QueryError` for a bad
        axis/function, :class:`~repro.exceptions.OverloadedError` when
        shed, :class:`~repro.exceptions.DeadlineExceededError` past the
        deadline.
        """
        start_ns = time.monotonic_ns()
        deadline_ns = start_ns + self._budget_ns(timeout_ms)
        ticket = self._admit()
        try:
            if time.monotonic_ns() >= deadline_ns:
                raise self._deadline_miss(start_ns, deadline_ns)
            series = bucket_series(self._resolved, by, function, limit)
            if time.monotonic_ns() >= deadline_ns:
                raise self._deadline_miss(start_ns, deadline_ns)
        finally:
            ticket.release()
        path = series["path"]
        hit = path == "summary"
        with self._count_lock:
            if hit:
                self.summary_hits += 1
            else:
                self.summary_misses += 1
        (_SUMMARY_HITS if hit else _SUMMARY_MISSES).inc()
        series["degraded"] = self._resolved.deltas_lost and path != "summary"
        series["elapsed_ms"] = round((time.monotonic_ns() - start_ns) / 1e6, 3)
        return series

    def explain(self, query) -> dict:
        """Plan a query without executing it.

        Plans as :meth:`dispatch` would *right now* — under the query's
        own budget while healthy, under the model's estimate while
        :meth:`brownout_active` — so the reported route is the executed
        route in either mode.  A brownout query :meth:`dispatch` would
        shed (:class:`~repro.exceptions.OverloadedError`) explains as
        ``path="shed"`` rather than inventing a plan.
        """
        coerced = coerce_query(query)
        brownout = self.brownout_active()
        try:
            plan = self._plan(coerced, brownout)
            described = plan.to_dict() if plan else self._engine.explain(coerced)
        except RouteUnavailableError as exc:
            described = {"path": "shed", "reason": str(exc)}
        described["mode"] = "brownout" if brownout else "healthy"
        return described

    # -- reporting ------------------------------------------------------

    def stats(self) -> dict:
        """The ``/stats`` endpoint's snapshot of serving health.

        ``answers`` counts every :meth:`dispatch` answer, ``gathers``
        those of them that took one of the ``workers`` slots.
        """
        return {
            "queue_depth": self.admission.depth,
            "queue_age_ms": round(self.admission.oldest_age_ms(), 3),
            "admitted_total": self.admission.admitted_total,
            "shed_total": self.admission.shed_total,
            "answers": self.answers,
            "gathers": self.gathers,
            "deadline_misses": self.deadline_misses,
            "degraded_answers": self.degraded_answers,
            "summary_hits": self.summary_hits,
            "summary_misses": self.summary_misses,
            "summary_brownout_hits": self.summary_brownout_hits,
            "brownout": self.brownout_active(),
            "model_degraded": self.model_degraded,
            "rmspe_estimate": self.rmspe,
            "draining": self._draining,
            "workers": self.workers,
        }
