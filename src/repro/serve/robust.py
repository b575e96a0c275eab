"""The robust dispatcher: deadlines, admission, breaker, brownout.

:class:`RobustDispatcher` is the policy layer between the HTTP handler
and :class:`~repro.query.process_executor.ProcessQueryExecutor`.  One
request flows through it as:

1. **drain check** — a draining server sheds immediately (503) so the
   load balancer's next health probe sees not-ready and moves on;
2. **admission** — bounded by queue depth and queue age
   (:mod:`repro.serve.admission`); shed requests never reach an engine;
3. **deadline** — the clamped per-request timeout becomes a
   ``monotonic_ns`` instant.  A request whose deadline has already
   passed when its ticket is admitted fails with
   :class:`~repro.exceptions.DeadlineExceededError` (504) before any
   compute, in the parent exactly as a worker drops a task that
   expired in its queue;
4. **brownout** — under sustained shedding, a tripped breaker, or a
   degraded model open, the request is answered in the parent by the
   SVD-only engine (``QueryEngine(include_deltas=False)``), whose
   planner (:func:`repro.plan.plan_aggregate`) admits exactly two
   aggregate routes: a full-axis selection covered by the materialized
   rollups is answered **exactly** (``degraded: false``, zero
   ``u.mat`` pages) — including min/max, which the SVD factors alone
   could not serve honestly — and everything else the factors can
   express rides the ``svd`` route: no delta pass, no worker
   round-trip, an answer stamped ``degraded: true`` with the model's
   stored residual estimate.  Queries with no admissible route
   (:class:`~repro.exceptions.RouteUnavailableError`) are shed instead
   of silently served wrong;
5. **execute where you planned, what you planned** — a healthy
   aggregate is planned exactly once, on the parent's delta-capable
   engine (the twin of the worker engines).  A plan that gathers no
   rows of U (``row_fetches == 0``: a full ``summary`` hit, ``count``)
   is handed back to that engine and executed right there, as is a
   single-cell probe (one mapped row, never planned): the answer costs
   less than pickling the question.  Such an answer says nothing about
   the pool, so it neither consults the breaker (it must not take the
   half-open probe slot) nor records a success on it;
6. **pool** — every plan that gathers (``factor``, ``stream``,
   ``summary+factor``) crosses to a worker — as the query, not the
   plan: nothing of a plan is pickled, the worker makes its own —
   past the **breaker**
   (:mod:`repro.serve.breaker`, fed by the executor's ``on_rebuild``
   hook; a refusal is answered as in 4) with its deadline travelling
   with the task: still queued when it expires, it is dropped *in the
   worker*; still running, the waiter fails with a 504.

A worker crash mid-request surfaces as ``BrokenProcessPool`` on the
future; the dispatcher retries exactly once against the rebuilt pool —
which is what turns "a worker died" into zero client-visible 5xx
(beyond deadline 504s) in the chaos tests.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from repro.core.store import CompressedMatrix
from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    RouteUnavailableError,
)
from repro.obs.registry import registry as _obs
from repro.plan import ROUTE_SUMMARY
from repro.query.engine import AggregateQuery, CellQuery, QueryEngine
from repro.query.executor import coerce_query
from repro.query.groupby import bucket_series
from repro.query.process_executor import ProcessQueryExecutor
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import ServeConfig

__all__ = ["RobustDispatcher", "rmspe_estimate"]


def rmspe_estimate(model_dir: str | Path) -> float | None:
    """The model's stored residual error fraction, if recorded.

    ``update_state.json`` tracks the energies the incremental
    maintenance path needs (total signal energy and the SSE the rank-k
    truncation left behind); their ratio's square root is the stored
    estimate of the relative reconstruction error a brownout (SVD-only)
    answer carries.  None when the model predates the update subsystem.
    """
    from repro.core.update import stored_rmspe_estimate

    return stored_rmspe_estimate(model_dir)


class RobustDispatcher:
    """Admission + deadlines + breaker + brownout around the pool.

    Args:
        model_dir: a ``CompressedMatrix`` model directory.
        config: the serving thresholds.
        verified_rmspe: warehouse-catalog RMSPE to stamp on degraded
            answers; falls back to the model's stored estimate.
    """

    def __init__(
        self,
        model_dir: str | Path,
        config: ServeConfig | None = None,
        verified_rmspe: float | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.model_dir = Path(model_dir)
        self.admission = AdmissionController(
            max_depth=self.config.max_queue_depth,
            max_age_ms=self.config.max_queue_age_ms,
            retry_after_s=self.config.retry_after_s,
        )
        self.breaker = CircuitBreaker(
            failures=self.config.breaker_failures,
            window_s=self.config.breaker_window_s,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.executor = ProcessQueryExecutor(
            self.model_dir,
            max_workers=self.config.workers,
            on_corrupt=self.config.on_corrupt,
            on_rebuild=self.breaker.record_failure,
        )
        # Parent-side SVD-only engine: the brownout answer path.  A
        # "degraded" open tolerates a damaged delta sidecar — exactly
        # the state brownout exists to keep serving through.
        self._fallback_backend = CompressedMatrix.open(
            self.model_dir, on_corrupt="degraded", mapped=True
        )
        self._fallback = QueryEngine(self._fallback_backend, include_deltas=False)
        # Twin of the *worker* engines (delta-capable, same mapped
        # backend): it plans every healthy request —
        # so explain describes the route a worker would take — and
        # answers the ones that gather no rows of U.
        self._planning = QueryEngine(self._fallback_backend)
        self.model_degraded = self._fallback_backend.degraded
        self.rmspe = (
            verified_rmspe
            if verified_rmspe is not None
            else rmspe_estimate(self.model_dir)
        )
        self._shed_times: deque[float] = deque()
        self._shed_lock = threading.Lock()
        self._count_lock = threading.Lock()
        self._draining = False
        self._closed = False
        self.parent_answers = 0
        self.pool_answers = 0
        self.degraded_answers = 0
        self.deadline_misses = 0
        self.pool_retries = 0
        self.summary_hits = 0
        self.summary_partial = 0
        self.summary_misses = 0
        self.summary_brownout_hits = 0

    # -- lifecycle ------------------------------------------------------

    def warm(self, timeout_s: float = 30.0) -> None:
        """Fork and bootstrap the worker pool before taking traffic.

        ``ProcessPoolExecutor`` forks lazily on first submit; without a
        warmup the first real request would pay the full fork +
        model-open cost inside its deadline.
        """
        shape = self._fallback.shape
        probe = CellQuery(0, 0) if shape[0] and shape[1] else None
        if probe is not None:
            self.executor.submit(probe).result(timeout=timeout_s)

    def drain(self) -> bool:
        """Stop admitting, wait out in-flight work, stop the pool.

        Returns True when in-flight requests finished inside the grace
        period, False when the grace expired first (the pool is shut
        down regardless — bounded beats graceful).  Idempotent.
        """
        self._draining = True
        drained = self.admission.wait_idle(self.config.drain_grace_s)
        self.close()
        return drained

    def close(self) -> None:
        """Release the pool and the fallback mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown(wait=True)
        self._fallback_backend.close()

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
        """True while the server should answer from the SVD fast path
        only: sustained shedding, a tripped breaker, or a model whose
        delta sidecar failed verification at open."""
        if self.model_degraded:
            active = True
        elif self.breaker.state == "open":
            active = True
        else:
            now = time.monotonic()
            with self._shed_lock:
                self._prune_sheds_locked(now)
                active = len(self._shed_times) >= self.config.brownout_sheds
        _obs.gauge("server.brownout").set(1 if active else 0)
        return active

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

    @staticmethod
    def _plan(engine: QueryEngine, query):
        """``engine``'s plan for an aggregate — the one object a request
        is routed by, executed with or explained from — or None for a
        cell probe, which is never planned."""
        return engine.plan(query) if isinstance(query, AggregateQuery) else None

    @staticmethod
    def _gathers(plan) -> bool:
        """True when ``plan`` gathers rows of U.

        Gathers are the pool's work; what is left — full rollup hits,
        ``count``, one mapped row for a cell (no plan) — the parent
        answers.  The test is ``row_fetches``, not ``pages``: a mapped
        backend's pages are logical only, so every route plans
        ``pages == 0``.
        """
        return plan is not None and plan.route.row_fetches > 0

    def dispatch(self, query, timeout_ms: float | None = None) -> dict:
        """Answer one request under the full robustness policy.

        ``query`` is any executor-accepted form (query text, ``(row,
        col)``, engine query objects).  Raises:

        - :class:`~repro.exceptions.QueryError` — malformed (→ 400);
        - :class:`~repro.exceptions.OverloadedError` — shed (→ 503);
        - :class:`~repro.exceptions.DeadlineExceededError` — out of
          time (→ 504).

        Returns the response payload dict (value, accounting, degraded
        stamp, elapsed time).
        """
        coerced = coerce_query(query)  # QueryError propagates (→ 400)
        budget_ms = self.config.clamp_timeout_ms(timeout_ms)
        start_ns = time.monotonic_ns()
        deadline_ns = start_ns + int(budget_ms * 1e6)
        with self._admit():
            if time.monotonic_ns() >= deadline_ns:
                raise self._deadline_miss(start_ns, deadline_ns)
            brownout = self.brownout_active()
            plan = None if brownout else self._plan(self._planning, coerced)
            if self._gathers(plan):
                if self.breaker.allow():
                    return self._dispatch_pool(coerced, start_ns, deadline_ns)
                # Open breaker but brownout says calm — races between
                # the two checks land here; treat it as brownout, on
                # the SVD-only engine's own plan.
                brownout, plan = True, None
            return self._answer_here(coerced, start_ns, brownout, plan)

    def _deadline_miss(self, start_ns: int, deadline_ns: int) -> DeadlineExceededError:
        self._count("deadline_misses", "server.deadline_misses")
        return DeadlineExceededError(
            f"query exceeded its {int((deadline_ns - start_ns) / 1e6)} ms deadline"
        )

    def _dispatch_pool(self, query, start_ns: int, deadline_ns: int) -> dict:
        """A plan that gathers: run on the worker pool under a deadline."""
        attempts = 0
        while True:
            attempts += 1
            try:
                future = self.executor.submit(query, deadline_ns=deadline_ns)
                remaining_s = max(0.0, (deadline_ns - time.monotonic_ns()) / 1e9)
                result = future.result(timeout=remaining_s)
                self.breaker.record_success()
                self._count("pool_answers", "server.answers.pool")
                return self._payload(result, start_ns, degraded=False)
            except DeadlineExceededError:
                # Worker-side queue drop: the deadline passed before a
                # worker picked the task up.  Must precede the
                # FuturesTimeoutError clause — on modern CPython that
                # is an alias of builtin TimeoutError, which
                # DeadlineExceededError subclasses.
                self._count("deadline_misses", "server.deadline_misses")
                raise
            except FuturesTimeoutError:
                future.cancel()
                raise self._deadline_miss(start_ns, deadline_ns) from None
            except BrokenProcessPool:
                # A worker died under this request.  The executor
                # rebuilds its pool on the next submit (feeding the
                # breaker via on_rebuild); retry exactly once so a lone
                # crash stays invisible to the client.
                if attempts >= 2 or time.monotonic_ns() >= deadline_ns:
                    self._note_shed()
                    raise self.admission.shed(
                        "breaker",
                        "worker pool is unstable; retry after "
                        f"{self.config.retry_after_s:g}s",
                    ) from None
                self._count("pool_retries", "server.pool_retries")

    def _answer_here(self, query, start_ns: int, brownout: bool, plan) -> dict:
        """Execute in the parent, on this mode's engine.

        Healthy, that is the delta-capable twin of the workers running
        ``plan``, the one the request was routed by: same plan, same
        arithmetic, bit-identical value, never degraded.  In
        brownout it is the SVD-only engine (module docstring, step 4):
        only a ``summary``-route answer is exact, so NOT degraded —
        which is what un-sheds min/max; every other aggregate and every
        cell (``svd_cell``) is the bare factors, stamped degraded with
        the stored RMSPE, and a query with no admissible route is shed
        instead of silently served wrong.
        """
        try:
            engine = self._fallback if brownout else self._planning
            result = engine.execute(query, plan=plan)
        except RouteUnavailableError:
            self._note_shed()
            raise self.admission.shed(
                "brownout",
                "server is in brownout (SVD-only answers) and this query "
                "needs per-cell values; retry after "
                f"{self.config.retry_after_s:g}s",
            ) from None
        self._count("parent_answers", "server.answers.parent")
        degraded = brownout and result.route != ROUTE_SUMMARY
        if degraded:
            self._count("degraded_answers", "server.degraded_answers")
        elif brownout:
            self._count("summary_brownout_hits", "server.summary.brownout_hits")
        return self._payload(result, start_ns, degraded=degraded)

    def _payload(self, result, start_ns: int, degraded: bool) -> dict:
        elapsed_ms = (time.monotonic_ns() - start_ns) / 1e6
        payload = {
            "value": result.value,
            "cells": result.cells_touched,
            "rows_fetched": result.rows_fetched,
            "degraded": degraded,
            "elapsed_ms": round(elapsed_ms, 3),
        }
        if result.route:
            payload["route"] = result.route
            payload["error_bound"] = result.error_bound
        if degraded:
            payload["rmspe_estimate"] = self.rmspe
        if result.profile is not None and result.profile.trace_id:
            payload["trace_id"] = result.profile.trace_id
        return payload

    def groupby(self, by: str, function: str, limit: int | None = None) -> dict:
        """A whole dashboard series from the summary store.

        Runs in the parent against the mapped fallback backend — a
        summary hit reads only the small rollup arrays (zero ``u.mat``
        pages, no pool round-trip), which is why group-bys stay cheap
        even while the pool is rebuilding.  Admission still applies: a
        stale store's streamed residual is real work.  Raises
        :class:`~repro.exceptions.QueryError` for a bad axis/function,
        :class:`~repro.exceptions.OverloadedError` when shed.
        """
        start_ns = time.monotonic_ns()
        with self._admit():
            series = bucket_series(self._fallback_backend, by, function, limit)
        path = series["path"]
        if path == "summary":
            self._count("summary_hits", "server.summary.hits")
        elif path == "summary+stream":
            self._count("summary_partial", "server.summary.partial")
        else:
            self._count("summary_misses", "server.summary.misses")
        series["degraded"] = bool(self.model_degraded and path != "summary")
        series["elapsed_ms"] = round((time.monotonic_ns() - start_ns) / 1e6, 3)
        return series

    def explain(self, query) -> dict:
        """Plan a query without executing it (no pool round-trip).

        Runs against the parent-side engine whose mode matches how
        :meth:`dispatch` would answer *right now*: the delta-capable
        twin of the pool workers while healthy, the SVD-only brownout
        engine while :meth:`brownout_active` — so the reported route is
        the executed route in either mode, and ``executes_in`` says
        which side of the process boundary would run it (``"pool"``
        only for a healthy plan that gathers).  A brownout query with
        no admissible route explains as ``path="shed"`` (dispatch would
        raise :class:`~repro.exceptions.OverloadedError`) rather than
        inventing a plan.
        """
        coerced = coerce_query(query)
        brownout = self.brownout_active()
        engine = self._fallback if brownout else self._planning
        plan = None
        try:
            plan = self._plan(engine, coerced)
            described = plan.to_dict() if plan else engine.explain(coerced)
        except RouteUnavailableError as exc:
            described = {"path": "shed", "reason": str(exc)}
        described["mode"] = "brownout" if brownout else "healthy"
        pool = not brownout and self._gathers(plan)
        described["executes_in"] = "pool" if pool else "parent"
        return described

    # -- reporting ------------------------------------------------------

    def stats(self) -> dict:
        """The ``/stats`` endpoint's snapshot of serving health.

        ``parent_answers`` / ``pool_answers`` split :meth:`dispatch`'s
        answers by the side of the process boundary that computed them,
        so ``worker_metrics.queries`` counts gathers only.
        """
        return {
            "queue_depth": self.admission.depth,
            "queue_age_ms": round(self.admission.oldest_age_ms(), 3),
            "admitted_total": self.admission.admitted_total,
            "shed_total": self.admission.shed_total,
            "parent_answers": self.parent_answers,
            "pool_answers": self.pool_answers,
            "deadline_misses": self.deadline_misses,
            "degraded_answers": self.degraded_answers,
            "pool_retries": self.pool_retries,
            "pool_restarts": self.executor.restarts,
            "breaker_state": self.breaker.state,
            "breaker_trips": self.breaker.trips,
            "summary_hits": self.summary_hits,
            "summary_partial": self.summary_partial,
            "summary_misses": self.summary_misses,
            "summary_brownout_hits": self.summary_brownout_hits,
            "brownout": self.brownout_active(),
            "model_degraded": self.model_degraded,
            "rmspe_estimate": self.rmspe,
            "draining": self._draining,
            "workers": self.executor.max_workers,
            "worker_metrics": self.executor.worker_metrics(),
        }
