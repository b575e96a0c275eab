"""The robust dispatcher: admission, deadlines, gather slots, brownout.

:class:`RobustDispatcher` is the policy layer between the HTTP handler
and the query engine.  Every request is computed **by the handler
thread that read it**, on engines over one mapped backend this process
opened — there is no worker pool, so no question is pickled, no queue
thread woken, and the engine's spans and counters land in the registry
``/metrics`` scrapes.  One request flows through :meth:`dispatch` as:

1. **drain check** — a draining server sheds immediately (503) so the
   load balancer's next health probe sees not-ready and moves on;
2. **admission** — bounded by queue depth and queue age
   (:mod:`repro.serve.admission`); shed requests never reach an engine;
3. **deadline** — the clamped per-request timeout becomes a
   ``monotonic_ns`` instant.  A request whose deadline has already
   passed when its ticket is admitted fails with
   :class:`~repro.exceptions.DeadlineExceededError` (504) before any
   compute;
4. **plan once, on the engine that will answer** — the delta-capable
   engine while healthy; under **brownout** (sustained shedding, or a
   degraded model open) the SVD-only engine
   (``QueryEngine(include_deltas=False)``), whose planner
   (:func:`repro.plan.plan_aggregate`) admits exactly two aggregate
   routes: a full-axis selection covered by the materialized rollups is
   answered **exactly** (``degraded: false``, zero ``u.mat`` pages) —
   including min/max, which the SVD factors alone could not serve
   honestly — and everything else the factors can express rides the
   ``svd`` route: no delta pass, an answer stamped ``degraded: true``
   with the model's stored residual estimate.  Queries with no
   admissible route (:class:`~repro.exceptions.RouteUnavailableError`)
   are shed instead of silently served wrong.  A cell probe is never
   planned;
5. **execute here, what you planned** — the plan goes back to the
   engine that made it.  A plan that gathers rows of U
   (``row_fetches > 0``: ``factor``, ``stream``, ``summary+factor``,
   ``svd``) first takes one of ``workers`` **slots** — how many gathers
   compute at once — waiting no longer than its deadline: a gather
   still queued when its deadline passes is dropped before any compute
   (504), and it holds its admission ticket while it waits, so depth
   and age shedding see the backlog.  Cells, full rollup hits,
   ``count`` and group-bys never take a slot.  The deadline is compared
   once more after execution, so a 200 never arrives after its
   deadline, on any route.

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
from repro.plan import ROUTE_SUMMARY
from repro.query.engine import AggregateQuery, QueryEngine
from repro.query.executor import coerce_query, usable_cpu_count
from repro.query.groupby import bucket_series
from repro.query.parser import parse_query
from repro.serve.admission import AdmissionController
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
        # Two engines over the one backend: delta-capable (healthy) and
        # SVD-only (brownout).  A degraded open — a damaged delta
        # sidecar tolerated — is the state brownout keeps serving through.
        self._engine = QueryEngine(self._backend)
        self._fallback = QueryEngine(self._backend, include_deltas=False)
        self.model_degraded = self._backend.degraded
        #: Stamped on degraded answers: the model's stored estimate.
        self.rmspe = rmspe_estimate(self.model_dir)
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
        self.summary_partial = 0
        self.summary_misses = 0
        self.summary_brownout_hits = 0

    # -- lifecycle ------------------------------------------------------

    def warm(self) -> None:
        """Answer one cell, one rollup and one gather before taking
        traffic, on the engine that will serve.

        The backend builds some tables on first use (the summary
        arrays, the delta index's per-row run lengths); without a
        warmup the first real request of each kind would build them
        inside its deadline.  Uncounted, and a no-op on an empty axis.
        """
        rows, cols = self._engine.shape
        if not (rows and cols):
            return
        engine = self._fallback if self.model_degraded else self._engine
        for text in ("cell(0, 0)", "sum() rows 0:1", "sum() rows 0:1 cols 0:1"):
            engine.execute(parse_query(text))

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
        """True while the server should answer from the SVD fast path
        only: sustained shedding, or a model whose delta sidecar failed
        verification at open."""
        if self.model_degraded:
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
            try:
                result, gathered = self._execute(coerced, brownout, start_ns, deadline_ns)
            except RouteUnavailableError:
                self._note_shed()
                raise self.admission.shed(
                    "brownout",
                    "server is in brownout (SVD-only answers) and this query "
                    "needs per-cell values; retry after "
                    f"{self.config.retry_after_s:g}s",
                ) from None
            if time.monotonic_ns() >= deadline_ns:
                # Computed, but late: a 200 never follows its deadline.
                raise self._deadline_miss(start_ns, deadline_ns)
            self._count("answers", "server.answers")
            if gathered:
                self._count("gathers", "server.gathers")
            # Only a ``summary``-route brownout answer is exact; every
            # other one is the bare factors, stamped with the stored RMSPE.
            degraded = brownout and result.route != ROUTE_SUMMARY
            if degraded:
                self._count("degraded_answers", "server.degraded_answers")
            elif brownout:
                self._count("summary_brownout_hits", "server.summary.brownout_hits")
            return self._payload(result, start_ns, degraded=degraded)

    def _deadline_miss(self, start_ns: int, deadline_ns: int) -> DeadlineExceededError:
        self._count("deadline_misses", "server.deadline_misses")
        return DeadlineExceededError(
            f"query exceeded its {int((deadline_ns - start_ns) / 1e6)} ms deadline"
        )

    def _execute(self, query, brownout: bool, start_ns: int, deadline_ns: int):
        """Plan on this mode's engine and run that plan in this thread.

        Returns ``(result, gathered)``.  The test for a gather is
        ``row_fetches``, not ``pages``: a mapped backend's pages are
        logical only, so every route plans ``pages == 0``.
        """
        engine = self._fallback if brownout else self._engine
        plan = self._plan(engine, query)
        if plan is None or plan.route.row_fetches == 0:
            return engine.execute(query, plan=plan), False
        left_s = max(0.0, (deadline_ns - time.monotonic_ns()) / 1e9)
        if not self._slots.acquire(timeout=left_s):
            raise self._deadline_miss(start_ns, deadline_ns)
        try:
            return engine.execute(query, plan=plan), True
        finally:
            self._slots.release()

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

        A summary hit reads only the small rollup arrays (zero
        ``u.mat`` pages), so a group-by never takes a gather slot.
        Admission still applies: a stale store's streamed residual is
        real work.  Raises :class:`~repro.exceptions.QueryError` for a
        bad axis/function, :class:`~repro.exceptions.OverloadedError`
        when shed.
        """
        start_ns = time.monotonic_ns()
        with self._admit():
            series = bucket_series(self._backend, by, function, limit)
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
        """Plan a query without executing it.

        Plans on the engine :meth:`dispatch` would answer with *right
        now* — delta-capable while healthy, SVD-only while
        :meth:`brownout_active` — so the reported route is the executed
        route in either mode.  A brownout query with no admissible
        route explains as ``path="shed"`` (dispatch would raise
        :class:`~repro.exceptions.OverloadedError`) rather than
        inventing a plan.
        """
        coerced = coerce_query(query)
        brownout = self.brownout_active()
        engine = self._fallback if brownout else self._engine
        try:
            plan = self._plan(engine, coerced)
            described = plan.to_dict() if plan else engine.explain(coerced)
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
            "summary_partial": self.summary_partial,
            "summary_misses": self.summary_misses,
            "summary_brownout_hits": self.summary_brownout_hits,
            "brownout": self.brownout_active(),
            "model_degraded": self.model_degraded,
            "rmspe_estimate": self.rmspe,
            "draining": self._draining,
            "workers": self.workers,
        }
