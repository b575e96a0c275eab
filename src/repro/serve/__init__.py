"""Fault-tolerant HTTP serving tier over the query engine.

The paper's deployment story (Section 1) is a warehouse answering ad
hoc queries from many analysts; this package is the network front door
that makes the reproduction *operable* under that load:

- :mod:`repro.serve.config` — one frozen knob bundle
  (:class:`~repro.serve.config.ServeConfig`) for every robustness
  threshold;
- :mod:`repro.serve.admission` — bounded admission with queue-depth
  and queue-age load shedding (503 + ``Retry-After``);
- :mod:`repro.serve.robust` — the dispatcher tying admission,
  deadlines, gather slots and *brownout* (queries planned under the
  model's own stored RMSPE as their error budget) around the one
  :class:`~repro.query.engine.QueryEngine` every handler thread
  answers on;
- :mod:`repro.serve.server` — the HTTP front door
  (:class:`~repro.serve.server.QueryServer`, on the socket plumbing of
  :mod:`repro.obs.serve`) exposing ``/query``, ``/cell``,
  ``/aggregate``, ``/groupby``, ``/explain``, ``/stats``, ``/healthz``
  (live/ready split) and ``/metrics``, with graceful SIGTERM drain.

``repro serve`` wraps :class:`QueryServer` in a CLI.
"""

from repro.serve.admission import AdmissionController
from repro.serve.config import ServeConfig
from repro.serve.robust import RobustDispatcher
from repro.serve.server import QueryServer

__all__ = [
    "AdmissionController",
    "QueryServer",
    "RobustDispatcher",
    "ServeConfig",
]
