"""A served request does each thing once: its Python frames, counted.

Each request is served through the query handler's ``handle()`` over a
socket pair, with the registry enabled as ``repro serve`` runs it, and
the ``sys.setprofile`` "call" events while it runs are counted: every
Python frame entered, the front door's, the dispatcher's, the engine's
and the telemetry's (C calls are not frames).  Each request is served
once first, so no lazy table is built inside the count.

``BEFORE`` holds the counts of the tree that parsed each target twice,
looked every metric up by name, walked each span tree four times for
its phase times and rebuilt each profiled result; each kind must stay
below its count there, and their mean at or below 0.45 of its mean.
The same count over the ``http_mix`` traffic on the harness model is
the ``frames.py`` script kept with the harness records.
"""

from __future__ import annotations

import statistics

import pytest

from repro.serve.config import ServeConfig
from repro.serve.server import QueryServer
from tests.serve.conftest import serve_once

#: kind -> (target, frames entered while the tree before served it).
BEFORE = {
    "cell": ("/cell?row=5&col=7", 99),
    "rollup": ("/aggregate?fn=sum&cols=10:40", 136),
    "groupby": ("/groupby?by=month&fn=sum", 83),
    "factor": ("/aggregate?fn=sum&rows=10:60&cols=10:40", 211),
    "stream": ("/aggregate?fn=min&rows=10:30&cols=10:40", 185),
    "healthz": ("/healthz", 12),
}


def _frames(server, target: str) -> int:
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    reply = serve_once(server, target, profile=count)
    assert reply.startswith(b"HTTP/1.1 200 "), reply[:300]
    return calls


@pytest.fixture(scope="module")
def server(serve_model_dir):
    from repro.obs.registry import registry

    registry.enable()
    server = QueryServer(serve_model_dir, ServeConfig(workers=1)).start()
    try:
        yield server
    finally:
        server.stop()
        registry.disable()
        registry.reset()


@pytest.fixture(scope="module")
def frames(server):
    spent = {}
    for kind, (target, _before) in BEFORE.items():
        _frames(server, target)  # warm
        spent[kind] = _frames(server, target)
    return spent


@pytest.mark.parametrize("kind", BEFORE)
def test_each_kind_enters_fewer_frames_than_before(frames, kind):
    assert frames[kind] < BEFORE[kind][1], frames


def test_the_mean_request_enters_under_half_the_frames(frames):
    before = statistics.fmean(count for _target, count in BEFORE.values())
    assert statistics.fmean(frames.values()) <= 0.45 * before, frames
