"""Python frames per served request, by kind (ROADMAP aim 1).

Serves each request of the five seed-1997 ``http_mix`` request lists
through ``_QueryHandler.handle()`` over a ``socket.socketpair()`` and
counts the ``sys.setprofile`` "call" events while it runs: Python
frames entered, C calls excluded.  The registry is enabled, as
``repro serve`` runs it, and each request is served once unmeasured
first.  Run from a checkout (the tree whose ``src/`` is on the path is
the one measured)::

    PYTHONPATH=src:. python benchmarks/results/harness/PR52/frames.py [MODEL_DIR]

With no ``MODEL_DIR`` the harness model (phone 4000 x 366, s = 10%)
is built into a temporary directory first.
"""

from __future__ import annotations

import collections
import functools
import socket
import statistics
import sys
import tempfile
from pathlib import Path

from benchmarks.harness import model, ops
from repro.obs.registry import registry
from repro.serve.config import ServeConfig
from repro.serve.server import QueryServer, _QueryHandler

LISTS = 5
SEED = 1997


def frames(handler_class, target: str) -> tuple[int, bytes]:
    """``(frames, response)`` of one request served through ``handle()``."""
    client, server = socket.socketpair()
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    try:
        client.sendall(f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        handler = handler_class(server)
        sys.setprofile(profile)
        try:
            handler.handle()
        finally:
            sys.setprofile(None)
        server.close()
        reply = b""
        while chunk := client.recv(65536):
            reply += chunk
    finally:
        client.close()
    return calls, reply


def main(argv: list[str]) -> None:
    raw = model.raw_matrix(model.FULL)
    with tempfile.TemporaryDirectory() as workdir:
        directory = Path(argv[0]) if argv else Path(workdir) / "model"
        if not argv:
            model.build(raw, directory)
        registry.enable()
        server = QueryServer(directory, ServeConfig(workers=2)).start()
        try:
            handler_class = functools.partial(_QueryHandler, server)
            count = 300
            by_kind = collections.defaultdict(list)
            for index in range(LISTS):
                for requests in ops.client_requests(raw, SEED, count, index):
                    for request in requests:
                        frames(handler_class, request.path)  # warm
                        calls, reply = frames(handler_class, request.path)
                        assert reply.startswith(b"HTTP/1.1 200"), reply[:200]
                        by_kind[request.kind].append(calls)
            health = [frames(handler_class, "/healthz")[0] for _ in range(3)]
        finally:
            server.stop()
    total = sum(len(v) for v in by_kind.values())
    mean = sum(sum(v) for v in by_kind.values()) / total
    print(f"{'kind':10} {'share':>6} {'mean':>7} {'median':>7} {'min':>5} {'max':>5}")
    for kind in ("cell", "rollup", "groupby", "adhoc"):
        values = by_kind[kind]
        print(
            f"{kind:10} {len(values) / total:6.3f} {statistics.fmean(values):7.1f} "
            f"{statistics.median(values):7.1f} {min(values):5d} {max(values):5d}"
        )
    print(f"{'mix':10} {1.0:6.3f} {mean:7.1f}")
    print(f"{'/healthz':10} {'':6} {statistics.fmean(health):7.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])
