"""Where a served request's time goes, in situ (ROADMAP aim 1).

Starts a real ``repro serve`` child on the harness model (the
harness's own ``ServeChild``: ``--workers 2``, a fresh connection per
request) and, from one client, sends each request of the five
seed-1997 ``http_mix`` request lists followed by a ``/healthz``,
``ROUNDS`` times over.  Prints the median ``/healthz`` round trip, each
kind's median excess over the ``/healthz`` sent right after it, and
the mean request round trip, in microseconds.  Run from the root of
the checkout to measure (its ``src/`` is what the child serves)::

    PYTHONPATH=src:. python benchmarks/results/harness/PR52/in_situ.py [ROUNDS]
"""

from __future__ import annotations

import collections
import statistics
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.harness import model, ops

LISTS = 5
SEED = 1997


def main(argv: list[str]) -> None:
    rounds = int(argv[0]) if argv else 3
    raw = model.raw_matrix(model.FULL)
    requests = [
        request
        for index in range(LISTS)
        for per_client in ops.client_requests(raw, SEED, 300, index)
        for request in per_client
    ]
    excess = collections.defaultdict(list)
    health, every = [], []
    with tempfile.TemporaryDirectory() as workdir:
        directory = Path(workdir) / "model"
        model.build(raw, directory)
        child = model.ServeChild(directory)
        try:
            for request in requests:  # warm
                child.get(request.path)
            for _ in range(rounds):
                for request in requests:
                    start = time.perf_counter_ns()
                    status, _body = child.get(request.path)
                    middle = time.perf_counter_ns()
                    child.get("/healthz")
                    end = time.perf_counter_ns()
                    assert status == 200, (status, request.path)
                    every.append(middle - start)
                    health.append(end - middle)
                    excess[request.kind].append((middle - start) - (end - middle))
        finally:
            code = child.stop()
    assert code == 0, code
    print(f"requests {len(every)}  serve exit {code}")
    print(f"/healthz median        {statistics.median(health) / 1e3:8.1f} us")
    for kind in ("cell", "rollup", "groupby", "adhoc"):
        print(f"{kind:8} median excess {statistics.median(excess[kind]) / 1e3:+8.1f} us")
    print(f"mean request           {statistics.fmean(every) / 1e3:8.1f} us")


if __name__ == "__main__":
    main(sys.argv[1:])
