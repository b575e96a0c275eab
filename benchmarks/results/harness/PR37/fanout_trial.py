"""Fan-out trial: does a worker pool answer ``adhoc_agg`` faster than one engine?

Builds the harness model (phone 4000 x 366, s = 10%) into a temporary
directory, takes the first ``--ops`` ``adhoc_agg`` aggregates at
``--seed``, and answers them:

- on one ``QueryEngine`` in the caller's thread;
- through ``QueryExecutor(max_workers=2)`` and ``(max_workers=1)``;
- through ``ProcessQueryExecutor(max_workers=2)`` (mapped only: its
  workers always open the model ``mapped=True``).

Pools are fed by submitting every query and then collecting every
future, so up to ``max_workers`` queries run at once.  Each row prints
the median queries per second over ``--runs`` runs (``--process-runs``
for the process pool), and every answer must be ``==`` the sequential
engine's.  Run from the repository root:

    PYTHONPATH=src:. python3 path/to/fanout_trial.py
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
import time
from pathlib import Path

from benchmarks.harness import model, ops
from repro.core.store import CompressedMatrix
from repro.query.engine import QueryEngine
from repro.query.executor import QueryExecutor, usable_cpu_count
from repro.query.process_executor import ProcessQueryExecutor


def _qps(answer, queries, truth) -> float:
    start = time.perf_counter()
    values = answer(queries)
    wall = time.perf_counter() - start
    assert values == truth, "a fanned-out answer differs from the sequential one"
    return len(queries) / wall


def _fan_out(pool):
    def answer(queries):
        futures = [pool.submit(query) for query in queries]
        return [future.result().value for future in futures]

    return answer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--ops", type=int, default=2000)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--process-runs", type=int, default=3)
    args = parser.parse_args()

    raw = model.raw_matrix(model.FULL)
    queries = [op.query() for op in ops.agg_ops(args.seed, raw.shape, args.ops)]
    print(f"usable cpus {usable_cpu_count()}, model {raw.shape[0]} x {raw.shape[1]}, "
          f"{len(queries)} adhoc_agg ops at seed {args.seed}")
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "model"
        model.build(raw, directory)
        rows = []
        for label, mapped in (("default open", False), ("mapped=True", True)):
            with CompressedMatrix.open(directory, mapped=mapped) as store:
                engine = QueryEngine(store)
                truth = [engine.execute(query).value for query in queries]

                def sequential(items):
                    return [engine.execute(query).value for query in items]

                runs = [_qps(sequential, queries, truth) for _ in range(args.runs)]
                rows.append(("one QueryEngine, caller's thread", label, runs))
                for workers in (2, 1):
                    with QueryExecutor(store, max_workers=workers) as pool:
                        pool.submit(queries[0]).result()  # start the threads
                        runs = [
                            _qps(_fan_out(pool), queries, truth)
                            for _ in range(args.runs)
                        ]
                    rows.append((f"QueryExecutor(max_workers={workers})", label, runs))
        with ProcessQueryExecutor(directory, max_workers=2) as pool:
            for query in queries[:4]:  # start and map every worker
                pool.submit(query).result()
            runs = [
                _qps(_fan_out(pool), queries, truth)
                for _ in range(args.process_runs)
            ]
        rows.append(("ProcessQueryExecutor(max_workers=2)", "mapped=True", runs))

    base = {
        label: statistics.median(runs)
        for name, label, runs in rows
        if name.startswith("one QueryEngine")
    }
    print(f"{'how the ops run':38s} {'open':13s} {'median q/s':>10s} {'vs engine':>9s}  runs")
    for name, label, runs in rows:
        median = statistics.median(runs)
        ratio = median / base[label]
        print(f"{name:38s} {label:13s} {median:10,.0f} {ratio:8.2f}x  "
              + " ".join(f"{run:,.0f}" for run in runs))


if __name__ == "__main__":
    main()
