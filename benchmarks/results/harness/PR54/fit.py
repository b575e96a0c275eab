"""Fit the planner's five pricing constants to traced ``engine.execute`` times.

A route's price (``repro.plan.planner``) is linear in five module
constants: three floors in ms and two rates in ns.  For each of the
three harness workloads that plan (``adhoc_agg``, ``http_mix``,
``append_visible``) this script makes ``RUNS`` traced runs through the
harness's own entry point, ``benchmarks.harness.cli.run_workload``, and
keeps each op's median ``query.engine.execute`` span: the time the
harness's ``plan.planner.cost_ratio_p50`` divides by.  It then rebuilds
the same fixed model (and, for ``append_visible``, the same three 7-day
appends) to plan each op on the backend its run used: a default open,
``mapped=True`` for ``http_mix``.

An op's features are its chosen route's price with one constant set to
1 and the others to 0, so the fit never restates the planner's formulas.
The fit keeps every route and candidate order provably where the
page-free prices at the earlier constants put them: it has two
parameters, a per-query cost ``o`` every route pays and a scale ``s``,
and sets each floor to ``o + s * old floor`` and each rate to
``s * old rate``.  Every difference between two prices is then ``s``
times the old one.  The fit minimises the squared log of each op's
predicted / measured time, each workload weighted equally (a fit of
the three medians alone drifts to ``o = 0`` and prices the streamed
route 3-4x high), and prints:

- ``o``, ``s`` and the five constants, rounded to two significant figures;
- each workload's median predicted / measured ratio (the harness's
  ``cost_ratio_p50``) and the median per route, at the module's
  constants and at the fit's;
- every op whose route, and every plan-corpus query whose candidate
  order, the fit's constants would change (there must be none).

    PYTHONPATH=src:. python benchmarks/results/harness/PR54/fit.py [RUNS [SEED]]

Run from the repository root; one BLAS thread, as the harness pins.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.optimize import least_squares  # noqa: E402

from benchmarks.harness import cli, model, ops, spec  # noqa: E402
from repro.core.store import CompressedMatrix  # noqa: E402
from repro.core.update import append_columns  # noqa: E402
from repro.plan import planner  # noqa: E402
from repro.query.engine import QueryEngine  # noqa: E402

CONSTANTS = (
    "SUMMARY_FLOOR_MS", "FACTOR_FLOOR_MS", "STREAM_FLOOR_MS", "NS_PER_CELL", "NS_PER_FACTOR_TERM",
)
#: The constants the planner priced with before the fit (``CostParams``'
#: defaults), whose page-free routes the fit keeps.
EARLIER = np.array([0.001, 0.002, 0.01, 1.0, 2.0])


def _set(values) -> None:
    for name, value in zip(CONSTANTS, values):
        setattr(planner, name, float(value))


def _module() -> np.ndarray:
    return np.array([getattr(planner, name) for name in CONSTANTS])


def constants(offset: float, scale: float) -> np.ndarray:
    """The five constants of the fit's two parameters."""
    return np.concatenate([offset + scale * EARLIER[:3], scale * EARLIER[3:]])


def execute_ms(name: str, seed: int, runs: int, work: Path) -> tuple[np.ndarray, list]:
    """Each op's median ``query.engine.execute`` span over ``runs``
    traced runs, in ms, and each run's ``cost_ratio_p50``."""
    spans, ratios = defaultdict(list), []
    for run in range(runs):
        path = work / f"spans-{name}-{run}.jsonl"
        record = cli.run_workload(name, seed, 15.0, True, span_path=path)
        assert record["correct"], record
        ratios.append(record["metrics"]["plan.planner.cost_ratio_p50"]["value"])
        for line in path.read_text().splitlines():
            span = json.loads(line)
            if span["name"] == "query.engine.execute":
                spans[span["trace"]].append((span["end_ns"] - span["start_ns"]) / 1e6)
    return np.array([statistics.median(spans[i]) for i in range(len(spans))]), ratios


def backends(seed: int, work: Path) -> dict:
    """Each workload's ``(store, queries)``, as its traced run plans them."""
    scale = model.FULL
    raw = model.raw_matrix(scale)
    directory = work / "model"
    model.build(raw, directory)
    agg = ops.agg_ops(seed, raw.shape, scale.ops(spec.workload("adhoc_agg").pass_ops))
    out = {
        "adhoc_agg": (
            CompressedMatrix.open(directory),
            [op.query() for op in agg[: scale.ops(spec.workload("adhoc_agg").trace_ops)]],
        )
    }
    http = spec.workload("http_mix")
    per_client = ops.client_requests(raw, seed, scale.ops(http.pass_ops))
    sample = [r for requests in per_client for r in requests if r.kind != "groupby"]
    out["http_mix"] = (
        CompressedMatrix.open(directory, mapped=True),
        [r.op.query() for r in sample[: scale.ops(http.trace_ops)] if r.kind != "cell"],
    )
    appended = work / "appended"
    shutil.copytree(directory, appended)
    count = scale.ops(spec.workload("append_visible").trace_ops)
    for batch in range(3):
        new = ops.next_days(raw, seed, batch)
        raw = np.concatenate([raw, new], axis=1)
        reads = ops.agg_ops(seed, raw.shape, count, index=batch, fresh_cols=spec.APPEND_DAYS)
        append_columns(appended, new)
    out["append_visible"] = (
        CompressedMatrix.open(appended), [op.query() for op in reads]
    )
    return out


def features(engine: QueryEngine, query) -> tuple[str, np.ndarray]:
    """The route ``query`` takes and its price per unit of each constant."""
    route = engine.plan(query).route.name
    saved = _module()
    try:
        row = []
        for unit in np.eye(len(CONSTANTS)):
            _set(unit)
            plan = engine.plan(query)
            row.append(next(c.cost_ms for c in plan.candidates if c.name == route))
    finally:
        _set(saved)
    return route, np.array(row)


def routes_at(values, engine: QueryEngine, queries) -> list[str]:
    saved = _module()
    _set(values)
    try:
        return [engine.plan(q).route.name for q in queries]
    finally:
        _set(saved)


def corpus_moved(values) -> list[str]:
    """Plan-corpus queries whose candidate order ``values`` changes
    against :data:`EARLIER`'s."""
    from tests.query import test_plan_corpus as corpus_test

    orders = []
    saved = _module()
    with tempfile.TemporaryDirectory() as tmp:
        for side, at in (("a", EARLIER), ("b", values)):
            _set(at)
            try:
                records = corpus_test.corpus(Path(tmp) / side)["records"]
            finally:
                _set(saved)
            orders.append({
                key: [c["route"] for c in record["explain"]["candidates"]]
                for key, record in records.items() if "refused" not in record
            })
    return [key for key in orders[0] if orders[0][key] != orders[1][key]]


def main(argv: list[str]) -> int:
    runs = int(argv[0]) if argv else 3
    seed = int(argv[1]) if len(argv) > 1 else 1997
    work = Path(tempfile.mkdtemp(prefix="fit-"))
    try:
        data = {}
        for name, (store, queries) in backends(seed, work).items():
            measured, ratios = execute_ms(name, seed, runs, work)
            engine = QueryEngine(store)
            routes, feats = zip(*(features(engine, q) for q in queries))
            assert len(measured) == len(queries), (name, len(measured), len(queries))
            data[name] = (np.array(feats), measured, list(routes), ratios, engine, queries, store)

        def residuals(log_params):
            values = constants(*np.exp(log_params))
            return np.concatenate([
                np.log(feats @ values / measured) / np.sqrt(len(measured))
                for feats, measured, *_rest in data.values()
            ])

        fit = least_squares(residuals, np.log([0.05, 1.0]))
        offset, scale = (float(f"{v:.2g}") for v in np.exp(fit.x))
        fitted, module = constants(offset, scale), _module()

        print(f"seed {seed}, {runs} traced runs a workload, each op's median execute span")
        print(f"fit: o = {offset:g} ms, s = {scale:g}")
        print(f"{'constant':20} {'earlier':>10} {'module':>10} {'fit':>10}")
        for name, old, now, new in zip(CONSTANTS, EARLIER, module, fitted):
            print(f"{name:20} {old:10.4g} {now:10.4g} {new:10.4g}")
        print("\npredicted / measured, median (the harness's cost_ratio_p50 per run at the module's)")
        moved = []
        for name, (feats, measured, routes, ratios, engine, queries, store) in data.items():
            print(f"{name}: {len(measured)} ops, runs read {[round(r, 4) for r in ratios]}")
            for label, values in (("module", module), ("fit", fitted)):
                ratio = feats @ values / measured
                by_route = {
                    r: round(float(np.median(ratio[np.array(routes) == r])), 3)
                    for r in sorted(set(routes))
                }
                print(f"  at {label:6} {statistics.median(ratio):8.4g}  by route {by_route}")
            moved += [
                f"{name}[{i}]" for i, (was, now) in enumerate(
                    zip(routes_at(EARLIER, engine, queries), routes_at(fitted, engine, queries))
                ) if was != now
            ]
            store.close()
        print(f"\nworkload ops whose route the fit moves: {moved or 'none'}")
        corpus = corpus_moved(fitted)
        print(f"corpus queries whose candidate order the fit moves: {corpus or 'none'}")
        return 0 if not moved and not corpus else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
