"""Plans, prices, counters and answers pinned to the bit by a recorded corpus.

``data/plan_parity.json`` holds 360 aggregates (six functions, five
selection shapes, three error budgets) over four backends of one
400-row phone model: a default open, a ``mapped=True`` open, an open
that lost its deltas, and the in-memory ``SVDDModel``.  Each record is
the plan's explain payload, every candidate's exact price, the counters
the query moved, and the answer's exact value, route, accounting and
bound — or the refusal, when no route is admissible.

A change that is meant to leave routing, pricing and answers alone must
leave every record equal.  The model's bits, and with them its delta
set, its prices and its answers, are those of the arithmetic the corpus
was made on (``made_on``, as in ``benchmarks/model_dir_digests.py``);
on other arithmetic the test skips.  Regenerate the corpus only when a
route, a price or an answer is meant to move:

    PYTHONPATH=src:. python tests/query/test_plan_corpus.py tests/query/data/plan_parity.json
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core import CompressedMatrix, SVDDCompressor
from repro.core.build import build_compressed
from repro.data import phone_matrix
from repro.exceptions import RouteUnavailableError
from repro.query import AggregateQuery, QueryEngine, Selection

CORPUS = Path(__file__).parent / "data" / "plan_parity.json"
ROWS = 400
FUNCTIONS = ("sum", "avg", "stddev", "count", "min", "max")
BUDGETS = (None, 0.0, 1.0)
SELECTIONS = {
    "run": (range(100, 180), range(30, 90)),
    "scattered": ([3, 17, 18, 40, 41, 42, 97, 250, 251, 399], range(30, 90)),
    "all-rows": (None, range(7, 14)),
    "one-cell": ([17], [50]),
    "ends": ([0, ROWS - 1], range(300, 366)),
}


def _counters(source) -> tuple[int, ...]:
    """Delta-index probes, pool bypasses and zero-row skips so far."""
    stored = isinstance(source, CompressedMatrix)
    index = source.delta_index if stored else source.deltas
    pool = source.u_pool_stats if stored else None
    skips = source.stats["zero_row_skips"] if stored else 0
    return (
        *(0 if index is None else index.stats[key] for key in ("lookups", "keys_probed", "hits")),
        0 if pool is None else pool.bypasses,
        skips,
    )


def corpus(work: Path) -> dict:
    """Every record, made on a fresh model under ``work``."""
    from tests.conftest import lose_deltas

    data = phone_matrix(ROWS)
    directory, broken = work / "model", work / "lost"
    build_compressed(data, directory, budget_fraction=0.10).close()
    shutil.copytree(directory, broken)
    lose_deltas(broken)
    backends = {
        "default": CompressedMatrix.open(directory),
        "mapped": CompressedMatrix.open(directory, mapped=True),
        "lost": CompressedMatrix.open(broken, on_corrupt="degraded"),
        "memory": SVDDCompressor(budget_fraction=0.10).fit(data),
    }
    records = {}
    try:
        for name, source in backends.items():
            engine = QueryEngine(source)
            for shape, (rows, cols) in SELECTIONS.items():
                for function in FUNCTIONS:
                    for budget in BUDGETS:
                        query = AggregateQuery(function, Selection(rows, cols), budget)
                        key = f"{name}|{shape}|{function}|{budget}"
                        records[key] = _record(engine, source, query)
    finally:
        for source in backends.values():
            if isinstance(source, CompressedMatrix):
                source.close()
    from benchmarks.model_dir_digests import made_on

    return {"made_on": made_on(), "records": records}


def _record(engine: QueryEngine, source, query: AggregateQuery) -> dict:
    try:
        plan = engine.plan(query)
    except RouteUnavailableError as exc:
        return {"refused": str(exc)}
    before = _counters(source)
    result = engine.aggregate(query)
    after = _counters(source)
    return {
        "explain": plan.to_dict(),
        "costs": [float.hex(c.cost_ms) for c in plan.candidates],
        "value": float.hex(float(result.value)),
        "route": result.route,
        "cells_touched": result.cells_touched,
        "rows_fetched": result.rows_fetched,
        "error_bound": result.error_bound,
        "counters": [b - a for a, b in zip(before, after)],
    }


def test_plans_prices_counters_and_answers_match_the_corpus(tmp_path):
    from benchmarks.model_dir_digests import made_on

    want = json.loads(CORPUS.read_text())
    if want["made_on"] != made_on():
        pytest.skip("the corpus pins the bits of other arithmetic")
    got = corpus(tmp_path)["records"]
    assert got.keys() == want["records"].keys()
    for key, record in want["records"].items():
        assert got[key] == record, key


if __name__ == "__main__":
    work = Path(tempfile.mkdtemp(prefix="plan-corpus-"))
    try:
        made = corpus(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(record, sort_keys=True)}"
        for key, record in made["records"].items()
    )
    Path(sys.argv[1]).write_text(
        f'{{"made_on": {json.dumps(made["made_on"])},\n"records": {{\n{lines}\n}}}}\n'
    )
