"""A query's selection is checked once, where it enters.

:meth:`Selection.resolve` proves the row and column indices sorted,
unique and inside the matrix; the engine hands them down as
:class:`~repro.storage.matrix_store.Ascending`, and the planner, the
U-row gather, the delta fold and ``reconstruct_range`` read that proof
instead of re-checking the arrays.  The public entry points that take
outside arrays keep their checks.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import CompressedMatrix
from repro.core import delta_index as delta_index_module
from repro.core.build import build_compressed
from repro.data import phone_matrix
from repro.exceptions import QueryError
from repro.plan import plan_aggregate
from repro.query import AggregateQuery, QueryEngine, Selection
from repro.query.fastpath import factor_aggregate
from repro.storage import MatrixStore

ROWS = 400
SCATTERED = [3, 17, 18, 40, 41, 42, 97, 250, 251, 399]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A paged (default-open) model of 400 phone customers."""
    directory = tmp_path_factory.mktemp("checked-once") / "model"
    build_compressed(phone_matrix(ROWS), directory, budget_fraction=0.10).close()
    opened = CompressedMatrix.open(directory)
    assert not opened.mapped and len(opened.delta_index) > 0
    yield opened
    opened.close()


@pytest.fixture(scope="module")
def dense(store):
    return store.reconstruct_all()


@pytest.fixture()
def checks(monkeypatch):
    """Counts of the two array checks below the resolve."""
    calls = {"_check_rows": 0, "_run_of": 0}
    check_rows, run_of = MatrixStore._check_rows, delta_index_module._run_of

    def counted_check_rows(self, idx):
        calls["_check_rows"] += 1
        return check_rows(self, idx)

    def counted_run_of(sel):
        calls["_run_of"] += 1
        return run_of(sel)

    monkeypatch.setattr(MatrixStore, "_check_rows", counted_check_rows)
    monkeypatch.setattr(delta_index_module, "_run_of", counted_run_of)
    return calls


ORACLE = {"sum": np.sum, "avg": np.mean, "stddev": np.std, "min": np.min, "max": np.max}


@pytest.mark.parametrize("rows", [SCATTERED, range(120, 180)], ids=["scattered", "run"])
def test_an_aggregate_checks_its_selection_once(store, dense, checks, rows):
    engine = QueryEngine(store)
    bypasses = store.u_pool_stats.bypasses
    for function, oracle in ORACLE.items():
        query = AggregateQuery(function, Selection(rows=rows, cols=range(30, 95)))
        result = engine.aggregate(query)
        assert result.route == ("stream" if function in ("min", "max") else "factor")
        assert result.value == pytest.approx(
            oracle(dense[np.ix_(list(rows), range(30, 95))]), rel=1e-9
        )
    assert checks == {"_check_rows": 0, "_run_of": 0}
    # The gathers still book their pages as pool bypasses: three factor
    # gathers of every row, two streamed ones of the rows not all zero.
    live = [row for row in rows if dense[row].any()]
    pages = store.u_store.pages_for_rows
    assert store.u_pool_stats.bypasses - bypasses == 3 * pages(rows) + 2 * pages(live)


def test_outside_arrays_are_still_checked(store, dense, checks):
    u_store, index = store.u_store, store.delta_index
    for bad in ([5, ROWS], [-1, 2]):
        with pytest.raises(QueryError):
            u_store.read_rows(bad)
        with pytest.raises(QueryError):
            u_store.pages_for_rows(bad)
        with pytest.raises(QueryError):
            factor_aggregate(store, np.asarray(bad), np.arange(3), "sum")
        with pytest.raises(QueryError):
            store.reconstruct_range(bad, [1])
    with pytest.raises(QueryError):
        store.reconstruct_range([1], [0, store.shape[1]])

    rows, cols = np.array([41, 3, 41, 250]), np.array([9, 2, 9, 60])
    assert np.array_equal(u_store.read_rows(rows), np.stack([u_store.row(r) for r in rows]))
    assert u_store.pages_for_rows(rows) == u_store.pages_for_rows(np.unique(rows))
    np.testing.assert_allclose(store.reconstruct_range(rows, cols), dense[np.ix_(rows, cols)])
    value, fetched = factor_aggregate(store, rows, cols, "sum")
    assert fetched == rows.size
    assert value == pytest.approx(dense[np.ix_(rows, cols)].sum(), rel=1e-12)
    row_pos, col_pos, _rows, _cols, values = index.select(rows, cols)
    folded = np.zeros((rows.size, cols.size))
    folded[row_pos, col_pos] = values
    want = np.zeros_like(folded)
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            want[i, j] = index.get(int(row) * store.shape[1] + int(col))
    assert np.array_equal(folded, want)
    assert checks["_check_rows"] > 0 and checks["_run_of"] > 0


def test_plans_match_plans_from_plain_arrays(tmp_path):
    """On the benchmark's model and seed-1997 ``adhoc_agg`` op list, the
    engine's plan equals one priced from independently resolved plain
    arrays (which every layer checks)."""
    from benchmarks.harness import model, ops

    directory = tmp_path / "model"
    model.build(model.raw_matrix(model.FULL), directory)
    with CompressedMatrix.open(directory) as harness_store:
        engine = QueryEngine(harness_store)
        shape = harness_store.shape
        for op in ops.agg_ops(1997, shape, 200):
            query = op.query()
            plain = plan_aggregate(
                harness_store, op.function, *query.selection.resolve(shape)
            )
            assert engine.plan(query) == plain


#: Frames under ``src/repro`` one aggregate entered before its path
#: computed each fact about its selection once: per function, the
#: scattered and the run selection below.
CALLS_BEFORE = {
    "sum": (72, 71),
    "avg": (72, 71),
    "stddev": (72, 72),
    "count": (38, 38),
    "min": (64, 64),
    "max": (64, 64),
}


def _frames(call) -> int:
    """Python frames under ``src/repro`` that ``call()`` enters."""
    package = str(Path(repro.__file__).parent)
    entered = 0

    def count(frame, event, _arg):
        nonlocal entered
        if event == "call" and frame.f_code.co_filename.startswith(package):
            entered += 1

    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


def test_an_aggregate_stays_inside_its_call_budget(store):
    """The per-op constant is counted, not timed: resolve, plan and
    execute must each stay one pass over what the selection needs."""
    engine = QueryEngine(store)
    frames = {}
    for function, before in CALLS_BEFORE.items():
        for rows, budget in zip((SCATTERED, range(100, 180)), before):
            query = AggregateQuery(function, Selection(rows=rows, cols=range(30, 90)))
            engine.aggregate(query)  # warm: lazy tables and caches are built
            frames[function, type(rows).__name__] = spent = _frames(
                lambda: engine.aggregate(query)
            )
            assert spent < budget, (function, rows, spent)
    assert sum(frames.values()) / len(frames) <= 32, frames
