"""Matrixed explain/execute parity suite.

The planner's whole reason to exist: for every combination of backend,
serving mode, aggregate function, selection shape, and error budget,
``explain`` must name exactly the route ``aggregate`` takes — and when
no route is admissible, both must raise the same
:class:`RouteUnavailableError`.  The matrix deliberately spans the
summary store's two states (fresh, and dropped by a deferred append)
and both serving modes (``deltas``: the query's own budget;
``svd-only``: brownout's, the model's stored estimate when the query
set none), because those were the axes along which the pre-planner
call sites diverged.  Every exact answer is checked
against a dense NumPy oracle of the same backend.

The same backend matrix doubles as the conformance suite for the one
backend seam (:mod:`repro.query.backend`): every source shape answers
``cell``/``block``/``factors`` like a dense NumPy oracle, and
offers ``factors`` exactly where the planner admits the factor route.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressedMatrix, SVDCompressor, SVDDCompressor
from repro.core.build import build_compressed
from repro.core.update import append_columns
from repro.exceptions import QueryError, RouteUnavailableError
from repro.lab.methods import DCTMethod, SVDDMethod
from repro.query import AggregateQuery, QueryEngine, Selection
from repro.query.backend import as_backend
from repro.query.fastpath import FACTOR_FUNCTIONS
from repro.storage import MatrixStore

FUNCTIONS = ("sum", "avg", "count", "min", "max", "stddev")

#: Each aggregate over a dense block: the oracle exact answers meet.
ORACLE = {
    "sum": np.sum,
    "avg": np.mean,
    "count": np.size,
    "min": np.min,
    "max": np.max,
    "stddev": np.std,
}

SELECTIONS = {
    "full": Selection(),
    "row-band": Selection(rows=range(0, 12)),
    "sub-rect": Selection(rows=range(4, 30), cols=range(2, 14)),
}

BUDGETS = {"exact-only": None, "zero": 0.0, "loose": 0.9}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(90125)
    x = rng.standard_normal((64, 5)) @ rng.standard_normal((5, 20))
    x[7, 3] += 200.0
    x[33, 15] -= 180.0
    x[60, 1] += 250.0
    return x


@pytest.fixture(scope="module")
def svdd_model(data):
    model = SVDDCompressor(budget_fraction=0.25).fit(data)
    assert model.num_deltas > 0
    return model


@pytest.fixture(scope="module")
def fresh_dir(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("parity") / "fresh"
    build_compressed(data, directory, budget_fraction=0.25).close()
    return directory


@pytest.fixture(scope="module")
def stale_dir(tmp_path_factory, data):
    """A model whose summaries were NOT refreshed across an append.

    A deferred append leaves no usable store: only the previous state
    file rides forward, stamped for the previous generation, so every
    query takes the exact factor/stream routes until ``summarize``.
    """
    directory = tmp_path_factory.mktemp("parity") / "stale"
    build_compressed(data, directory, budget_fraction=0.25).close()
    rng = np.random.default_rng(5)
    append_columns(
        directory,
        rng.standard_normal((data.shape[0], 2)),
        refresh_summaries=False,
    )
    return directory


BACKEND_NAMES = [
    "ndarray",
    "matrix-store",
    "svd-in-memory",
    "svdd-in-memory",
    "svdd-adapter",
    "row-only-dct",
    "compressed-fresh",
    "compressed-mapped",
    "compressed-stale",
]

#: The source shapes that have a factor form.
FACTOR_BACKENDS = {name for name in BACKEND_NAMES if "svd" in name or "compressed" in name}


@pytest.fixture(scope="module")
def backends(tmp_path_factory, data, svdd_model, fresh_dir, stale_dir):
    """name -> backend: every source shape the seam resolves, and the
    two summary states."""
    fresh = CompressedMatrix.open(fresh_dir)
    mapped = CompressedMatrix.open(fresh_dir, mapped=True)
    stale = CompressedMatrix.open(stale_dir)
    raw_store = MatrixStore.create(
        tmp_path_factory.mktemp("parity-raw") / "x.mat", data
    )
    assert fresh.summaries is not None, "fresh model must carry summaries"
    assert stale.summaries is None, "deferred append must leave no usable store"
    yield {
        "ndarray": data,
        "matrix-store": raw_store,
        "svd-in-memory": SVDCompressor(k=4).fit(data),
        "svdd-in-memory": svdd_model,
        "svdd-adapter": SVDDMethod().fit(data, 0.25),
        "row-only-dct": DCTMethod().fit(data, 0.25),
        "compressed-fresh": fresh,
        "compressed-mapped": mapped,
        "compressed-stale": stale,
    }
    for store in (fresh, mapped, stale, raw_store):
        store.close()


#: The serving modes: a query's own budget, or brownout's.
MODES = dict(argvalues=[False, True], ids=["deltas", "svd-only"])


def _budget(backend, budget, brownout: bool):
    """The budget a query is planned under: its own, or in brownout —
    when it set none — the model's stored estimate, as the serving
    tier plans it."""
    if brownout and budget is None:
        return as_backend(backend).rmspe_estimate
    return budget


def _attempt(callable_):
    """(outcome, payload): outcome is 'ok' or 'unavailable'."""
    try:
        return "ok", callable_()
    except RouteUnavailableError as exc:
        return "unavailable", str(exc)


@pytest.mark.parametrize("brownout", **MODES)
@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_explain_matches_execute_everywhere(backends, backend_name, brownout):
    backend = backends[backend_name]
    engine = QueryEngine(backend)
    dense = _dense(backend)
    for function in FUNCTIONS:
        for sel_name, selection in SELECTIONS.items():
            for budget_name, budget in BUDGETS.items():
                label = f"{backend_name}/{function}/{sel_name}/{budget_name}"
                budget = _budget(backend, budget, brownout)
                query = AggregateQuery(function, selection, max_rmspe=budget)
                explained, plan = _attempt(lambda: engine.explain(query))
                executed, result = _attempt(lambda: engine.aggregate(query))

                # 1. Explain and execute agree on answerability.
                assert explained == executed, (
                    f"{label}: explain={explained} but execute={executed}"
                )
                if explained == "unavailable":
                    continue

                # 2. The explained route IS the executed route, with
                #    the same achieved error bound.
                assert plan["path"] == result.route, (
                    f"{label}: explained {plan['path']!r} "
                    f"but executed {result.route!r}"
                )
                assert plan["error_bound"] == result.error_bound, label
                assert plan["candidates"][0]["route"] == plan["path"], label
                assert plan["cells"] == result.cells_touched, label

                # 3. A zero budget provably never yields the svd route.
                if budget == 0.0:
                    assert result.route != "svd", label
                    assert result.error_bound == 0.0, label

                # 4. Every exact answer agrees with the dense oracle of
                #    the same backend.
                if result.error_bound == 0.0:
                    rows, cols = selection.resolve(dense.shape)
                    expected = ORACLE[function](dense[np.ix_(rows, cols)])
                    assert result.value == pytest.approx(
                        expected, rel=1e-9, abs=1e-9
                    ), label


@pytest.mark.parametrize("brownout", **MODES)
@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_handed_in_plan_executes_as_the_query_does(backends, backend_name, brownout):
    """Plan once: ``execute(query, plan=engine.plan(query))`` is
    ``execute(query)`` — same value to the bit, same route, bound and
    accounting — on every backend, mode, function, shape and budget
    (``test_matrix_covers_every_route``: all four routes among them)."""
    backend = backends[backend_name]
    engine = QueryEngine(backend)
    for function in FUNCTIONS:
        for sel_name, selection in SELECTIONS.items():
            for budget_name, budget in BUDGETS.items():
                label = f"{backend_name}/{function}/{sel_name}/{budget_name}"
                budget = _budget(backend, budget, brownout)
                query = AggregateQuery(function, selection, max_rmspe=budget)
                planned, plan = _attempt(lambda: engine.plan(query))
                if planned == "unavailable":
                    continue
                handed = engine.execute(query, plan=plan)
                direct = engine.execute(query)
                assert handed.route == plan.route.name, label
                assert (
                    handed.value,
                    handed.route,
                    handed.error_bound,
                    handed.cells_touched,
                    handed.rows_fetched,
                ) == (
                    direct.value,
                    direct.route,
                    direct.error_bound,
                    direct.cells_touched,
                    direct.rows_fetched,
                ), label


@pytest.mark.parametrize("budget", [0.0, 0.9])
@pytest.mark.parametrize("function", FUNCTIONS)
def test_plan_made_before_a_refresh_answers_from_one_backend(
    backends, function, budget
):
    """A plan travels with the backend it was priced against: executed
    after ``refresh(other)`` it is re-planned — under the budget it was
    made with — and the answer is wholly the new backend's, never the
    old plan's indices and rollups read against the new data."""
    fresh = backends["compressed-fresh"]
    stale = backends["compressed-stale"]  # two more columns
    engine = QueryEngine(fresh)
    query = AggregateQuery(function, Selection())
    plan = engine.plan(query, max_rmspe=budget)
    old = engine.execute(query, plan=plan)
    # The rollups keep sums: a min/max over every cell streams.
    covered = "summary" if function in FACTOR_FUNCTIONS else "stream"
    assert (old.route, old.cells_touched) == (covered, 64 * 20)
    engine.refresh(stale)
    answered = engine.execute(query, plan=plan)
    expected = QueryEngine(stale).aggregate(query, max_rmspe=budget)
    assert expected.route != "summary"  # the rollups predate the append
    assert (
        answered.value,
        answered.route,
        answered.error_bound,
        answered.cells_touched,
    ) == (
        expected.value,
        expected.route,
        expected.error_bound,
        64 * 22,
    )


def _dense(source) -> np.ndarray:
    """The matrix ``source`` stands for, materialized by its own API."""
    if isinstance(source, np.ndarray):
        return source
    if isinstance(source, MatrixStore):
        return source.read_all()
    if isinstance(source, CompressedMatrix):
        return source.reconstruct_all()
    return source.reconstruct()


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_backend_seam_conformance(backends, backend_name):
    """Every source shape speaks the seam's vocabulary like the dense
    oracle, and offers ``factors`` exactly where the planner admits the
    factor route."""
    source = backends[backend_name]
    backend = as_backend(source)
    assert as_backend(backend) is backend  # idempotent
    dense = _dense(source)
    assert backend.shape == dense.shape

    rng = np.random.default_rng(11)
    rows = rng.integers(0, dense.shape[0], size=40)
    cols = rng.integers(0, dense.shape[1], size=40)
    rows[:3], cols[:3] = (7, 33, 60), (3, 15, 1)  # the planted outliers
    for row, col in zip(rows.tolist(), cols.tolist()):
        assert backend.cell(row, col) == pytest.approx(dense[row, col], abs=1e-9)

    row_idx = np.array([60, 4, 7, 33, 12], dtype=np.int64)  # unsorted on purpose
    col_idx = np.array([1, 2, 3, 15, 19], dtype=np.int64)
    block = backend.block(row_idx, col_idx)
    assert isinstance(block, np.ndarray) and block.dtype == np.float64
    np.testing.assert_allclose(block, dense[np.ix_(row_idx, col_idx)], atol=1e-9)

    store = backend.paged_store
    if store is not None:
        # One gather path for every open: the same rows as the pooled
        # single-row reads, no pager I/O, and its logical pages booked
        # as bypasses unless the store was opened mapped (no pool).
        expected = np.stack([store.row(int(i)) for i in row_idx])
        pool, io = store.pool_stats, store.io_stats
        before = (pool.hits, pool.misses, pool.evictions, io.reads)
        bypassed = pool.bypasses
        assert np.array_equal(store.read_rows(row_idx), expected)
        assert (pool.hits, pool.misses, pool.evictions, io.reads) == before
        assert pool.bypasses - bypassed == (
            0 if store.mapped else store.pages_for_rows(row_idx)
        )

    plan = QueryEngine(source).plan(AggregateQuery("sum", SELECTIONS["sub-rect"]))
    rejected = {r.name: r.reason for r in plan.rejected}
    if backend_name in FACTOR_BACKENDS:
        assert backend.factors is not None and backend.rank > 0
        assert "factor" in {c.name for c in plan.candidates}
        scaled_u, v, index, fetched = backend.factors(row_idx)
        rebuilt = scaled_u @ v.T
        if index is not None:
            row_pos, col_pos, *_rest, values = index.select(
                row_idx, np.arange(dense.shape[1])
            )
            rebuilt[row_pos, col_pos] += values
        np.testing.assert_allclose(rebuilt, dense[row_idx], atol=1e-9)
        assert fetched == (row_idx.size if backend.paged_store is not None else 0)
    else:
        assert backend.factors is None and backend.rank == 0
        assert rejected["factor"] == "backend has no factor form"


@pytest.mark.parametrize(
    "source", ["not a backend", np.ones(5), object(), {"shape": (2, 2)}]
)
def test_unsupported_source_rejected_at_construction(source):
    """Not at first query: the kind is resolved once, up front."""
    with pytest.raises(QueryError):
        as_backend(source)
    with pytest.raises(QueryError):
        QueryEngine(source)


def test_matrix_covers_every_route(backends):
    """Sanity check on the matrix itself: across all combinations the
    planner exercises all four routes (no silently dead lattice arm)."""
    seen = set()
    for backend in backends.values():
        engine = QueryEngine(backend)
        for brownout in (False, True):
            for function in FUNCTIONS:
                for selection in SELECTIONS.values():
                    for budget in BUDGETS.values():
                        budget = _budget(backend, budget, brownout)
                        query = AggregateQuery(function, selection, max_rmspe=budget)
                        outcome, plan = _attempt(lambda: engine.explain(query))
                        if outcome == "ok":
                            seen.add(plan["path"])
    assert seen == {"summary", "factor", "svd", "stream"}


#: The selections whose resolved facts (a run or not, its ends) steer
#: the planner, the U-row gather and the delta fold down different
#: branches, on the ``zero-tail`` model below (64 x 20, rows 58-63 all
#: zero, so no delta lies past row 57).
BOUNDARY_SELECTIONS = {
    "one-row": Selection(rows=[17], cols=range(2, 14)),
    "one-col": Selection(rows=range(4, 30), cols=[5]),
    "last-row": Selection(rows=[2, 33, 63], cols=range(0, 20)),
    "run-past-last-delta": Selection(rows=range(50, 64), cols=range(1, 16)),
    "run-from-row-0": Selection(rows=range(0, 9), cols=range(3, 11)),
    "full-axis": Selection(cols=range(4, 9)),
    "unsorted-duplicated": Selection(rows=[40, 3, 40, 12, 3, 7], cols=[9, 2, 9, 15, 5]),
}


@pytest.fixture(scope="module")
def zero_tail(tmp_path_factory, data):
    tail = data.copy()
    tail[58:] = 0.0
    directory = tmp_path_factory.mktemp("parity") / "zero-tail"
    build_compressed(tail, directory, budget_fraction=0.25).close()
    store = CompressedMatrix.open(directory)
    assert int(store.delta_index.rows.max()) < 58 < store.shape[0] - 1
    yield store
    store.close()


@pytest.mark.parametrize("name", BOUNDARY_SELECTIONS)
def test_boundary_selections_on_the_factor_and_stream_routes(zero_tail, name):
    """Each boundary selection, answered along the factor and the
    stream route, equals the dense NumPy oracle."""
    from tests.conftest import run_route

    selection = BOUNDARY_SELECTIONS[name]
    dense = zero_tail.reconstruct_all()
    rows, cols = selection.resolve(dense.shape)
    block = dense[np.ix_(rows, cols)]
    engine = QueryEngine(zero_tail)
    for function in FUNCTIONS:
        query = AggregateQuery(function, selection)
        routes = {c.name for c in engine.plan(query).candidates}
        assert "stream" in routes and (function in ("min", "max")) != ("factor" in routes)
        for route in routes & {"factor", "stream"}:
            result = run_route(engine, query, route)
            assert result.value == pytest.approx(
                ORACLE[function](block), rel=1e-9, abs=1e-9
            ), f"{name}/{function}/{route}"
