"""Matrixed explain/execute parity suite.

The planner's whole reason to exist: for every combination of backend,
engine mode, aggregate function, selection shape, and error budget,
``explain`` must name exactly the route ``aggregate`` takes — and when
no route is admissible, both must raise the same
:class:`RouteUnavailableError`.  The matrix deliberately spans the
summary store's three states (fresh, stale-after-append, absent) and
both engine delta modes, because those were the axes along which the
pre-planner call sites diverged.

The same backend matrix doubles as the conformance suite for the one
backend seam (:mod:`repro.query.backend`): every source shape answers
``cell``/``cells``/``block``/``factors`` like a dense NumPy oracle, and
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
from repro.storage import MatrixStore

FUNCTIONS = ("sum", "avg", "count", "min", "max", "stddev")

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

    The deferred refresh carries the files forward stamped with the
    *old* coverage, so full-axis selections become partial hits — the
    ``summary+factor`` route's natural habitat.
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
    "compressed-no-summaries",
]

#: The source shapes that have a factor form.
FACTOR_BACKENDS = {name for name in BACKEND_NAMES if "svd" in name or "compressed" in name}


@pytest.fixture(scope="module")
def backends(tmp_path_factory, data, svdd_model, fresh_dir, stale_dir):
    """name -> (backend, engine_kwargs): every source shape the seam
    resolves, and the three summary states."""
    fresh = CompressedMatrix.open(fresh_dir)
    mapped = CompressedMatrix.open(fresh_dir, mapped=True)
    stale = CompressedMatrix.open(stale_dir)
    raw_store = MatrixStore.create(
        tmp_path_factory.mktemp("parity-raw") / "x.mat", data
    )
    assert fresh.summaries is not None, "fresh model must carry summaries"
    assert stale.summaries is not None and not stale.summaries.fresh, (
        "deferred append must leave partially-covered summaries"
    )
    yield {
        "ndarray": (data, {}),
        "matrix-store": (raw_store, {}),
        "svd-in-memory": (SVDCompressor(k=4).fit(data), {}),
        "svdd-in-memory": (svdd_model, {}),
        "svdd-adapter": (SVDDMethod().fit(data, 0.25), {}),
        "row-only-dct": (DCTMethod().fit(data, 0.25), {}),
        "compressed-fresh": (fresh, {}),
        "compressed-mapped": (mapped, {}),
        "compressed-stale": (stale, {}),
        "compressed-no-summaries": (fresh, {"use_summaries": False}),
    }
    for store in (fresh, mapped, stale, raw_store):
        store.close()


def _attempt(callable_):
    """(outcome, payload): outcome is 'ok' or 'unavailable'."""
    try:
        return "ok", callable_()
    except RouteUnavailableError as exc:
        return "unavailable", str(exc)


@pytest.mark.parametrize("include_deltas", [True, False], ids=["deltas", "svd-only"])
@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_explain_matches_execute_everywhere(backends, backend_name, include_deltas):
    backend, kwargs = backends[backend_name]
    engine = QueryEngine(backend, include_deltas=include_deltas, **kwargs)
    reference = QueryEngine(backend, use_fast_path=False, use_summaries=False)
    for function in FUNCTIONS:
        for sel_name, selection in SELECTIONS.items():
            for budget_name, budget in BUDGETS.items():
                label = f"{backend_name}/{function}/{sel_name}/{budget_name}"
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

                # 4. Every exact answer agrees with the delta-corrected
                #    streaming reference on the same backend.
                if result.error_bound == 0.0:
                    expected = reference.aggregate(
                        AggregateQuery(function, selection)
                    )
                    assert result.value == pytest.approx(
                        expected.value, rel=1e-9, abs=1e-9
                    ), label


@pytest.mark.parametrize("include_deltas", [True, False], ids=["deltas", "svd-only"])
@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_handed_in_plan_executes_as_the_query_does(
    backends, backend_name, include_deltas
):
    """Plan once: ``execute(query, plan=engine.plan(query))`` is
    ``execute(query)`` — same value to the bit, same route, bound and
    accounting — on every backend, mode, function, shape and budget
    (``test_matrix_covers_every_route``: all five routes among them)."""
    backend, kwargs = backends[backend_name]
    engine = QueryEngine(backend, include_deltas=include_deltas, **kwargs)
    for function in FUNCTIONS:
        for sel_name, selection in SELECTIONS.items():
            for budget_name, budget in BUDGETS.items():
                label = f"{backend_name}/{function}/{sel_name}/{budget_name}"
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
    fresh, _ = backends["compressed-fresh"]
    stale, _ = backends["compressed-stale"]  # two more columns
    engine = QueryEngine(fresh)
    query = AggregateQuery(function, Selection())
    plan = engine.plan(query, max_rmspe=budget)
    old = engine.execute(query, plan=plan)
    assert (old.route, old.cells_touched) == ("summary", 64 * 20)
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
    source, _kwargs = backends[backend_name]
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
    np.testing.assert_allclose(backend.cells(rows, cols), dense[rows, cols], atol=1e-9)

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
    planner exercises all five routes (no silently dead lattice arm)."""
    seen = set()
    for backend_name, (backend, kwargs) in backends.items():
        for include_deltas in (True, False):
            engine = QueryEngine(backend, include_deltas=include_deltas, **kwargs)
            for function in FUNCTIONS:
                for selection in SELECTIONS.values():
                    for budget in BUDGETS.values():
                        query = AggregateQuery(function, selection, max_rmspe=budget)
                        outcome, plan = _attempt(lambda: engine.explain(query))
                        if outcome == "ok":
                            seen.add(plan["path"])
    assert {"summary", "summary+factor", "factor", "svd", "stream"} <= seen


def test_stale_summaries_take_partial_route_without_divergence(backends):
    """The partially-covered model must not hand out full rollup hits —
    the residual columns the rollups miss get streamed and merged, and
    explain names that exact decomposition via the same planner."""
    backend, kwargs = backends["compressed-stale"]
    engine = QueryEngine(backend, **kwargs)

    # A factor-capable aggregate: the full rollup hit must be off the
    # table, summary+factor must be priced as an exact candidate, and
    # whatever wins, explain and execute agree.
    avg = AggregateQuery("avg", Selection(rows=range(0, 12)))
    plan = engine.explain(avg)
    assert plan["path"] != "summary"
    candidates = {c["route"]: c for c in plan["candidates"]}
    assert "summary" not in candidates
    assert candidates["summary+factor"]["error_bound"] == 0.0
    assert candidates["summary+factor"]["row_fetches"] > 0  # residual stream
    assert engine.aggregate(avg).route == plan["path"]

    # min cannot use factor space, and over the full matrix the rollup
    # core plus a two-column residual beats streaming every cell — the
    # partial summary route wins outright.
    low = AggregateQuery("min", Selection())
    plan = engine.explain(low)
    assert plan["path"] == "summary+factor"
    result = engine.aggregate(low)
    assert result.route == "summary+factor"
    assert result.error_bound == 0.0
    assert engine.stats["summary_partial"] == 1
    assert engine.stats["summary_hits"] == 0
    reference = QueryEngine(backend, use_fast_path=False, use_summaries=False)
    assert result.value == pytest.approx(
        reference.aggregate(AggregateQuery("min", low.selection)).value,
        rel=1e-9,
    )
