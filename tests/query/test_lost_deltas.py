"""A store whose open lost its deltas plans no exact route it cannot keep.

A CRC-flipped ``deltas.bin`` opens only with ``on_corrupt="degraded"``,
and then without its deltas: the store's cells and streamed rows are
the bare rank-k SVD.  Once, a plain engine over it folded nothing and
streamed SVD-only rows on the ``factor`` and ``stream`` routes and
stamped both ``error_bound: 0.0`` (``sum() rows 0:200 cols 5:30`` 1.2%
off, ``min() rows 0:50 cols 0:10`` the wrong value).  Now the planner
reads ``Backend.deltas_lost``: with no budget such a query has no
route; under a budget it takes ``svd``, stamped with the stored
estimate; every answer stamped 0.0 is the model's dense form; and a
cell, the bare SVD, says so: route ``svd``, the same stamp.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.core import CompressedMatrix
from repro.core.build import build_compressed
from repro.data import phone_matrix
from repro.exceptions import RouteUnavailableError
from repro.query import AggregateQuery, QueryEngine, Selection
from repro.query.backend import as_backend
from repro.query.parser import parse_query
from tests.conftest import lose_deltas, run_route

ORACLE = {
    "sum": np.sum,
    "avg": np.mean,
    "count": np.size,
    "min": np.min,
    "max": np.max,
    "stddev": np.std,
}

SELECTIONS = [
    Selection(),
    Selection(rows=range(0, 50)),
    Selection(rows=range(0, 200), cols=range(5, 30)),
    Selection(rows=range(0, 50), cols=range(0, 10)),
    Selection(rows=[3, 99, 140, 377], cols=[0, 7, 59]),
]


@pytest.fixture(scope="module")
def dense_and_lost(tmp_path_factory):
    """(the healthy model's dense form, the same model opened degraded
    after its ``deltas.bin`` broke)."""
    root = tmp_path_factory.mktemp("lost-deltas")
    healthy_dir = root / "healthy"
    build_compressed(phone_matrix(500)[:, :60], healthy_dir, budget_fraction=0.10).close()
    with CompressedMatrix.open(healthy_dir) as healthy:
        assert healthy.num_deltas > 0
        dense = healthy.reconstruct_all()
    directory = root / "lost"
    shutil.copytree(healthy_dir, directory)
    lose_deltas(directory)
    store = CompressedMatrix.open(directory, on_corrupt="degraded")
    yield dense, store
    store.close()


def test_the_lost_deltas_are_a_backend_fact(dense_and_lost):
    _dense, store = dense_and_lost
    assert store.degraded and store.num_deltas == 0
    assert store.deltas_lost and as_backend(store).deltas_lost
    assert store.rmspe_estimate is not None


@pytest.mark.parametrize(
    "text", ["sum() rows 0:200 cols 5:30", "min() rows 0:50 cols 0:10"]
)
def test_no_budget_means_no_route(dense_and_lost, text):
    _dense, store = dense_and_lost
    engine = QueryEngine(store)
    query = parse_query(text)
    with pytest.raises(RouteUnavailableError, match="lost its deltas"):
        engine.aggregate(query)
    with pytest.raises(RouteUnavailableError, match="lost its deltas"):
        engine.explain(query)


def test_a_budget_takes_svd_stamped_with_the_estimate(dense_and_lost):
    dense, store = dense_and_lost
    engine = QueryEngine(store)
    result = engine.aggregate(parse_query("sum() rows 0:200 cols 5:30"), max_rmspe=1.0)
    assert result.route == "svd"
    assert result.error_bound == store.rmspe_estimate
    assert result.value != pytest.approx(dense[0:200, 5:30].sum(), rel=1e-9)


def test_every_answer_stamped_exact_is_the_dense_form(dense_and_lost):
    """Every admissible route of every aggregate under every budget: a
    0.0 stamp is the healthy model's dense answer to 1e-9."""
    dense, store = dense_and_lost
    engine = QueryEngine(store)
    stamped_exact = 0
    for selection in SELECTIONS:
        rows, cols = selection.resolve(dense.shape)
        want_block = dense[np.ix_(rows, cols)]
        for function, oracle in ORACLE.items():
            for budget in (None, 0.0, 1.0):
                query = AggregateQuery(function, selection, max_rmspe=budget)
                try:
                    plan = engine.plan(query)
                except RouteUnavailableError:
                    continue
                assert {c.name for c in plan.candidates} <= {"summary", "svd"}
                for route in plan.candidates:
                    result = run_route(engine, query, route.name, plan)
                    if result.error_bound == 0.0:
                        stamped_exact += 1
                        assert result.value == pytest.approx(
                            oracle(want_block), rel=1e-9, abs=1e-9
                        ), (function, route.name, selection)
                    else:
                        assert result.error_bound == store.rmspe_estimate
    assert stamped_exact > 0  # the rollups' full-axis answers


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_a_cell_is_the_svd_route_and_carries_its_stamp(
    dense_and_lost, request, traced
):
    """A cell of the store is the bare SVD: route ``svd``, stamped with
    what an ``svd`` aggregate carries.  The engine settles it when it
    is built or refreshed, so a healthy backend's cells stay unstamped."""
    if traced:
        request.getfixturevalue("enabled_registry")
    dense, store = dense_and_lost
    # The cell the lost deltas moved most.
    moved = np.abs(dense - store.reconstruct_all())
    cell = tuple(int(i) for i in np.unravel_index(moved.argmax(), dense.shape))
    engine = QueryEngine(dense)
    healthy = engine.cell(cell)
    assert (healthy.route, healthy.error_bound) == ("", 0.0)
    engine.refresh(store)
    result = engine.cell(cell)
    query = parse_query("sum() rows 0:200 cols 5:30")
    aggregate = engine.aggregate(query, max_rmspe=1.0)
    assert result.route == aggregate.route == "svd"
    assert result.error_bound == aggregate.error_bound == store.rmspe_estimate
    assert result.value == store.cell(*cell) != pytest.approx(dense[cell], rel=1e-9)
    assert (result.profile is not None) == traced
