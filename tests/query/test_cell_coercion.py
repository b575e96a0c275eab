"""A cell query names its cell with two integers, at every front door.

A ``(row, col)`` whose members are not integers used to be truncated
with ``int()`` — ``(1.7, 2)``, ``("3", 5)`` and ``(True, 2)`` answered
cells (1, 2), (3, 5) and (1, 2) — and a ``CellQuery`` built with a
float raised a bare ``TypeError`` from deep in the store.  Every such
query is now a :class:`QueryError` (a 400 at the HTTP tier), through
the engine, ``coerce_query`` and the serving dispatcher alike; Python
and NumPy integers are still accepted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.build import build_compressed
from repro.exceptions import QueryError
from repro.query.engine import CellQuery, QueryEngine, coerce_query
from repro.serve.config import ServeConfig
from repro.serve.robust import RobustDispatcher


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    rng = np.random.default_rng(30)
    data = rng.standard_normal((24, 3)) @ rng.standard_normal((3, 16))
    directory = tmp_path_factory.mktemp("coercion") / "model"
    build_compressed(data, directory, budget_fraction=0.2).close()
    return directory


@pytest.fixture(scope="module")
def dispatcher(model_dir):
    dispatcher = RobustDispatcher(model_dir, ServeConfig(workers=1))
    yield dispatcher
    dispatcher.close()


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(np.arange(24.0 * 16).reshape(24, 16))


def _front_door(name, engine, dispatcher):
    """``name``'s entry point as ``query -> what names the cell``."""
    return {
        "engine.cell": lambda query: engine.cell(query).value,
        "engine.execute": lambda query: engine.execute(query).value,
        "coerce_query": coerce_query,
        "dispatch": lambda query: dispatcher.dispatch(query)["value"],
    }[name]


FRONT_DOORS = ["engine.cell", "engine.execute", "coerce_query", "dispatch"]

NOT_INTEGERS = [
    pytest.param((1.7, 2), id="float-row"),
    pytest.param((1, 2.0), id="float-col"),
    pytest.param(("3", 5), id="str-row"),
    pytest.param((True, 2), id="bool-row"),
    pytest.param((1, np.True_), id="numpy-bool-col"),
    pytest.param(CellQuery(1.7, 2), id="cellquery-float"),
    pytest.param(CellQuery(1, "2"), id="cellquery-str"),
]


@pytest.mark.parametrize("door", FRONT_DOORS)
@pytest.mark.parametrize("query", NOT_INTEGERS)
def test_non_integer_index_is_a_query_error(door, query, engine, dispatcher):
    with pytest.raises(QueryError, match="must be integers"):
        _front_door(door, engine, dispatcher)(query)


@pytest.mark.parametrize("door", FRONT_DOORS)
def test_numpy_integers_name_the_same_cell(door, engine, dispatcher):
    answer = _front_door(door, engine, dispatcher)
    want = answer((3, 5))
    for query in ((np.int64(3), np.int32(5)), CellQuery(np.uint8(3), np.int16(5))):
        assert answer(query) == want
