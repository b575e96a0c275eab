"""A streamed aggregate reduces only the components its answer reads.

``stream_components(..., function)`` skips the sums, squares and
extrema :func:`finalize` does not read for ``function``; the answer must
be the one every component gives, on the stream route and merged into a
``summary+factor`` core alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressedMatrix
from repro.core.build import build_compressed
from repro.core.update import append_columns
from repro.query import AggregateQuery, QueryEngine, Selection
from repro.query.backend import as_backend
from repro.query.components import (
    _STREAM_BLOCK_ROWS,
    Components,
    finalize,
    stream_components,
)
from repro.query.engine import AGGREGATES


def _all_components(backend, row_idx, col_idx) -> Components:
    """Every component, block by block in the stream's order."""
    comps = Components()
    for start in range(0, row_idx.size, _STREAM_BLOCK_ROWS):
        block = backend.block(row_idx[start : start + _STREAM_BLOCK_ROWS], col_idx)
        comps = comps.merge(
            Components(
                float(block.sum()),
                float((block * block).sum()),
                float(block.min()),
                float(block.max()),
                int(block.size),
            )
        )
    return comps


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(2718)
    x = rng.standard_normal((1200, 5)) @ rng.standard_normal((5, 30))
    x[rng.integers(0, 1200, 40), rng.integers(0, 30, 40)] += 150.0
    return x


@pytest.fixture(scope="module")
def fresh(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("components") / "fresh"
    build_compressed(data, directory, budget_fraction=0.25).close()
    with CompressedMatrix.open(directory) as store:
        yield store


@pytest.fixture(scope="module")
def stale(tmp_path_factory, data):
    """Summaries not refreshed across an append: a full-axis selection
    is a partial hit with residual rectangles to stream."""
    directory = tmp_path_factory.mktemp("components") / "stale"
    build_compressed(data, directory, budget_fraction=0.25).close()
    append_columns(
        directory,
        np.random.default_rng(5).standard_normal((data.shape[0], 3)),
        refresh_summaries=False,
    )
    with CompressedMatrix.open(directory) as store:
        yield store


#: Rows across several stream blocks (scattered, and a contiguous run)
#: by a time range and by scattered days.
_SELECTIONS = {
    "scattered-range": (np.arange(3, 1200, 7), np.arange(4, 21)),
    "run-scattered": (np.arange(100, 1150), np.array([0, 2, 9, 17, 29])),
}


@pytest.mark.parametrize("function", AGGREGATES)
@pytest.mark.parametrize("selection", sorted(_SELECTIONS))
@pytest.mark.parametrize("source", ["ndarray", "compressed"])
def test_function_components_finalize_like_all(data, fresh, function, selection, source):
    backend = as_backend(data if source == "ndarray" else fresh)
    rows, cols = _SELECTIONS[selection]
    partial = stream_components(backend, rows, cols, function)
    assert partial.count == rows.size * cols.size
    assert finalize(function, partial) == finalize(
        function, _all_components(backend, rows, cols)
    )


@pytest.mark.parametrize("function", AGGREGATES)
def test_summary_factor_merge_finalizes_like_all(stale, function):
    engine = QueryEngine(stale)
    query = AggregateQuery(function, Selection(cols=range(20, 33)))  # 3 new days
    plan = engine.plan(query)
    summary = plan.summary_plan
    assert summary is not None and summary.residuals
    backend = as_backend(stale)
    merged = all_merged = summary.core
    for rows, cols in summary.residuals:
        merged = merged.merge(stream_components(backend, rows, cols, function))
        all_merged = all_merged.merge(_all_components(backend, rows, cols))
    want = finalize(function, all_merged)
    assert finalize(function, merged) == want
    if function in ("min", "max", "stddev"):  # the rest plan the cheaper factor sums
        assert plan.route.name == "summary+factor"
        assert engine.aggregate(query, plan=plan).value == want


@pytest.mark.parametrize("function", ["min", "max"])
def test_compressed_extrema_on_the_stream_route_match_a_dense_oracle(fresh, function):
    dense = fresh.reconstruct_all()
    rows, cols = np.arange(5, 1100, 3), np.arange(6, 25)
    result = QueryEngine(fresh).aggregate(
        AggregateQuery(function, Selection(rows=rows.tolist(), cols=range(6, 25)))
    )
    assert result.route == "stream"
    assert result.cells_touched == rows.size * cols.size
    want = getattr(np, function)(dense[np.ix_(rows, cols)])
    np.testing.assert_allclose(result.value, want, rtol=1e-12, atol=1e-12)
