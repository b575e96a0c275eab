"""The summary store at the serving tier: /groupby, brownout, counters.

A dashboard time series of sums over a summarized model must be
answered without touching ``u.mat`` (the whole point of the per-day
profile); a per-customer series comes from the factor identities and a
min/max series from a streamed pass, each equal to the dense oracle.  A
brownout must prefer an exact summary answer over an SVD-only
approximation, and sheds a min/max it would have to stream.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.exceptions import OverloadedError, QueryError
from repro.query import bucket_series
from repro.query.parser import parse_query
from repro.serve.config import ServeConfig
from repro.serve.robust import RobustDispatcher
from repro.serve.server import QueryServer


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    rng = np.random.default_rng(11)
    data = rng.random((160, 70)) * 10
    data[3, 7] += 200.0
    directory = tmp_path_factory.mktemp("serve") / "model"
    build_compressed(data, directory, budget_fraction=0.20).close()
    return directory


@pytest.fixture(scope="module")
def exact(model_dir):
    with CompressedMatrix.open(model_dir) as store:
        rows, cols = store.shape
        return store.reconstruct_range(np.arange(rows), np.arange(cols))


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


class TestBucketSeries:
    def test_summary_hit_reads_no_u_pages(self, model_dir, exact):
        with CompressedMatrix.open(model_dir) as saved:
            saved.u_pool_stats.reset()
            series = bucket_series(saved, "month", "sum")
            assert series["path"] == "summary"
            assert saved.u_pool_stats.accesses == 0  # zero u.mat pages
            edges = series["edges"]
            for i, value in enumerate(series["values"]):
                assert value == pytest.approx(
                    exact[:, edges[i] : edges[i + 1]].sum(), rel=1e-9
                )

    def test_stream_path_on_plain_backend(self, exact):
        series = bucket_series(exact, "week", "max")
        assert series["path"] == "stream" and "partial" not in series
        edges = series["edges"]
        for i, value in enumerate(series["values"]):
            assert value == exact[:, edges[i] : edges[i + 1]].max()

    @pytest.mark.parametrize("function", ["sum", "stddev", "min", "max"])
    @pytest.mark.parametrize("by", ["customer", "month"])
    def test_every_path_equals_the_dense_oracle(self, model_dir, exact, by, function):
        with CompressedMatrix.open(model_dir) as saved:
            series = bucket_series(saved, by, function)
        if function in ("min", "max"):
            assert series["path"] == "stream"
        else:
            assert series["path"] == ("factor" if by == "customer" else "summary")
        oracle = {"sum": np.sum, "stddev": np.std, "min": np.min, "max": np.max}[function]
        if by == "customer":
            expected = [oracle(row) for row in exact]
        else:
            edges = series["edges"]
            expected = [oracle(exact[:, lo:hi]) for lo, hi in zip(edges, edges[1:])]
        np.testing.assert_allclose(series["values"], expected, rtol=1e-12)

    def test_customer_limit_orders_by_value(self, model_dir, exact):
        with CompressedMatrix.open(model_dir) as saved:
            series = bucket_series(saved, "customer", "sum", limit=4)
            assert series["path"] == "factor"
            assert series["buckets"] == 4
            expected = np.argsort(exact.sum(axis=1))[::-1][:4]
            assert series["labels"] == [int(i) for i in expected]

    def test_time_limit_keeps_most_recent(self, model_dir):
        with CompressedMatrix.open(model_dir) as saved:
            full = bucket_series(saved, "week", "sum")
            tail = bucket_series(saved, "week", "sum", limit=3)
            assert tail["values"] == full["values"][-3:]
            assert tail["edges"] == full["edges"][-4:]

    def test_unknown_function_is_refused_before_any_read(self, exact):
        read = []

        class Rows:
            shape = exact.shape

            def row(self, index):
                read.append(index)
                return exact[index]

        with pytest.raises(QueryError, match="unknown aggregate 'median'"):
            bucket_series(Rows(), "month", "median")
        assert read == []

    def test_bad_axis_and_limit_rejected(self, model_dir):
        with CompressedMatrix.open(model_dir) as saved:
            with pytest.raises(QueryError):
                bucket_series(saved, "fortnight", "sum")
            with pytest.raises(QueryError):
                bucket_series(saved, "day", "sum", limit=0)


class TestGroupbyEndpoint:
    def test_groupby_route_and_counters(self, model_dir, exact):
        config = ServeConfig(port=0, workers=1)
        with QueryServer(model_dir, config) as server:
            payload = _get(f"{server.url}/groupby?by=month&fn=sum")
            assert payload["path"] == "summary"
            assert payload["degraded"] is False
            edges = payload["edges"]
            assert payload["values"][0] == pytest.approx(
                exact[:, edges[0] : edges[1]].sum(), rel=1e-9
            )
            top = _get(f"{server.url}/groupby?by=customer&fn=max&limit=2")
            assert (top["buckets"], top["path"]) == (2, "stream")
            top = _get(f"{server.url}/groupby?by=customer&fn=sum&limit=2")
            assert (top["buckets"], top["path"]) == (2, "factor")
            stats = _get(f"{server.url}/stats")
            assert stats["summary_hits"] == 1
            assert stats["summary_misses"] == 2
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{server.url}/groupby?by=hour")
            assert excinfo.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{server.url}/groupby?limit=abc")
            assert excinfo.value.code == 400


class TestBrownoutSummaries:
    def test_sums_served_exactly_and_min_max_shed_in_brownout(self, model_dir, exact):
        dispatcher = RobustDispatcher(model_dir, ServeConfig(port=0, workers=1))
        try:
            dispatcher.model_degraded = True  # force brownout
            assert dispatcher.brownout_active()
            payload = dispatcher.dispatch(parse_query("stddev()"))
            # Exact from the per-day profile: NOT stamped degraded.
            assert payload["degraded"] is False
            assert payload["value"] == pytest.approx(exact.std(), rel=1e-12)
            assert dispatcher.summary_brownout_hits == 1
            # A covered sum also prefers the summary over SVD-only.
            payload = dispatcher.dispatch(parse_query("sum()"))
            assert payload["degraded"] is False
            assert payload["value"] == pytest.approx(exact.sum(), rel=1e-12)
            # The store keeps no max: streaming it is shed.
            with pytest.raises(OverloadedError):
                dispatcher.dispatch(parse_query("max()"))
        finally:
            dispatcher.close()

    def test_uncovered_min_max_still_sheds(self, model_dir):
        dispatcher = RobustDispatcher(model_dir, ServeConfig(port=0, workers=1))
        try:
            dispatcher.model_degraded = True
            with pytest.raises(OverloadedError):
                dispatcher.dispatch(parse_query("max() rows 0:10 cols 0:10"))
        finally:
            dispatcher.close()

    def test_groupby_shed_while_draining(self, model_dir):
        dispatcher = RobustDispatcher(model_dir, ServeConfig(port=0, workers=1))
        try:
            dispatcher._draining = True
            with pytest.raises(OverloadedError):
                dispatcher.groupby("day", "sum")
        finally:
            dispatcher.close()
