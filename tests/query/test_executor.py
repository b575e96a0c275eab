"""The thread-pool rung of the benchmark ladder answers as the engine does."""

from repro.core import build_compressed
from repro.query import AggregateQuery, CellQuery, QueryEngine, Selection
from repro.query.executor import QueryExecutor


class TestDispatch:
    def test_submit_cell(self, tmp_path, rng):
        data = rng.standard_normal((60, 4)) @ rng.standard_normal((4, 24))
        queries = [
            CellQuery(3, 7),
            AggregateQuery("sum", Selection(rows=range(5, 40), cols=range(2, 20))),
        ]
        with build_compressed(data, tmp_path / "model") as store:
            want = [QueryEngine(store).execute(query) for query in queries]
            with QueryExecutor(store, max_workers=2) as pool:
                assert [pool.submit(query).result() for query in queries] == want
