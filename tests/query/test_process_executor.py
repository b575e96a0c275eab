"""The process-pool rung of the benchmark ladder answers as the engine does."""

import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.exceptions import FormatError
from repro.query import AggregateQuery, CellQuery, QueryEngine, Selection
from repro.query.process_executor import ProcessQueryExecutor


class TestDispatch:
    def test_submit_matches_sequential(self, tmp_path, rng):
        directory = tmp_path / "model"
        data = rng.standard_normal((60, 4)) @ rng.standard_normal((4, 24))
        build_compressed(data, directory).close()
        queries = [
            CellQuery(3, 7),
            AggregateQuery("sum", Selection(rows=range(5, 40), cols=range(2, 20))),
        ]
        with CompressedMatrix.open(directory) as store:
            want = [QueryEngine(store).execute(query) for query in queries]
        with ProcessQueryExecutor(directory, max_workers=1) as pool:
            assert [pool.submit(query).result() for query in queries] == want

    def test_bad_directory_fails_fast(self, tmp_path):
        with pytest.raises(FormatError, match="not a model directory"):
            ProcessQueryExecutor(tmp_path / "missing")
