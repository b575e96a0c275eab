"""Append concurrency stress: readers vs. incremental maintenance.

The incremental append (:mod:`repro.core.update`) commits by renaming a
fully-built staging directory over the model.  The contract for live
readers is strict snapshot isolation: while an append lands, every
already-open handle keeps serving answers bit-identical to the
pre-append state, and every fresh ``open()`` sees exactly the pre- or
exactly the post-append state — never a mix, never an error.  A second
round tears the staged page-file write mid-append and requires the
model to be untouched.  A third walks one model through every writer
(build, both appends, a deferred append, ``summarize``) and checks each
version it passes through against a NumPy oracle.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.core.update import append_columns, append_rows
from repro.query import AggregateQuery, CellQuery, QueryEngine, Selection
from repro.query.parser import parse_query
from repro.serve.config import ServeConfig
from repro.serve.robust import RobustDispatcher
from repro.serve.server import QueryServer
from repro.storage import faults
from repro.storage.faults import FaultPlan
from repro.storage.integrity import verify_manifest
from repro.summaries import summarize_directory

THREADS = 8
PRE_SHAPE = (160, 48)
APPEND_COLS = 6


def _queries(seed: int):
    """Deterministic per-thread workload, all within the pre-append shape."""
    rng = np.random.default_rng(seed)
    rows, cols = PRE_SHAPE
    out = []
    for index in range(6):
        out.append(
            CellQuery(int(rng.integers(0, rows)), int(rng.integers(0, cols)))
        )
        r0 = int(rng.integers(0, rows - 8))
        c0 = int(rng.integers(0, cols - 8))
        function = ("sum", "avg", "min", "max", "stddev", "count")[index % 6]
        out.append(
            AggregateQuery(
                function,
                Selection(rows=range(r0, r0 + 8), cols=range(c0, c0 + 8)),
            )
        )
    return out


def _answers(backend, queries):
    engine = QueryEngine(backend)
    values = []
    for query in queries:
        if isinstance(query, CellQuery):
            values.append(engine.cell(query).value)
        else:
            values.append(engine.aggregate(query).value)
    return values


@pytest.fixture()
def model_and_data(tmp_path):
    rng = np.random.default_rng(41)
    u = rng.standard_normal((PRE_SHAPE[0], 5))
    v = rng.standard_normal((5, PRE_SHAPE[1] + APPEND_COLS))
    data = u @ v
    directory = tmp_path / "model"
    build_compressed(data[:, : PRE_SHAPE[1]], directory).close()
    return directory, data


class TestAppendUnderReaders:
    def test_readers_see_only_pre_or_post_state(self, model_and_data):
        directory, data = model_and_data
        pre = CompressedMatrix.open(directory)
        workloads = {i: _queries(seed=i) for i in range(THREADS)}
        pre_truth = {i: _answers(pre, workloads[i]) for i in range(THREADS)}

        barrier = threading.Barrier(THREADS + 1)
        failures: list[str] = []
        observations: list[tuple[int, tuple, list]] = []

        def reader(index: int) -> None:
            try:
                barrier.wait()
                for _round in range(4):
                    # The long-lived handle must stay on its snapshot.
                    got = _answers(pre, workloads[index])
                    if got != pre_truth[index]:
                        failures.append(f"thread {index}: snapshot changed")
                    # A fresh open may see pre- or post-append state,
                    # recorded for exact post-hoc comparison.
                    fresh = CompressedMatrix.open(directory)
                    try:
                        observations.append(
                            (index, fresh.shape, _answers(fresh, workloads[index]))
                        )
                    finally:
                        fresh.close()
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(f"thread {index}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        result = append_columns(directory, data[:, PRE_SHAPE[1] :])
        for thread in threads:
            thread.join()
        assert not failures, "\n".join(failures[:10])
        assert result.cols == PRE_SHAPE[1] + APPEND_COLS

        post = CompressedMatrix.open(directory)
        post_truth = {i: _answers(post, workloads[i]) for i in range(THREADS)}
        post_shape = post.shape
        post.close()
        for index, shape, values in observations:
            if shape == PRE_SHAPE:
                assert values == pre_truth[index], "mixed pre/post answer"
            else:
                assert shape == post_shape
                assert values == post_truth[index], "mixed pre/post answer"
        pre.close()

    def test_torn_staged_write_leaves_model_intact(self, model_and_data):
        """A write fault while streaming new U rows onto the staged copy
        aborts the append; the live model must be byte-for-byte intact
        and immediately appendable again."""
        directory, data = model_and_data
        before = {
            path.name: path.read_bytes() for path in sorted(directory.iterdir())
        }
        new_rows = np.vstack([data[:5, : PRE_SHAPE[1]], data[:5, : PRE_SHAPE[1]]])

        plan = FaultPlan(
            path_substring="u.mat", fail_write_at=1, torn_bytes=16
        )
        with faults.inject(plan):
            with pytest.raises(OSError):
                append_rows(directory, new_rows)
        assert plan.injected >= 1

        after = {
            path.name: path.read_bytes() for path in sorted(directory.iterdir())
        }
        assert after == before
        assert not list(directory.parent.glob("*.staging*"))

        result = append_rows(directory, new_rows)
        assert result.rows == PRE_SHAPE[0] + 10
        with CompressedMatrix.open(directory) as store:
            assert store.shape == (PRE_SHAPE[0] + 10, PRE_SHAPE[1])


_ORACLE = {
    "sum": np.sum,
    "avg": np.mean,
    "min": np.min,
    "max": np.max,
    "stddev": np.std,
    "count": np.size,
}


def _assert_answers_match_oracle(
    directory, logical: np.ndarray, seed: int, front_doors: bool = False
) -> None:
    """20 random aggregates (every fourth over a full axis, where a
    summary store answers) against NumPy over the same matrix: through
    the engine and, with ``front_doors``, the dispatcher and HTTP too."""
    assert verify_manifest(directory).ok
    rng = np.random.default_rng(seed)
    with CompressedMatrix.open(directory) as store:
        assert store.shape == logical.shape
        dense = store.reconstruct_all()
        # A lossy model (k_opt 3 of rank 5) - but of *this* matrix: its
        # measured error is the one its ledger states (to the 1% the
        # frozen-basis projections cost), and retained outliers are exact.
        measured = np.linalg.norm(dense - logical) / np.linalg.norm(logical)
        assert measured == pytest.approx(store.rmspe_estimate, rel=0.01)
        outliers = (store.delta_index.rows, store.delta_index.cols)
        np.testing.assert_allclose(dense[outliers], logical[outliers], atol=1e-9)
        engine = QueryEngine(store)
        texts, wants = [], []
        for index in range(20):
            rows = np.sort(
                rng.choice(logical.shape[0], size=int(rng.integers(1, 40)), replace=False)
            )
            c0 = int(rng.integers(0, logical.shape[1] - 1))
            cols = np.arange(c0, int(rng.integers(c0 + 1, logical.shape[1] + 1)))
            row_text = ",".join(str(row) for row in rows)
            if index % 4 == 0:
                rows = np.arange(logical.shape[0])
                row_text = f"0:{rows.size}"
            elif index % 4 == 2:
                cols = np.arange(logical.shape[1])
            function = sorted(_ORACLE)[index % len(_ORACLE)]
            texts.append(f"{function}() rows {row_text} cols {cols[0]}:{cols[-1] + 1}")
            wants.append(_ORACLE[function](dense[np.ix_(rows, cols)]))
        got = [engine.execute(parse_query(text)).value for text in texts]
    if front_doors:
        dispatcher = RobustDispatcher(directory, ServeConfig(workers=1))
        try:
            got += [dispatcher.dispatch(text)["value"] for text in texts]
        finally:
            dispatcher.close()
        with QueryServer(directory, ServeConfig(port=0, workers=1)) as server:
            for text in texts:
                url = f"{server.url}/query?q={urllib.parse.quote(text)}"
                with urllib.request.urlopen(url, timeout=30) as response:
                    got.append(json.load(response)["value"])
    np.testing.assert_allclose(got, wants * (len(got) // len(wants)), rtol=1e-9, atol=1e-9)


class TestLifecycleAgainstOracle:
    def test_every_version_answers_like_numpy(self, model_and_data):
        directory, data = model_and_data
        cols = PRE_SHAPE[1]
        logical = data[:, :cols]
        _assert_answers_match_oracle(directory, logical, seed=0)

        append_columns(directory, data[:, cols : cols + 3])
        logical = data[:, : cols + 3]
        _assert_answers_match_oracle(directory, logical, seed=1)

        new_rows = logical[:10] * 0.5
        append_rows(directory, new_rows)
        logical = np.vstack([logical, new_rows])
        _assert_answers_match_oracle(directory, logical, seed=2)

        new_cols = np.vstack([data[:, cols + 3 :], data[:10, cols + 3 :] * 0.5])
        append_columns(directory, new_cols, refresh_summaries=False)
        logical = np.hstack([logical, new_cols])
        with CompressedMatrix.open(directory) as store:
            assert store.summaries is None  # exact factor/stream routes only
        _assert_answers_match_oracle(directory, logical, seed=3, front_doors=True)

        assert summarize_directory(directory)["status"] == "rebuilt"
        with CompressedMatrix.open(directory) as store:
            assert store.summaries is not None
        _assert_answers_match_oracle(directory, logical, seed=4)
