"""Append concurrency stress: readers vs. incremental maintenance.

The incremental append (:mod:`repro.core.update`) commits by renaming a
fully-built staging directory over the model.  The contract for live
readers is strict snapshot isolation: while an append lands, every
already-open handle keeps serving answers bit-identical to the
pre-append state, and every fresh ``open()`` sees exactly the pre- or
exactly the post-append state — never a mix, never an error.  Torn
appends and every version's answers are the lifecycle machine's
(``test_lifecycle.py``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.core.update import append_columns
from repro.query import AggregateQuery, CellQuery, QueryEngine, Selection

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
