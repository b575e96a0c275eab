"""One model directory through its whole lifecycle, against NumPy.

A Hypothesis state machine builds a product model directory (float64
or float32) over low-rank data with sparse spikes, then drives it
through every writer — both appends with and without the summary
refresh (all-zero new rows included), ``summarize``, a torn write in
the middle of an append — and every reader: reopens pooled or mapped,
a damaged ``deltas.bin`` on a copy under both ``on_corrupt`` modes,
the engine along each admissible route, the serving dispatcher, and
HTTP.  Beside the model it grows the logical matrix as a dense NumPy
array; after every step the model must agree with it:

- the manifest verifies, and the shape, the append counters, the
  delta budget, the space budget, the precision of every stored file
  and the zero-row flags are what the machine's own bookkeeping says;
- the stored RMSPE is the measured one, ``||X - X_hat|| / ||X||``;
- a cell of an earlier version changes only where a delta came or
  went;
- every route answers every aggregate like NumPy over the model's
  dense form, ``svd`` over its SVD-only part, stamped with the stored
  RMSPE; a deferred append's model plans no summary route, and a copy
  that lost its deltas plans no exact route but the rollups;
- a fresh store's per-day sum and sum of squares are the dense form's
  column sums and sums of squares, and every per-customer series and
  every min/max series is NumPy's over the dense form.

The settings below are the suite's budget and are derandomized, so a
run repeats; a deeper search replaces ``LifecycleMachine.TestCase.settings``
(more examples and steps, ``derandomize=False``) and runs under
``pytest --hypothesis-seed=N``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import urllib.parse
import urllib.request
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import CompressedMatrix, build_compressed, space
from repro.core.update import append_columns, append_rows
from repro.exceptions import ChecksumError, RouteUnavailableError
from repro.obs.registry import registry
from repro.query import AggregateQuery, CellQuery, QueryEngine, Selection, bucket_series
from repro.serve.config import ServeConfig
from repro.serve.robust import RobustDispatcher
from repro.serve.server import QueryServer
from repro.storage import faults, model_dir
from repro.storage.delta_file import DeltaFile
from repro.storage.faults import FaultPlan
from repro.storage.integrity import verify_manifest
from repro.storage.model_dir import read_update_state
from repro.summaries import summarize_directory
from tests.conftest import lose_deltas, run_route

BUDGET = 0.3
RANK = 3

#: Each aggregate over a dense block: what every exact route must give.
ORACLE = {
    "sum": np.sum,
    "avg": np.mean,
    "count": np.size,
    "min": np.min,
    "max": np.max,
    "stddev": np.std,
}


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _svd_only(store: CompressedMatrix, dense: np.ndarray) -> np.ndarray:
    """The model's dense form without its delta corrections."""
    out = dense.copy()
    index = store.delta_index
    if index is not None and len(index):
        out[index.rows, index.cols] -= index.values
    return out


def _delta_cells(store: CompressedMatrix) -> set[tuple[int, int]]:
    index = store.delta_index
    if index is None:
        return set()
    return set(zip(index.rows.tolist(), index.cols.tolist()))


class LifecycleMachine(RuleBasedStateMachine):
    """A model directory and the dense matrix it stands for."""

    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        self.directory = self.root / "model"
        self.held: CompressedMatrix | None = None
        self.served = False

    def teardown(self) -> None:
        if self.held is not None:
            self.held.close()
        self._tmp.cleanup()

    # -- the logical matrix -------------------------------------------------

    def _block(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Rank-``RANK`` cells ``u v^t`` plus noise, with a few spikes
        large enough that the delta competition keeps them."""
        block = u @ v.T + 0.05 * self.rng.standard_normal((u.shape[0], v.shape[0]))
        spikes = self.rng.random(block.shape) < 0.04
        block[spikes] += self.rng.choice([-1.0, 1.0], int(spikes.sum())) * 40.0
        return block

    @initialize(
        bytes_per_value=st.sampled_from([8, 4]),
        rows=st.integers(24, 56),
        cols=st.integers(10, 24),
        zero_rows=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    def build(self, bytes_per_value, rows, cols, zero_rows, seed):
        self.rng = np.random.default_rng(seed)
        self.bytes_per_value = bytes_per_value
        self.u_true = self.rng.standard_normal((rows, RANK)) * [6.0, 3.0, 1.5]
        self.u_true[:zero_rows] = 0.0
        self.v_true = self.rng.standard_normal((cols, RANK))
        self.logical = self._block(self.u_true, self.v_true)
        self.logical[:zero_rows] = 0.0
        build_compressed(
            self.logical, self.directory, BUDGET, bytes_per_value=bytes_per_value
        ).close()
        self.appends = {"appends": 0, "rows_appended": 0, "cols_appended": 0}
        self.summaries_fresh = True
        self.mapped = False
        # (dense form, delta cells, SVD-only form) of the model as the
        # last check found it, and of the version before the last append.
        self.checked = self.previous = None
        self.held = CompressedMatrix.open(self.directory)
        self.held_dense = self.held.reconstruct_all()

    # -- writers ------------------------------------------------------------

    def _new_data(self, kind: str, count: int, zero: int):
        """``count`` new rows (the first ``zero`` of them all-zero) or
        columns (``zero`` > 0 keeps the silent customers silent), and
        their hidden factor rows."""
        factor = self.rng.standard_normal((count, RANK))
        if kind == "rows":
            factor *= [6.0, 3.0, 1.5]
            factor[:zero] = 0.0
            new = self._block(factor, self.v_true)
            new[:zero] = 0.0
        else:
            new = self._block(self.u_true, factor)
            if zero:
                new[~self.logical.any(axis=1)] = 0.0
        return new, factor

    def _append(self, kind: str, data, refresh: bool) -> None:
        new, factor = data
        self.previous = self.checked
        if kind == "rows":
            result = append_rows(self.directory, new, refresh_summaries=refresh)
            self.logical = np.vstack([self.logical, new])
            self.u_true = np.vstack([self.u_true, factor])
            self.appends["rows_appended"] += new.shape[0]
        else:
            result = append_columns(self.directory, new, refresh_summaries=refresh)
            self.logical = np.hstack([self.logical, new])
            self.v_true = np.vstack([self.v_true, factor])
            self.appends["cols_appended"] += new.shape[1]
        self.appends["appends"] += 1
        self.summaries_fresh = refresh
        assert (result.rows, result.cols) == self.logical.shape
        assert result.kind == kind

    @rule(
        kind=st.sampled_from(["rows", "columns"]),
        count=st.integers(1, 5),
        zero=st.integers(0, 2),
        refresh=st.booleans(),
    )
    def append(self, kind, count, zero, refresh):
        self._append(kind, self._new_data(kind, count, zero), refresh)

    @rule(kind=st.sampled_from(["rows", "columns"]), torn_bytes=st.integers(1, 64))
    def crash_mid_append(self, kind, torn_bytes):
        """A write that dies inside the append leaves the directory
        byte-identical, with no staging debris, and appendable."""
        before = _files(self.directory)
        data = self._new_data(kind, 2, 0)
        new = data[0]
        if kind == "rows":
            # The staged copy of the U page file tears on its first write.
            plan = FaultPlan(path_substring="u.mat", fail_write_at=1, torn_bytes=torn_bytes)
            with faults.inject(plan), pytest.raises(OSError):
                append_rows(self.directory, new)
            assert plan.injected == 1
        else:
            # A column append rewrites no page: it dies at its last step.
            with mock.patch.object(
                model_dir, "write_manifest", side_effect=OSError("disk full")
            ), pytest.raises(OSError):
                append_columns(self.directory, new)
        assert _files(self.directory) == before
        assert not list(self.root.glob("*.staging*"))
        self._append(kind, data, refresh=True)

    @rule()
    def summarize(self):
        status = summarize_directory(self.directory)["status"]
        assert status == ("fresh" if self.summaries_fresh else "rebuilt")
        self.summaries_fresh = True

    # -- readers ------------------------------------------------------------

    @rule(mapped=st.booleans())
    def reopen(self, mapped):
        """The held handle serves its snapshot until reopened, then the
        live directory, pooled or mapped."""
        self.held.close()
        self.mapped = mapped
        self.held = CompressedMatrix.open(self.directory, mapped=mapped)
        self.held_dense = self.held.reconstruct_all()

    @rule()
    def damaged_deltas(self):
        """A bit flip in a copy's ``deltas.bin``: refused under "raise";
        under "degraded" its cells are the SVD-only part, and every
        route it still plans answers as it says — exact ones (the
        rollups folded the lost deltas in when they were built) like
        the dense form, ``svd`` like the SVD-only part."""
        damaged = self.root / "damaged"
        shutil.rmtree(damaged, ignore_errors=True)
        shutil.copytree(self.directory, damaged)
        lose_deltas(damaged)
        with pytest.raises(ChecksumError):
            CompressedMatrix.open(damaged)
        dense, _cells, svd_only = self.checked
        opens = registry.counter("store.degraded_opens").value
        with CompressedMatrix.open(damaged, on_corrupt="degraded") as store:
            assert store.degraded
            assert any("deltas.bin" in reason for reason in store.degraded_reasons)
            assert store.num_deltas == 0 and store.deltas_lost
            np.testing.assert_allclose(store.reconstruct_all(), svd_only, rtol=1e-9, atol=1e-9)
            self._check_routes(store, dense, svd_only, cells=svd_only)
        assert registry.counter("store.degraded_opens").value == opens + 1
        shutil.rmtree(damaged)

    @precondition(lambda self: not self.served)
    @rule()
    def serve_http(self):
        """The HTTP front door, once per example: it costs a server."""
        self.served = True
        rows, cols = self.logical.shape
        dense = self.checked[0]
        r0, c0 = rows // 3, cols // 4
        texts = [f"{function}() rows {r0}:{rows} cols {c0}:{cols}" for function in ORACLE]
        wants = [oracle(dense[r0:, c0:]) for oracle in ORACLE.values()]
        texts.append(f"cell({rows - 1}, {cols - 1})")
        wants.append(dense[-1, -1])
        with QueryServer(self.directory, ServeConfig(port=0, workers=1)) as server:
            got = []
            for text in texts:
                url = f"{server.url}/query?q={urllib.parse.quote(text)}"
                with urllib.request.urlopen(url, timeout=30) as response:
                    got.append(json.load(response)["value"])
        np.testing.assert_allclose(got, wants, rtol=1e-9, atol=1e-9)

    # -- invariants -----------------------------------------------------------

    def _selections(self, shape: tuple[int, int]) -> list[Selection]:
        """A full-axis selection (whole matrix or a column span), where
        the rollups answer, and a partial one (a block of rows or
        scattered rows, over a column span), where they cannot."""
        rows, cols = shape
        r0 = int(self.rng.integers(0, rows - 1))
        c0 = int(self.rng.integers(0, cols - 1))
        span = range(c0, c0 + 1 + (cols - c0) // 2)
        scattered = np.sort(self.rng.choice(rows, size=min(rows, 7), replace=False))
        full = [Selection(), Selection(cols=range(c0, cols))]
        partial = [
            Selection(rows=range(r0, rows), cols=span),
            Selection(rows=scattered.tolist(), cols=span),
        ]
        return [full[self.rng.integers(2)], partial[self.rng.integers(2)]]

    def _check_routes(self, store, dense, svd_only, cells=None) -> None:
        """Every admissible route of every aggregate, and cells, against
        NumPy over ``dense`` (exact routes), ``svd_only`` (``svd``) and
        ``cells`` (``dense`` by default).  Only a store that lost its
        deltas may find no route, and only for a min or max the rollups
        do not cover."""
        cells = dense if cells is None else cells
        engine = QueryEngine(store)
        for selection in self._selections(dense.shape):
            rows, cols = selection.resolve(dense.shape)
            block = np.ix_(rows, cols)
            for function, oracle in ORACLE.items():
                query = AggregateQuery(function, selection, max_rmspe=1.0)
                try:
                    plan = engine.plan(query)
                except RouteUnavailableError:
                    assert store.deltas_lost and function in ("min", "max")
                    continue
                for route in plan.candidates:
                    result = run_route(engine, query, route.name, plan)
                    if route.name == "svd":
                        assert np.isfinite(result.value)
                        assert result.error_bound == store.rmspe_estimate
                        want = oracle(svd_only[block])
                    else:
                        assert result.error_bound == 0.0
                        want = oracle(dense[block])
                    assert result.value == pytest.approx(want, rel=1e-9, abs=1e-9), (
                        function, route.name, selection,
                    )
        for _ in range(3):
            row = int(self.rng.integers(0, dense.shape[0]))
            col = int(self.rng.integers(0, dense.shape[1]))
            assert engine.cell(CellQuery(row, col)).value == pytest.approx(
                cells[row, col], rel=1e-9, abs=1e-9
            )
            assert store.cell(row, col) == pytest.approx(
                cells[row, col], rel=1e-9, abs=1e-9
            )

    def _check_bookkeeping(self, store) -> None:
        rows, cols = self.logical.shape
        assert store.shape == (rows, cols)
        state = read_update_state(self.directory)
        for key, value in self.appends.items():
            assert state[key] == value, key
        b = self.bytes_per_value
        assert store.bytes_per_value == b
        assert "bytes_per_value" not in state  # meta.json's copy is the only one
        assert store.num_deltas <= space.delta_budget(rows, cols, store.cutoff, BUDGET, b)
        assert store.space_bytes() <= BUDGET * rows * cols * b + 1e-9
        # Every stored file keeps the build's precision.
        dtype = np.float32 if b == 4 else np.float64
        assert store.u_store.dtype == dtype
        assert np.load(self.directory / "v.npy").dtype == dtype
        assert (self.directory / "deltas.bin").stat().st_size == DeltaFile.size_bytes(
            store.num_deltas, rows, bytes_per_value=b
        )
        # The zero-row flags are exactly the all-zero customers.
        silent = np.flatnonzero(~self.logical.any(axis=1))
        assert store.num_zero_rows == silent.size
        for row in silent:
            assert store.cell(int(row), cols - 1) == 0.0

    def _check_summaries(self, store, dense) -> None:
        """A fresh store's per-day profile is the dense form's, to 1e-12
        of each column's magnitude; a series off the store (by customer,
        or a min/max) is NumPy's.  A deferred append's model has no
        rollups to offer: until ``summarize``, aggregates take the exact
        factor/stream routes."""
        for by, function, oracle in (
            ("customer", "sum", np.sum),
            ("customer", "stddev", np.std),
            ("customer", "min", np.min),
            ("customer", "max", np.max),
            ("week", "min", np.min),
            ("week", "max", np.max),
        ):
            series = bucket_series(store, by, function)
            if by == "customer":
                want = oracle(dense, axis=1)
            else:
                edges = series["edges"]
                want = [oracle(dense[:, lo:hi]) for lo, hi in zip(edges, edges[1:])]
            np.testing.assert_allclose(series["values"], want, rtol=1e-9, atol=1e-9)
        if self.summaries_fresh:
            profile = store.summaries.col_stats
            squares = (dense * dense).sum(axis=0)
            # A signed sum is exact to within its column's magnitude.
            error = np.abs(profile[0] - dense.sum(axis=0))
            assert (error <= 1e-12 * np.abs(dense).sum(axis=0)).all(), error
            np.testing.assert_allclose(profile[1], squares, rtol=1e-12, atol=0.0)
            return
        assert store.summaries is None
        engine = QueryEngine(store)
        for function, route in (("avg", "factor"), ("min", "stream")):
            for selection in (Selection(), Selection(rows=range(0, 12))):
                query = AggregateQuery(function, selection)
                plan = engine.explain(query)
                rejected = {r["route"]: r["reason"] for r in plan["rejected"]}
                assert rejected["summary"] == "backend has no summary store"
                assert engine.aggregate(query).route == plan["path"] == route
        assert engine.try_summary(AggregateQuery("sum", Selection())) is None

    @invariant()
    def agrees_with_numpy(self):
        assert verify_manifest(self.directory, deep=True).ok
        with CompressedMatrix.open(self.directory, mapped=self.mapped) as store:
            dense = store.reconstruct_all()
            self._check_bookkeeping(store)
            # The ledger states the error the model has.
            residual = np.linalg.norm(self.logical - dense)
            measured = residual / np.linalg.norm(self.logical)
            assert store.rmspe_estimate == pytest.approx(measured, rel=1e-6)
            # A retained outlier is the cell itself (to its precision).
            index = store.delta_index
            if index is not None:
                cells = (index.rows, index.cols)
                tolerance = 1e-9 if self.bytes_per_value == 8 else 1e-6
                np.testing.assert_allclose(
                    dense[cells], self.logical[cells],
                    atol=tolerance * np.abs(self.logical).max(),
                )
            # Earlier cells move only where a delta came or went.
            if self.previous is not None:
                before, cells, _svd = self.previous
                diff = np.abs(dense[: before.shape[0], : before.shape[1]] - before)
                moved_rows, moved_cols = np.nonzero(diff > 1e-9)
                moved = set(zip(moved_rows.tolist(), moved_cols.tolist()))
                assert moved <= cells ^ _delta_cells(store)
            self._check_summaries(store, dense)
            svd_only = _svd_only(store, dense)
            self._check_routes(store, dense, svd_only)
            self.checked = (dense, _delta_cells(store), svd_only)
        # The held handle still serves the version it opened.
        np.testing.assert_array_equal(self.held.reconstruct_all(), self.held_dense)
        # The serving dispatcher answers what the engine does.
        rows, cols = dense.shape
        queries = [
            AggregateQuery(function, Selection(rows=range(rows // 2, rows), cols=range(1, cols)))
            for function in ORACLE
        ]
        wants = [ORACLE[q.function](dense[rows // 2 :, 1:]) for q in queries]
        queries.append(CellQuery(rows - 1, 0))
        wants.append(dense[rows - 1, 0])
        dispatcher = RobustDispatcher(self.directory, ServeConfig(workers=1))
        try:
            got = [dispatcher.dispatch(query)["value"] for query in queries]
        finally:
            dispatcher.close()
        np.testing.assert_allclose(got, wants, rtol=1e-9, atol=1e-9)


LifecycleMachine.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestLifecycle = LifecycleMachine.TestCase


# -- counterexamples the machine found, shrunk -------------------------------


def _replay(*steps) -> None:
    state = LifecycleMachine()
    try:
        state.build(bytes_per_value=8, rows=24, cols=10, zero_rows=0, seed=0)
        state.agrees_with_numpy()
        for name, kwargs in steps:
            getattr(state, name)(**kwargs)
            state.agrees_with_numpy()
    finally:
        state.teardown()


def test_ledger_charges_a_column_append_after_a_row_append():
    """The ledger charged each append ``new_energy - captured``, which
    is the new cells' residual only while the frozen factor has
    orthonormal columns; a row append breaks that for ``U``, so the
    next column append understated the error."""
    _replay(
        ("crash_mid_append", {"kind": "rows", "torn_bytes": 1}),
        ("crash_mid_append", {"kind": "columns", "torn_bytes": 1}),
    )


def test_an_appended_zero_row_keeps_its_flag_under_a_loose_budget():
    """With budget to spare, the all-zero row's zero residuals were kept
    as deltas, which cost space and un-flagged the row."""
    _replay(("append", {"kind": "rows", "count": 1, "zero": 1, "refresh": False}))

