"""Failure injection and fuzzing across module boundaries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompressedMatrix, SVDDCompressor, build_compressed
from repro.exceptions import (
    BudgetError,
    ChecksumError,
    FormatError,
    ReproError,
    StorageError,
)
from repro.storage import BufferPool, FilePager, MatrixStore


class TestCorruptionDetection:
    """Every on-disk artifact must fail loudly, not return garbage."""

    def _saved_model(self, tmp_path, rng):
        data = rng.random((80, 20)) * 10
        data[3, 7] += 400.0
        store = build_compressed(data, tmp_path / "m", 0.20)
        store.close()
        return tmp_path / "m"

    def test_truncated_u_file(self, tmp_path, rng):
        directory = self._saved_model(tmp_path, rng)
        u_path = directory / "u.mat"
        raw = u_path.read_bytes()
        u_path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ReproError):
            store = CompressedMatrix.open(directory)
            try:
                store.cell(79, 19)
            finally:
                store.close()

    def test_u_header_bit_flip(self, tmp_path, rng):
        directory = self._saved_model(tmp_path, rng)
        u_path = directory / "u.mat"
        raw = bytearray(u_path.read_bytes())
        raw[10] ^= 0xFF
        u_path.write_bytes(bytes(raw))
        with pytest.raises((ChecksumError, FormatError)):
            CompressedMatrix.open(directory)

    def test_delta_file_bit_flip(self, tmp_path, rng):
        directory = self._saved_model(tmp_path, rng)
        delta_path = directory / "deltas.bin"
        raw = bytearray(delta_path.read_bytes())
        raw[-3] ^= 0x10
        delta_path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            CompressedMatrix.open(directory)

    def test_meta_garbage(self, tmp_path, rng):
        directory = self._saved_model(tmp_path, rng)
        (directory / "meta.json").write_text("{definitely not json")
        with pytest.raises(Exception):
            CompressedMatrix.open(directory)

    def test_deleted_lambda_file(self, tmp_path, rng):
        directory = self._saved_model(tmp_path, rng)
        (directory / "lambda.npy").unlink()
        with pytest.raises(Exception):
            CompressedMatrix.open(directory)


class TestResourceDiscipline:
    def test_pager_close_released_even_on_bad_open(self, tmp_path, rng):
        """A failed open must not leave a dangling file handle (the store
        closes the pager before raising)."""
        data = rng.random((10, 5))
        path = tmp_path / "x.mat"
        MatrixStore.create(path, data).close()
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        for _ in range(200):  # would exhaust fds if leaked
            with pytest.raises(StorageError):
                MatrixStore.open(path)

    def test_double_close_everywhere(self, tmp_path, rng):
        data = rng.random((10, 5))
        store = MatrixStore.create(tmp_path / "x.mat", data)
        store.close()
        store.close()
        cm = build_compressed(data, tmp_path / "m", 0.5)
        cm.close()
        cm.close()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(20, 120),
    cols=st.integers(5, 40),
    budget=st.floats(0.02, 0.9),
)
def test_property_svdd_space_never_exceeds_budget(seed, rows, cols, budget):
    """For any shape/budget where a model fits at all, the fitted SVDD
    stays within its budget and reconstruction beats plain truncation."""
    rng = np.random.default_rng(seed)
    data = rng.random((rows, cols)) * 10
    try:
        model = SVDDCompressor(budget_fraction=budget).fit(data)
    except BudgetError:
        return  # legitimately too small a budget for this shape
    assert model.space_fraction() <= budget + 1e-12
    assert model.cutoff >= 1
    assert model.num_deltas >= 0


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    capacity=st.integers(1, 8),
    accesses=st.lists(st.integers(0, 9), min_size=1, max_size=120),
)
def test_property_buffer_pool_always_serves_correct_pages(
    tmp_path_factory, seed, capacity, accesses
):
    """Whatever the access pattern and capacity, page contents are right."""
    path = tmp_path_factory.mktemp("fuzz") / f"p{seed}.pg"
    with FilePager(path, page_size=64, create=True) as pager:
        for page_id in range(10):
            pager.write_page(page_id, bytes([page_id]) * 64)
        pool = BufferPool(pager, capacity=capacity)
        for page_id in accesses:
            assert pool.get_page(page_id) == bytes([page_id]) * 64
        assert pool.cached_pages() <= capacity


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(30, 100),
    cols=st.integers(10, 30),
    budget=st.floats(0.1, 0.6),
)
def test_property_svdd_never_worse_than_svd(seed, rows, cols, budget):
    """At any budget, SVDD's RMSPE is at most plain SVD's (it searches a
    superset of plain SVD's design space)."""
    from repro.core import SVDCompressor
    from repro.metrics import rmspe

    data = np.random.default_rng(seed).random((rows, cols)) * 10
    try:
        svdd = SVDDCompressor(budget_fraction=budget).fit(data)
        svd = SVDCompressor(budget_fraction=budget).fit(data)
    except BudgetError:
        return
    assert rmspe(data, svdd.reconstruct()) <= rmspe(data, svd.reconstruct()) + 1e-9


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(30, 80),
    cols=st.integers(10, 25),
    budget=st.floats(0.15, 0.6),
)
def test_property_certified_bound_always_holds(seed, rows, cols, budget):
    """worst_case_bound() certifies every cell, for any input and budget."""
    data = np.random.default_rng(seed).random((rows, cols)) * 100
    try:
        model = SVDDCompressor(budget_fraction=budget).fit(data)
    except BudgetError:
        return
    bound = model.worst_case_bound()
    realized = float(np.abs(model.reconstruct() - data).max())
    assert realized <= bound + 1e-6
