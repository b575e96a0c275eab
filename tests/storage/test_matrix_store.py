"""Tests for the on-disk row-major matrix store."""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ChecksumError,
    ConfigurationError,
    FormatError,
    QueryError,
    ShapeError,
    StoreClosedError,
)
from repro.storage import MatrixStore
from repro.storage.matrix_store import Ascending


@pytest.fixture()
def matrix(rng):
    return rng.standard_normal((57, 23))


@pytest.fixture()
def store(tmp_path, matrix):
    with MatrixStore.create(tmp_path / "m.mat", matrix) as store:
        yield store


class TestCreateOpen:
    def test_roundtrip(self, store, matrix):
        assert np.array_equal(store.read_all(), matrix)

    def test_reopen(self, tmp_path, matrix):
        MatrixStore.create(tmp_path / "m.mat", matrix).close()
        with MatrixStore.open(tmp_path / "m.mat") as store:
            assert store.shape == matrix.shape
            assert np.array_equal(store.read_all(), matrix)

    def test_create_from_rows_streams(self, tmp_path, matrix):
        store = MatrixStore.create_from_rows(
            tmp_path / "m.mat", (row for row in matrix), num_cols=matrix.shape[1]
        )
        assert np.array_equal(store.read_all(), matrix)
        store.close()

    def test_non_default_page_size_survives_reopen(self, tmp_path, matrix):
        MatrixStore.create(tmp_path / "m.mat", matrix, page_size=256).close()
        with MatrixStore.open(tmp_path / "m.mat") as store:
            assert np.array_equal(store.read_all(), matrix)

    def test_rejects_empty_matrix(self, tmp_path):
        with pytest.raises(ShapeError):
            MatrixStore.create(tmp_path / "m.mat", np.empty((0, 3)))

    def test_rejects_1d(self, tmp_path):
        with pytest.raises(ShapeError):
            MatrixStore.create(tmp_path / "m.mat", np.ones(5))

    def test_ragged_row_stream_cleans_up(self, tmp_path):
        def rows():
            yield np.ones(4)
            yield np.ones(5)  # wrong width

        with pytest.raises(ShapeError):
            MatrixStore.create_from_rows(tmp_path / "m.mat", rows(), num_cols=4)
        assert not (tmp_path / "m.mat").exists()

    def test_empty_row_stream_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            MatrixStore.create_from_rows(tmp_path / "m.mat", iter(()), num_cols=4)

    def test_bad_magic_rejected(self, tmp_path, matrix):
        path = tmp_path / "m.mat"
        MatrixStore.create(path, matrix).close()
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            MatrixStore.open(path)

    def test_corrupt_header_checksum_rejected(self, tmp_path, matrix):
        path = tmp_path / "m.mat"
        MatrixStore.create(path, matrix).close()
        raw = bytearray(path.read_bytes())
        raw[9] ^= 0xFF  # flip a bit in the row count
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            MatrixStore.open(path)


class TestRandomAccess:
    def test_row(self, store, matrix):
        assert np.array_equal(store.row(31), matrix[31])

    def test_cell(self, store, matrix):
        assert store.cell(10, 7) == matrix[10, 7]

    def test_row_out_of_range(self, store):
        with pytest.raises(QueryError):
            store.row(57)
        with pytest.raises(QueryError):
            store.row(-1)

    def test_cell_out_of_range(self, store):
        with pytest.raises(QueryError):
            store.cell(0, 23)

    def test_row_is_a_copy(self, store, matrix):
        # A tuple of Python floats: nothing a caller holds can write
        # through to the cached page.
        row = store.row(0)
        assert type(row) is tuple and all(type(x) is float for x in row)
        with pytest.raises(TypeError):
            row[0] = 1e9
        assert store.row(0) == tuple(matrix[0].tolist())

    def test_random_access_uses_buffer_pool(self, store):
        store.row(5)
        store.row(5)
        assert store.pool_stats.hits > 0


class TestScans:
    def test_full_scan_counts_a_pass(self, store, matrix):
        assert store.pass_count == 0  # create() performs no scan
        for _, _row in store.iter_rows():
            pass
        assert store.pass_count == 1
        for _, _row in store.iter_rows():
            pass
        assert store.pass_count == 2

    def test_partial_scan_not_a_pass(self, tmp_path, matrix):
        store = MatrixStore.create(tmp_path / "p.mat", matrix)
        list(store.iter_rows(0, 10))
        assert store.pass_count == 0
        store.close()

    def test_scan_range_contents(self, store, matrix):
        rows = dict(store.iter_rows(5, 9))
        assert set(rows) == {5, 6, 7, 8}
        for index, row in rows.items():
            assert np.array_equal(row, matrix[index])

    def test_invalid_scan_range(self, store):
        with pytest.raises(QueryError):
            list(store.iter_rows(5, 3))
        with pytest.raises(QueryError):
            list(store.iter_rows(0, 1000))

    def test_scan_larger_than_chunk(self, tmp_path, rng):
        big = rng.standard_normal((700, 11))  # > internal 256-row chunk
        store = MatrixStore.create(tmp_path / "big.mat", big)
        assert np.array_equal(store.read_all(), big)
        store.close()

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_block_scan_is_the_row_scan_in_blocks(self, tmp_path, rng, mapped, dtype):
        big = rng.standard_normal((700, 11)).astype(dtype)
        MatrixStore.create(tmp_path / "big.mat", big, dtype=dtype).close()
        with MatrixStore.open(tmp_path / "big.mat", mapped=mapped) as store:
            blocks = list(store.iter_row_blocks(3, 650))
            assert store.pass_count == 0  # a band, not the matrix
            assert [index for index, _ in blocks] == [3, 259, 515]
            assert all(block.dtype == np.float64 for _, block in blocks)
            assert np.array_equal(np.vstack([b for _, b in blocks]), big[3:650])
            blocks[0][1][:] = 0.0  # a private copy, not the file's pages
            rows = list(store.iter_rows(3, 650))
            assert [index for index, _ in rows] == list(range(3, 650))
            assert np.array_equal(np.vstack([r for _, r in rows]), big[3:650])
            for _ in store.iter_row_blocks():
                pass
            assert store.pass_count == 1
            with pytest.raises(QueryError):
                list(store.iter_row_blocks(5, 3))


class TestGeometry:
    @pytest.mark.parametrize("dtype, cols", [(np.float64, 3), (np.float32, 3), (np.float32, 1)])
    def test_a_page_smaller_than_the_header(self, tmp_path, rng, dtype, cols):
        """One U row a page (a model's u.mat): the header spans as many
        pages as it needs, and rows read, append and reopen as usual."""
        matrix = rng.standard_normal((9, cols)).astype(dtype).astype(np.float64)
        page = cols * np.dtype(dtype).itemsize
        path = tmp_path / "u.mat"
        with MatrixStore.create(path, matrix, page_size=page, dtype=dtype) as store:
            assert store.pages_per_row() == 1
            assert path.stat().st_size == -(-33 // page) * page + 9 * page
            store.append_rows(matrix[:4])
        with MatrixStore.open(path) as store:
            assert store.shape == (13, cols) and store.page_size == page
            grown = np.vstack([matrix, matrix[:4]])
            np.testing.assert_array_equal(store.read_rows(np.arange(13)), grown)
            np.testing.assert_array_equal(store.row(11), matrix[2])

    def test_shape_properties(self, store):
        assert store.shape == (57, 23)
        assert store.num_rows == 57
        assert store.num_cols == 23

    def test_pages_per_row(self, tmp_path, rng):
        # 23 cols * 8 B = 184 B rows; with 8 KiB pages a row spans <= 2 pages.
        store = MatrixStore.create(tmp_path / "m.mat", rng.standard_normal((4, 23)))
        assert store.pages_per_row() <= 2
        store.close()


# The fixture above creates the store then the roundtrip test reads it;
# pass_count bookkeeping is asserted explicitly here instead.
def test_pass_count_starts_at_zero(tmp_path, rng):
    store = MatrixStore.create(tmp_path / "z.mat", rng.standard_normal((5, 4)))
    assert store.pass_count == 0
    store.read_all()
    assert store.pass_count == 1
    store.close()


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_roundtrip_any_shape(tmp_path_factory, rows, cols, seed):
    matrix = np.random.default_rng(seed).standard_normal((rows, cols))
    path = tmp_path_factory.mktemp("prop") / "m.mat"
    store = MatrixStore.create(path, matrix)
    try:
        assert np.array_equal(store.read_all(), matrix)
        assert store.cell(rows - 1, cols - 1) == matrix[-1, -1]
    finally:
        store.close()


class TestReadRows:
    def test_matches_scalar_rows(self, store, matrix):
        idx = [7, 0, 3, 7]  # unsorted with a duplicate
        block = store.read_rows(idx)
        np.testing.assert_allclose(block, matrix[idx])

    def test_empty_batch(self, store):
        assert store.read_rows([]).shape == (0, store.num_cols)

    def test_out_of_range_rejected(self, store):
        with pytest.raises(QueryError):
            store.read_rows([0, store.num_rows])
        with pytest.raises(QueryError):
            store.read_rows([-1])

    def test_coalesces_duplicate_pages(self, tmp_path, rng):
        data = rng.standard_normal((16, 8))
        row_bytes = 8 * 8
        st = MatrixStore.create(tmp_path / "c.mat", data, page_size=row_bytes)
        st.pool_stats.reset()
        st.read_rows([3, 3, 3, 4])
        assert st.pool_stats.accesses == 2  # two distinct pages, not four
        st.close()

    def test_rows_straddling_pages(self, tmp_path, rng):
        # 24-byte rows over 64-byte pages: rows cross page boundaries.
        data = rng.standard_normal((20, 3))
        st = MatrixStore.create(tmp_path / "s.mat", data, page_size=64)
        block = st.read_rows(list(range(20)))
        np.testing.assert_allclose(block, data)
        st.close()

    def test_float32_store_reads_back_float64(self, tmp_path, rng):
        data = rng.standard_normal((10, 6))
        st = MatrixStore.create(tmp_path / "f.mat", data, dtype=np.float32)
        block = st.read_rows([2, 5])
        assert block.dtype == np.float64
        np.testing.assert_allclose(block, data[[2, 5]], atol=1e-6)
        st.close()


class TestMappedMode:
    """The mmap read path (``open(mapped=True)``) must agree with the
    pooled path bit for bit and refuse mutation."""

    def _mapped_pair(self, tmp_path, data, **create_kwargs):
        MatrixStore.create(tmp_path / "m.mat", data, **create_kwargs).close()
        pooled = MatrixStore.open(tmp_path / "m.mat")
        mapped = MatrixStore.open(tmp_path / "m.mat", mapped=True)
        return pooled, mapped

    def test_mapped_flag(self, tmp_path, rng):
        pooled, mapped = self._mapped_pair(tmp_path, rng.standard_normal((12, 5)))
        assert mapped.mapped and not pooled.mapped
        pooled.close()
        mapped.close()

    def test_reads_bit_identical_to_pooled(self, tmp_path, rng):
        data = rng.standard_normal((33, 9))
        pooled, mapped = self._mapped_pair(tmp_path, data)
        try:
            assert np.array_equal(mapped.read_all(), pooled.read_all())
            for index in (0, 7, 32):
                assert np.array_equal(mapped.row(index), pooled.row(index))
            assert mapped.cell(3, 4) == pooled.cell(3, 4)
            idx = [7, 0, 3, 7]
            assert np.array_equal(mapped.read_rows(idx), pooled.read_rows(idx))
        finally:
            pooled.close()
            mapped.close()

    def test_float32_mapped_reads_back_float64(self, tmp_path, rng):
        data = rng.standard_normal((10, 6))
        pooled, mapped = self._mapped_pair(tmp_path, data, dtype=np.float32)
        try:
            block = mapped.read_rows([2, 5])
            assert block.dtype == np.float64
            assert np.array_equal(block, pooled.read_rows([2, 5]))
        finally:
            pooled.close()
            mapped.close()

    def test_mapped_refuses_append(self, tmp_path, rng):
        _, mapped = self._mapped_pair(tmp_path, rng.standard_normal((6, 4)))
        _.close()
        try:
            with pytest.raises(ConfigurationError):
                mapped.append_rows([np.ones(4)])
        finally:
            mapped.close()

    def test_truncated_file_rejected_at_map_time(self, tmp_path, rng):
        path = tmp_path / "t.mat"
        MatrixStore.create(path, rng.standard_normal((40, 8))).close()
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 64)
        open_fds = len(os.listdir("/proc/self/fd"))
        for mapped in (True, False):
            with pytest.raises(FormatError):
                MatrixStore.open(path, mapped=mapped)
        # A refused open leaks no descriptor.
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_close_releases_the_mapping(self, tmp_path, rng):
        _, mapped = self._mapped_pair(tmp_path, rng.standard_normal((6, 4)))
        _.close()
        row = mapped.row(0)  # Python floats, outlive the store
        mapped.close()  # must not raise BufferError on live exports
        assert np.isfinite(row).all()
        mapped.close()  # idempotent

    def test_close_under_a_live_scan(self, tmp_path, rng):
        """A scan in flight holds a slice of the view; close() leaves
        the mapping to its last export instead of raising."""
        _, mapped = self._mapped_pair(tmp_path, rng.standard_normal((6, 4)))
        _.close()
        scan = mapped.iter_rows()
        next(scan)
        mapped.close()
        mapped.close()
        with pytest.raises(StoreClosedError):
            mapped.read_rows([0])
        with pytest.raises(StoreClosedError):
            mapped.cell(0, 0)


class TestMapLifecycle:
    """Every open gathers out of a mapped view; the view follows the
    file through appends and never maps nothing."""

    def test_append_then_gather_sees_new_rows(self, tmp_path, rng):
        data = rng.standard_normal((9, 5))
        extra = rng.standard_normal((300, 5))  # grows the file by many pages
        MatrixStore.create(tmp_path / "a.mat", data, page_size=64).close()
        with MatrixStore.open(tmp_path / "a.mat") as store:
            assert store.append_rows(extra) == 300
            idx = [308, 0, 9, 150]
            assert np.array_equal(
                store.read_rows(idx), np.vstack([data, extra])[idx]
            )
            assert np.array_equal(store.row(308), extra[-1])

    def test_zero_row_store_gathers_nothing(self, tmp_path):
        path = tmp_path / "z.mat"
        header = MatrixStore._pack_header(0, 4, 64, 0)
        path.write_bytes(header + b"\x00" * (64 - len(header)))
        for mapped in (False, True):
            with MatrixStore.open(path, mapped=mapped) as store:
                assert store.shape == (0, 4)
                assert store.read_rows([]).shape == (0, 4)
                assert store.pages_for_rows([]) == 0
                with pytest.raises(QueryError):
                    store.read_rows([0])

    def test_gather_after_close_is_a_typed_error(self, store):
        store.close()
        with pytest.raises(StoreClosedError):
            store.read_rows([1, 2])

    def test_concurrent_gathers_on_one_store(self, tmp_path, rng):
        """More threads than cores, one shared store: every gather is
        right and no page count is lost."""
        data = rng.standard_normal((64, 8))
        threads, rounds = 8, 200
        idx = np.array([3, 60, 17, 17, 41])
        errors: list[str] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MatrixStore.create(
                tmp_path / "c.mat", data, page_size=64, pool_capacity=4
            ) as store:
                barrier = threading.Barrier(threads)

                def body():
                    barrier.wait(timeout=30)
                    for _ in range(rounds):
                        if not np.array_equal(store.read_rows(idx), data[idx]):
                            errors.append("gather")
                        if store.cell(17, 2) != data[17, 2]:
                            errors.append("cell")

                workers = [threading.Thread(target=body) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
                assert not errors
                stats = store.pool_stats
                assert stats.bypasses == threads * rounds * 4
                assert stats.hits + stats.misses == threads * rounds
        finally:
            sys.setswitchinterval(interval)


#: (cols, dtype, page_size): the u.mat layout (one row == one page), a
#: float32 twin, raw layouts whose row size does not divide the page
#: size (rows straddle pages), and rows longer than a page.
_LAYOUTS = [
    (8, np.float64, 64),
    (16, np.float32, 64),
    (3, np.float64, 64),
    (5, np.float32, 64),
    (11, np.float64, 64),
    # A model's u.mat: one row a page, smaller than the 33-byte header.
    (3, np.float64, 24),
    (3, np.float32, 12),
    (1, np.float32, 4),
]


def _page_union(store: MatrixStore, cols: int, idx) -> int:
    """The pre-mmap definition: distinct pages over each row's byte run."""
    row_bytes = cols * store.dtype.itemsize
    page = store.page_size
    header = -(-33 // page) * page  # data begins after the header's pages
    pages = set()
    for i in idx:
        start = header + int(i) * row_bytes
        pages.update(range(start // page, (start + row_bytes - 1) // page + 1))
    return len(pages)


@st.composite
def _page_cases(draw):
    """A layout (whole-page rows or rows that straddle pages) and a row
    list of one shape: contiguous, strictly increasing, sorted with
    duplicates, or unsorted."""
    layout = draw(st.sampled_from(_LAYOUTS + [(16, np.float64, 64)]))
    rows = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["contiguous", "increasing", "duplicates", "unsorted"]))
    if kind == "contiguous":
        low = draw(st.integers(0, rows - 1))
        return layout, rows, list(range(low, draw(st.integers(low, rows - 1)) + 1))
    picks = sorted(draw(st.sets(st.integers(0, rows - 1), min_size=1)))
    if kind == "duplicates":
        return layout, rows, sorted(picks + draw(st.lists(st.sampled_from(picks), min_size=1)))
    if kind == "unsorted":
        return layout, rows, draw(st.permutations(picks))
    return layout, rows, picks


@settings(max_examples=150, deadline=None)
@given(case=_page_cases())
# One row, a contiguous run across straddling rows, increasing rows that
# share pages, two-page rows, a repeated row and a reversed list.
@example(case=((8, np.float64, 64), 5, [3]))
@example(case=((3, np.float64, 64), 40, list(range(7, 31))))
@example(case=((5, np.float32, 64), 40, [0, 2, 3, 9, 30]))
@example(case=((16, np.float64, 64), 12, [1, 4, 5, 11]))
@example(case=((8, np.float64, 64), 12, [2, 2, 5]))
@example(case=((11, np.float64, 64), 12, [9, 4, 0]))
def test_property_page_count_closed_forms(tmp_path_factory, case):
    """``pages_for_rows`` (closed forms for contiguous and whole-page
    strictly increasing rows, arithmetic otherwise) == the union of every
    row's byte run, on every layout and row-list shape."""
    (cols, dtype, page_size), rows, idx = case
    path = tmp_path_factory.mktemp("pages") / "m.mat"
    with MatrixStore.create(
        path, np.zeros((rows, cols)), page_size=page_size, pool_capacity=2, dtype=dtype
    ) as store:
        assert store.pages_for_rows(idx) == _page_union(store, cols, idx)
        assert store.pages_for_rows(np.asarray(idx)) == _page_union(store, cols, idx)
        # The same rows as a resolved selection: priced without a check.
        assert store.pages_for_rows(Ascending(np.unique(idx))) == _page_union(store, cols, idx)


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from(_LAYOUTS),
    rows=st.integers(1, 50),
    picks=st.lists(st.integers(0, 10**6), max_size=70),
    sort=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_gather_is_the_rows(tmp_path_factory, layout, rows, picks, sort, seed):
    cols, dtype, page_size = layout
    matrix = np.random.default_rng(seed).standard_normal((rows, cols))
    idx = [pick % rows for pick in picks]
    if sort:
        idx.sort()
    path = tmp_path_factory.mktemp("gather") / "m.mat"
    with MatrixStore.create(
        path, matrix, page_size=page_size, pool_capacity=2, dtype=dtype
    ) as store:
        pages = store.pages_for_rows(idx)
        assert pages == _page_union(store, cols, idx)

        probe = idx[0] if idx else 0
        store.cell(probe, 0)  # make one page resident
        pool, io = store.pool_stats, store.io_stats
        before = (pool.hits, pool.misses, pool.evictions, io.reads)
        bypassed = pool.bypasses
        gathered = store.read_rows(idx)
        assert (pool.hits, pool.misses, pool.evictions, io.reads) == before
        assert pool.bypasses == bypassed + pages
        store.cell(probe, 0)
        assert pool.hits == before[0] + 1  # still resident after the gather

        assert gathered.shape == (len(idx), cols) and gathered.dtype == np.float64
        if idx:
            assert np.array_equal(gathered, np.stack([store.row(i) for i in idx]))
        with MatrixStore.open(path, mapped=True) as mapped:
            assert np.array_equal(mapped.read_rows(idx), gathered)
            assert mapped.pool_stats.accesses == 0

        for bad in ([rows], [-1], idx + [rows]):
            with pytest.raises(QueryError):
                store.read_rows(bad)
            with pytest.raises(QueryError):
                store.pages_for_rows(bad)
