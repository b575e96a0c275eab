"""Tests for the model directory's one reader and one writer.

Every consumer of a model directory — ``open``, both appends,
``summarize_directory`` — parses it through
:func:`repro.storage.model_dir.read_model`, so a damaged directory is
refused with the same typed errors whoever asks, before anything is
staged; and every producer assembles it through
:func:`~repro.storage.model_dir.write_model`.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import CompressedMatrix, build_compressed
from repro.core.update import append_columns, append_rows
from repro.exceptions import ChecksumError, FormatError, ReproError
from repro.storage import MatrixStore
from repro.storage.atomic import staged_directory
from repro.storage.delta_file import DeltaFile, DeltaTable
from repro.storage.integrity import MANIFEST_NAME, verify_manifest
from repro.storage.model_dir import (
    U_NAME,
    factor_dtype,
    read_model,
    u_page_size,
    write_model,
)
from repro.summaries import SUMMARY_FILES, SummaryStore, summarize_directory

SHAPE = (64, 16)

#: What a built model holds.
BUILT_FILES = {
    "meta.json", "u.mat", "lambda.npy", "v.npy", "deltas.bin", "zero_rows.npy",
    "sketch.npy", "update_state.json", MANIFEST_NAME, *SUMMARY_FILES,
}


def _data() -> np.ndarray:
    """Exercises every artifact: outliers and an all-zero customer."""
    data = np.random.default_rng(5).random(SHAPE) * 5
    data[7] = 0.0
    data[2, 3] += 400.0
    return data


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    directory = tmp_path_factory.mktemp("model_dir") / "model"
    build_compressed(_data(), directory, budget_fraction=0.20).close()
    return directory


@pytest.fixture()
def model(pristine, tmp_path):
    directory = tmp_path / "model"
    shutil.copytree(pristine, directory)
    return directory


def _digests(directory) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def _truncate(path) -> None:
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


def _bad_zero_rows(directory) -> None:
    flagged = np.load(directory / "zero_rows.npy")
    flagged[-1] = SHAPE[0] + 3  # same size: only the range check can see it
    np.save(directory / "zero_rows.npy", flagged)


def _short_u(directory) -> None:
    with MatrixStore.open(directory / "u.mat") as u_store:
        keep = u_store.read_rows(np.arange(SHAPE[0] - 9))
        page_size, dtype = u_store.page_size, u_store.dtype
    (directory / "u.mat").unlink()
    MatrixStore.create(
        directory / "u.mat", keep, page_size=page_size, dtype=dtype
    ).close()


def _stale_deltas(directory) -> None:
    table = DeltaFile.read_arrays(directory / "deltas.bin")
    rows = table.row_start.size - 1
    short = DeltaTable.from_cells(table.rows()[:-1], table.cols[:-1], table.values[:-1], rows)
    DeltaFile.write(directory / "deltas.bin", short, SHAPE)


def _meta_without_precision(directory) -> None:
    meta = json.loads((directory / "meta.json").read_text())
    del meta["bytes_per_value"]
    (directory / "meta.json").write_text(json.dumps(meta))


DAMAGE = {
    "truncated-v": lambda d: _truncate(d / "v.npy"),
    "truncated-lambda": lambda d: _truncate(d / "lambda.npy"),
    "bad-zero-rows": _bad_zero_rows,
    "short-u": _short_u,
    "deltas-count": _stale_deltas,
    "sketch-shape": lambda d: np.save(d / "sketch.npy", np.zeros((3, 3))),
    "state-not-json": lambda d: (d / "update_state.json").write_text("{broken"),
    # A part of the one layout missing: each is refused as damage is.
    "manifest-missing": lambda d: (d / MANIFEST_NAME).unlink(),
    "ledger-missing": lambda d: (d / "update_state.json").unlink(),
    "sketch-missing": lambda d: (d / "sketch.npy").unlink(),
    "meta-without-bytes_per_value": _meta_without_precision,
}

CONSUMERS = {
    "open": lambda d: CompressedMatrix.open(d).close(),
    "append_columns": lambda d: append_columns(d, np.ones((SHAPE[0], 2))),
    "append_rows": lambda d: append_rows(d, np.ones((2, SHAPE[1]))),
    "summarize": lambda d: summarize_directory(d, rebuild=True),
}


#: Every consumer x every damage.
CASES = [(consumer, damage) for consumer in sorted(CONSUMERS) for damage in sorted(DAMAGE)]


class TestDamagedDirectoryIsRefused:
    @pytest.mark.parametrize("consumer, damage", CASES)
    def test_typed_error_and_nothing_written(self, model, consumer, damage):
        """The same refusal from every entry point, before anything is
        staged: a ``ReproError`` subclass, the directory untouched."""
        DAMAGE[damage](model)
        before = _digests(model)
        with pytest.raises(ReproError) as raised:
            CONSUMERS[consumer](model)
        assert isinstance(raised.value, (FormatError, ChecksumError))
        assert _digests(model) == before
        assert sorted(p.name for p in model.parent.iterdir()) == ["model"]

    @pytest.mark.parametrize("consumer", sorted(CONSUMERS))
    def test_undamaged_directory_is_accepted(self, model, consumer):
        CONSUMERS[consumer](model)
        assert verify_manifest(model).ok


class TestAppendDoesNotLaunderCorruption:
    """A flipped byte leaves the size alone, so ``open``'s stat check
    passes; an append that re-derived the file and re-hashed the result
    would turn the damage into a clean manifest."""

    @staticmethod
    def _flip_last_byte(path) -> None:
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x40
        path.write_bytes(bytes(raw))

    @pytest.mark.parametrize(
        "name, append",
        [
            ("v.npy", "append_columns"),
            ("sketch.npy", "append_columns"),
            ("v.npy", "append_rows"),
            ("sketch.npy", "append_rows"),
            ("u.mat", "append_rows"),
        ],
    )
    def test_flipped_byte_is_refused(self, model, name, append):
        self._flip_last_byte(model / name)
        CompressedMatrix.open(model).close()  # sizes still match
        before = _digests(model)
        with pytest.raises(ChecksumError, match=name):
            CONSUMERS[append](model)
        assert _digests(model) == before
        problems = verify_manifest(model).problems()
        assert [(check.name, check.status) for check in problems] == [
            (name, "hash-mismatch")
        ]

    def test_directory_without_manifest_stays_byte_identical(self, model, capsys):
        """Damage whose size is right, in a directory whose manifest is
        gone: no writer may re-derive files from it under a fresh
        manifest, and ``fsck`` names what it cannot check."""
        (model / MANIFEST_NAME).unlink()
        lam = np.load(model / "lambda.npy")
        lam[0] *= 1.5
        np.save(model / "lambda.npy", lam)
        before = _digests(model)
        for consumer in ("append_columns", "append_rows", "summarize"):
            with pytest.raises(ReproError, match=MANIFEST_NAME):
                CONSUMERS[consumer](model)
            assert _digests(model) == before
        assert main(["fsck", str(model)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["files"][MANIFEST_NAME]["status"] == "missing"
        with pytest.raises(FormatError, match=MANIFEST_NAME):
            CompressedMatrix.open(model)
        with CompressedMatrix.open(model, on_corrupt="degraded") as store:
            assert store.degraded
        assert _digests(model) == before


class TestFileSet:
    def test_build_writes_the_documented_files(self, pristine):
        assert {path.name for path in pristine.iterdir()} == BUILT_FILES
        report = verify_manifest(pristine)
        assert report.ok and {check.name for check in report.checks} == (
            BUILT_FILES - {MANIFEST_NAME}
        )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bytes_per_value=st.sampled_from([4, 8]),
    shape=st.tuples(st.integers(1, 12), st.integers(1, 9)),
    num_deltas=st.integers(0, 6),
    num_zero=st.integers(0, 3),
    refresh=st.booleans(),
)
def test_written_parts_read_back_equal(
    tmp_path_factory, seed, bytes_per_value, shape, num_deltas, num_zero, refresh
):
    """Writer -> reader is the identity on every part, at the stored
    precision; a second version derived from the first carries forward
    what it was not handed."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    cutoff = int(rng.integers(1, min(rows, cols) + 1))
    stored = np.float32 if bytes_per_value == 4 else np.float64

    def at_rest(array):
        return np.asarray(array).astype(stored).astype(np.float64)

    u = rng.standard_normal((rows, cutoff))
    zero = rng.choice(rows, size=min(num_zero, rows), replace=False)
    u[zero] = 0.0
    lam = np.sort(rng.random(cutoff) + 0.5)[::-1]
    v = rng.standard_normal((cols, cutoff))
    keys = rng.choice(rows * cols, size=min(num_deltas, rows * cols), replace=False)
    values = rng.standard_normal(keys.size)
    sketch = rng.standard_normal((int(rng.integers(0, cols + 1)), cols))
    ledger = {"budget_fraction": 0.1, "appends": 3}
    meta = {
        "kind": "svdd", "rows": rows, "cols": cols,
        "cutoff": cutoff, "bytes_per_value": bytes_per_value,
    }

    directory = tmp_path_factory.mktemp("roundtrip") / "model"
    with staged_directory(directory) as staging:
        # A fresh model's U is the build's to stream, as it does here.
        MatrixStore.create(
            staging / U_NAME, u, page_size=u_page_size(cutoff, bytes_per_value),
            dtype=factor_dtype(bytes_per_value),
        ).close()
        table = DeltaTable.from_cells(keys // cols, keys % cols, values, rows)
        written = write_model(
            staging, meta, eigenvalues=lam, v=v, deltas=table,
            zero_rows=zero, sketch=sketch, update_state=ledger,
        )
    assert verify_manifest(directory).ok

    order = np.argsort(keys)
    flagged = np.setdiff1d(zero, keys // cols)
    with read_model(directory, for_append=True) as parts:
        assert parts.meta == written
        assert parts.generation == (rows, cols, keys.size, 3)
        np.testing.assert_array_equal(parts.eigenvalues, at_rest(lam))
        np.testing.assert_array_equal(parts.v, at_rest(v))
        stored_u = parts.u_store.read_rows(np.arange(rows))
        np.testing.assert_array_equal(stored_u, at_rest(u))  # one row a page
        np.testing.assert_array_equal(parts.deltas.rows(), keys[order] // cols)
        np.testing.assert_array_equal(parts.deltas.cols, keys[order] % cols)
        np.testing.assert_array_equal(parts.deltas.values, at_rest(values[order]))
        np.testing.assert_array_equal(parts.zero_rows, flagged)
        assert parts.update_state == ledger
        np.testing.assert_array_equal(parts.sketch, sketch)
        assert set(parts.manifest_files) == {
            path.name for path in directory.iterdir()
        } - {MANIFEST_NAME}

        # The next version: one more column, everything else carried
        # (the delta table as it is: a cell's row and column stay).
        grown_v = np.vstack([parts.v, rng.standard_normal((1, cutoff))])
        carried = parts.deltas
        grown_sketch = rng.standard_normal((sketch.shape[0], cols + 1))
        with staged_directory(directory) as staging:
            write_model(
                staging, {**parts.meta, "cols": cols + 1}, v=grown_v,
                deltas=carried,
                zero_rows=parts.zero_rows, sketch=grown_sketch,
                update_state={**ledger, "appends": 4},
                previous=parts, refresh_summaries=refresh,
            )
    assert verify_manifest(directory).ok
    with read_model(directory, for_append=True) as after:
        assert after.generation == (rows, cols + 1, keys.size, 4)
        np.testing.assert_array_equal(after.sketch, grown_sketch)
        np.testing.assert_array_equal(after.eigenvalues, at_rest(lam))
        np.testing.assert_array_equal(after.v, at_rest(grown_v))
        np.testing.assert_array_equal(
            after.u_store.read_rows(np.arange(rows)), stored_u
        )
        for got, want in zip(after.deltas, carried):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(after.zero_rows, flagged)
    summaries = SummaryStore.load(directory)
    # Deferred: only the previous state rides along, stamped for the
    # previous generation, so no store loads until `repro summarize`.
    assert (summaries is not None) == refresh
    if refresh:
        assert summaries.col_stats.shape == (2, cols + 1)
    assert json.loads((directory / "meta.json").read_text())["cols"] == cols + 1


def test_a_model_wider_than_a_uint16_column_is_refused(tmp_path):
    """A delta's column is a uint16: the one writer refuses 65,536 columns
    (a build, or an append that would reach them) before it writes a file."""
    staging = tmp_path / "staging"
    staging.mkdir()
    meta = {"kind": "svdd", "rows": 1, "cols": 65_536, "cutoff": 1, "bytes_per_value": 8}
    no_cell = np.empty(0, dtype=np.int64)
    with pytest.raises(FormatError, match="65535 columns"):
        write_model(
            staging, meta, deltas=DeltaTable.from_cells(no_cell, no_cell, [], 1),
            zero_rows=no_cell, sketch=np.zeros((0, 65_536)), update_state={},
        )
    assert not any(staging.iterdir())
