"""Incremental maintenance: bit-identical refresh, defer, torn writes.

The contract under test is strong: after any sequence of appends, the
summary files on disk are **byte-identical** to a cold rebuild of the
same model — the fixed tile grid makes float non-associativity a
non-issue.  And because summaries ride the same staged-directory swap
as the model files, a crash at any point leaves either the old
generation (stamped, so the loader rejects it against the new model)
or the new one — never a half-written store that serves wrong numbers.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.core.update import append_columns, append_rows
from repro.query import AggregateQuery, QueryEngine, Selection, bucket_series
from repro.storage.atomic import STAGING_SUFFIX
from repro.summaries import SUMMARY_FILES, SummaryStore, summarize_directory
from repro.summaries.compute import STATE_NAME


def _summary_bytes(directory):
    return {name: (directory / name).read_bytes() for name in SUMMARY_FILES}


def _rebuilt_bytes(directory, tmp_path, tag):
    """Cold-rebuild a copy of ``directory`` and return its summary bytes."""
    copy = tmp_path / f"rebuild-{tag}"
    shutil.copytree(directory, copy)
    summarize_directory(copy, rebuild=True)
    return _summary_bytes(copy)


@pytest.fixture()
def model(tmp_path):
    rng = np.random.default_rng(42)
    data = rng.random((300, 80)) * 10
    data[7, 3] += 400.0
    data[150, 60] += 300.0
    directory = tmp_path / "model"
    build_compressed(data, directory, budget_fraction=0.20).close()
    return directory, rng


class TestBitIdenticalRefresh:
    def test_mixed_appends_match_cold_rebuild(self, model, tmp_path):
        directory, rng = model
        append_columns(directory, rng.random((300, 9)) * 10)
        assert _summary_bytes(directory) == _rebuilt_bytes(
            directory, tmp_path, "cols"
        )
        append_rows(directory, rng.random((25, 89)) * 10)
        assert _summary_bytes(directory) == _rebuilt_bytes(
            directory, tmp_path, "rows"
        )
        append_columns(directory, rng.random((325, 4)) * 10)
        assert _summary_bytes(directory) == _rebuilt_bytes(
            directory, tmp_path, "cols2"
        )

    def test_groupby_after_append_matches_rebuild(self, model, tmp_path):
        """The acceptance check: post-append group-by answers equal a
        fresh rebuild's, bit for bit (same files -> same floats)."""
        directory, rng = model
        append_columns(directory, rng.random((300, 14)) * 10)
        copy = tmp_path / "cold"
        shutil.copytree(directory, copy)
        summarize_directory(copy, rebuild=True)
        with CompressedMatrix.open(directory) as live, CompressedMatrix.open(
            copy
        ) as cold:
            for by in ("week", "month", "customer"):
                a = bucket_series(live, by, "sum")
                b = bucket_series(cold, by, "sum")
                assert a["path"] == b["path"] == "summary"
                assert a["values"] == b["values"]  # exact, not approx


class TestDeferredRefresh:
    def test_defer_then_catch_up(self, model, tmp_path):
        directory, _rng = model
        # Zero-valued new days cannot evict existing deltas, so the
        # churn stays confined to the appended region and the old
        # coverage carries forward instead of being dropped.
        append_columns(directory, np.zeros((300, 7)), refresh_summaries=False)
        store = SummaryStore.load(directory)
        assert store is not None and not store.fresh
        assert (store.covered_rows, store.covered_cols) == (300, 80)

        # Stale coverage still serves: core + streamed residual.
        with CompressedMatrix.open(directory) as saved:
            series = bucket_series(saved, "week", "sum")
            assert series["path"] == "summary+stream" and series["partial"]

        report = summarize_directory(directory)
        assert report["status"] == "refreshed"
        assert _summary_bytes(directory) == _rebuilt_bytes(
            directory, tmp_path, "catchup"
        )

    def test_eviction_outside_appended_region_drops_store(self, model):
        directory, rng = model
        # Large new values compete for the delta budget; if any old
        # delta is evicted the deferred store must be dropped rather
        # than carried forward wrong.  Either outcome (confined or
        # dropped) must leave the loader consistent.
        append_columns(
            directory, rng.random((300, 30)) * 500, refresh_summaries=False
        )
        store = SummaryStore.load(directory)
        if store is not None:  # carried forward: must be stale, not wrong
            assert not store.fresh
        summarize_directory(directory)
        assert SummaryStore.load(directory).fresh


class TestTornWrites:
    def test_leftover_staging_directory_is_inert(self, model):
        directory, _rng = model
        staging = directory.parent / (directory.name + STAGING_SUFFIX)
        staging.mkdir()
        (staging / "summary_state.json").write_text("{torn")
        (staging / "summary_cols.npy").write_bytes(b"\x00" * 64)
        # The live model is untouched by the leftover...
        with CompressedMatrix.open(directory) as saved:
            assert saved.summaries is not None
        # ...and a later summarize still succeeds over it.
        assert summarize_directory(directory)["status"] in ("fresh", "rebuilt")

    def test_crash_before_state_write_leaves_loader_rejecting(self, model):
        directory, rng = model
        # Simulate a crash mid-materialization after an append: arrays
        # updated, state file still stamping the previous generation.
        pre_state = (directory / STATE_NAME).read_text()
        append_columns(directory, rng.random((300, 5)) * 10)
        (directory / STATE_NAME).write_text(pre_state)
        assert SummaryStore.load(directory) is None
        with CompressedMatrix.open(directory) as saved:
            assert saved.summaries is None  # falls back, never serves torn data
            value = (
                QueryEngine(saved)
                .aggregate(AggregateQuery("sum", Selection()))
                .value
            )
            assert np.isfinite(value)
        # summarize repairs it in place.
        assert summarize_directory(directory)["status"] == "rebuilt"
        assert SummaryStore.load(directory).fresh

    def test_interrupted_summarize_keeps_old_store_valid(self, model):
        directory, _rng = model
        before = _summary_bytes(directory)
        state = json.loads((directory / STATE_NAME).read_text())
        # A reader mid-crash sees the old files; they still validate.
        assert SummaryStore.load(directory) is not None
        assert (
            json.loads((directory / STATE_NAME).read_text())["appends"]
            == state["appends"]
        )
        assert _summary_bytes(directory) == before


class TestDamagedPriorIsNotLaundered:
    """The two tile files are inputs an incremental refresh copies clean
    tiles out of and re-hashes: a flipped byte in one must not come out
    the other side under a clean manifest."""

    @staticmethod
    def _flip_a_clean_tile_byte(directory, name):
        path = directory / name
        raw = bytearray(path.read_bytes())
        raw[-(8 * 290) + 3] ^= 0x10  # a value of the last stat row, column 10: chunk 0
        path.write_bytes(bytes(raw))

    @pytest.mark.parametrize("bytes_per_value", [8, 4])
    @pytest.mark.parametrize("name", ["summary_colblocks.npy", "summary_rowchunks.npy"])
    def test_append_over_a_damaged_tile_file_refreshes_cold(
        self, tmp_path, enabled_registry, bytes_per_value, name
    ):
        from repro.storage.integrity import verify_manifest

        rng = np.random.default_rng(8)
        data = rng.random((300, 300)) * 10
        data[7, 3] += 400.0
        directory = tmp_path / "model"
        build_compressed(
            data, directory, budget_fraction=0.20, bytes_per_value=bytes_per_value
        ).close()
        self._flip_a_clean_tile_byte(directory, name)
        assert not verify_manifest(directory).ok

        # Two quiet days: only the tile of the second column chunk is dirty,
        # so an incremental refresh would copy the damaged one forward.
        append_columns(directory, np.zeros((300, 2)))
        assert enabled_registry.counter("update.summary_prior_rejected").value == 1
        assert enabled_registry.counter("update.summary_refreshes").value == 0
        assert verify_manifest(directory).ok
        assert _summary_bytes(directory) == _rebuilt_bytes(directory, tmp_path, "cold")

    def test_deferred_append_drops_a_damaged_store(self, tmp_path):
        rng = np.random.default_rng(8)
        directory = tmp_path / "model"
        build_compressed(rng.random((300, 300)) * 10, directory, budget_fraction=0.20).close()
        self._flip_a_clean_tile_byte(directory, "summary_colblocks.npy")
        append_columns(directory, np.zeros((300, 2)), refresh_summaries=False)
        assert SummaryStore.load(directory) is None
        assert not any((directory / name).exists() for name in SUMMARY_FILES)

    def test_summarize_over_a_damaged_tile_file_rebuilds(self, model, tmp_path):
        directory, _rng = model
        append_columns(directory, np.zeros((300, 7)), refresh_summaries=False)
        path = directory / "summary_colblocks.npy"
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x10
        path.write_bytes(bytes(raw))
        assert summarize_directory(directory)["status"] == "rebuilt"
        assert _summary_bytes(directory) == _rebuilt_bytes(directory, tmp_path, "cold")
