"""Summary maintenance: every version's store is a cold build, defer, torn writes.

The contract under test is strong: after any sequence of appends, the
summary files on disk are **byte-identical** to a cold rebuild of the
same model — the per-day profile is one fixed computation over the
stored factors and deltas, whoever runs it.  And because summaries
ride the same staged-directory swap as the model files, a crash at
any point leaves either the old
generation (stamped, so the loader rejects it against the new model)
or the new one — never a half-written store that serves wrong numbers.
A deferred append leaves no usable store, only the previous state
file, which keeps the calendar anchor for the rebuild.  A version-1
store (it also kept min/max and a per-customer file) reads as none,
and the next writer replaces it.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.cli import main
from repro.core.update import append_columns, append_rows
from repro.query import AggregateQuery, QueryEngine, Selection, bucket_series
from repro.storage.atomic import STAGING_SUFFIX
from repro.storage.integrity import verify_manifest, write_manifest
from repro.storage.model_dir import read_generation
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
                path = "factor" if by == "customer" else "summary"
                assert a["path"] == b["path"] == path
                assert a["values"] == b["values"]  # exact, not approx


class TestDeferredRefresh:
    def test_defer_then_catch_up(self, model, tmp_path):
        directory, _rng = model
        state = (directory / STATE_NAME).read_bytes()
        append_columns(directory, np.zeros((300, 7)), refresh_summaries=False)
        # Only the state file rides forward, unchanged: it names the
        # previous generation, so no reader takes it for a store.
        assert [n for n in SUMMARY_FILES if (directory / n).exists()] == [STATE_NAME]
        assert (directory / STATE_NAME).read_bytes() == state
        assert SummaryStore.load(directory) is None

        with CompressedMatrix.open(directory) as saved:
            assert saved.summaries is None
            series = bucket_series(saved, "week", "sum")
            assert series["path"] == "factor" and "partial" not in series

        report = summarize_directory(directory)
        assert report["status"] == "rebuilt"
        assert _summary_bytes(directory) == _rebuilt_bytes(
            directory, tmp_path, "catchup"
        )
        assert summarize_directory(directory)["status"] == "fresh"

    def test_eviction_outside_appended_region_drops_store(self, model):
        directory, rng = model
        # Large new values compete for the delta budget and evict old
        # deltas; whatever the churn, a deferred append leaves no store.
        append_columns(
            directory, rng.random((300, 30)) * 500, refresh_summaries=False
        )
        assert SummaryStore.load(directory) is None
        summarize_directory(directory)
        assert SummaryStore.load(directory) is not None


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
        assert SummaryStore.load(directory) is not None

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
    """No append or summarize reads a previous store to write the next
    one, so a flipped byte in a summary file never comes out the other
    side under a clean manifest."""

    @staticmethod
    def _flip_a_byte(directory, name):
        path = directory / name
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x10
        path.write_bytes(bytes(raw))

    @pytest.mark.parametrize("bytes_per_value", [8, 4])
    @pytest.mark.parametrize("name", SUMMARY_FILES)
    def test_append_over_a_damaged_summary_file_refreshes_cold(
        self, tmp_path, bytes_per_value, name
    ):
        rng = np.random.default_rng(8)
        data = rng.random((300, 300)) * 10
        data[7, 3] += 400.0
        directory = tmp_path / "model"
        build_compressed(
            data, directory, budget_fraction=0.20, bytes_per_value=bytes_per_value
        ).close()
        self._flip_a_byte(directory, name)
        assert not verify_manifest(directory).ok

        append_columns(directory, np.zeros((300, 2)))
        assert verify_manifest(directory).ok
        assert _summary_bytes(directory) == _rebuilt_bytes(directory, tmp_path, "cold")

    def test_deferred_append_drops_a_damaged_store(self, tmp_path):
        rng = np.random.default_rng(8)
        directory = tmp_path / "model"
        build_compressed(rng.random((300, 300)) * 10, directory, budget_fraction=0.20).close()
        self._flip_a_byte(directory, "summary_cols.npy")
        append_columns(directory, np.zeros((300, 2)), refresh_summaries=False)
        assert SummaryStore.load(directory) is None
        assert [n for n in SUMMARY_FILES if (directory / n).exists()] == [STATE_NAME]
        assert verify_manifest(directory).ok

    @pytest.mark.parametrize("name", ["summary_cols.npy", "summary_rows.npy"])
    def test_summarize_over_a_damaged_summary_file_rebuilds(self, model, tmp_path, name):
        directory, _rng = model
        if name not in SUMMARY_FILES:  # a file only a version-1 store wrote
            _as_version_one(directory)
        self._flip_a_byte(directory, name)
        assert not verify_manifest(directory).ok
        assert summarize_directory(directory)["status"] == "rebuilt"
        assert verify_manifest(directory).ok
        assert not (directory / name).exists() or name in SUMMARY_FILES
        assert _summary_bytes(directory) == _rebuilt_bytes(directory, tmp_path, "cold")


def _as_version_one(directory, start_date=None):
    """Turn a directory's store into what a version-1 writer left: a
    state with its tile grid, per-day and per-customer sum/sumsq/min/max,
    all in the manifest."""
    with CompressedMatrix.open(directory) as saved:
        rows, cols = saved.shape
        dense = saved.reconstruct_range(np.arange(rows), np.arange(cols))
    stamp = dict(zip(("rows", "cols", "num_deltas", "appends"), read_generation(directory)))
    for name, axis in (("summary_cols.npy", 0), ("summary_rows.npy", 1)):
        stats = [dense.sum(axis), (dense * dense).sum(axis), dense.min(axis), dense.max(axis)]
        np.save(directory / name, np.stack(stats))
    state = {"format_version": 1, **stamp, "block_rows": 1024, "chunk_cols": 256}
    (directory / STATE_NAME).write_text(json.dumps({**state, "start_date": start_date}))
    write_manifest(directory)


class TestVersionOneDirectory:
    """A directory a version-1 writer summarized: it reads as one without
    a store, serves every group-by off the store, and the next
    ``summarize`` or append writes version 2 and drops the per-customer
    file from the directory and its manifest."""

    ANCHOR = "2024-01-15"

    @pytest.fixture()
    def old(self, model):
        directory, rng = model
        _as_version_one(directory, self.ANCHOR)
        assert main(["fsck", str(directory)]) == 0
        assert SummaryStore.load(directory) is None
        with CompressedMatrix.open(directory) as saved:
            assert saved.summaries is None
            exact = saved.reconstruct_all()
            for by, function in (("month", "sum"), ("week", "max"), ("customer", "stddev")):
                series = bucket_series(saved, by, function)
                assert series["path"] == ("stream" if function == "max" else "factor")
            plan = QueryEngine(saved).plan(AggregateQuery("sum", Selection()))
            assert plan.route.name == "factor"
        assert series["values"] == pytest.approx(exact.std(axis=1), rel=1e-12)
        return directory, rng

    def _is_version_two(self, directory):
        assert main(["fsck", str(directory)]) == 0
        assert not (directory / "summary_rows.npy").exists()
        manifest = json.loads((directory / "manifest.json").read_text())
        assert "summary_rows.npy" not in manifest["files"]
        state = json.loads((directory / STATE_NAME).read_text())
        assert (state["format_version"], state["start_date"]) == (2, self.ANCHOR)
        assert SummaryStore.load(directory) is not None

    def test_summarize_writes_version_two(self, old, capsys):
        directory, _rng = old
        assert main(["summarize", str(directory)]) == 0
        assert capsys.readouterr().out.startswith("rebuilt")
        self._is_version_two(directory)

    @pytest.mark.parametrize("kind", ["columns", "rows"])
    def test_an_append_writes_version_two(self, old, kind):
        directory, rng = old
        if kind == "columns":
            append_columns(directory, rng.random((300, 3)) * 10)
        else:
            append_rows(directory, rng.random((4, 80)) * 10)
        self._is_version_two(directory)


def _start_date(directory):
    return json.loads((directory / STATE_NAME).read_text())["start_date"]


class TestCalendarAnchor:
    """Every cold materialization keeps the ``start_date`` the previous
    state recorded unless the caller passes one: month, quarter and year
    buckets must not silently fall back to 28/91/364-day widths."""

    ANCHOR = "2024-01-15"

    @pytest.fixture()
    def anchored(self, model):
        directory, rng = model
        summarize_directory(directory, start_date=self.ANCHOR)
        assert _start_date(directory) == self.ANCHOR
        return directory, rng

    def test_rebuild_keeps_the_anchor(self, anchored):
        directory, _rng = anchored
        assert summarize_directory(directory, rebuild=True)["status"] == "rebuilt"
        assert _start_date(directory) == self.ANCHOR

    def test_summarize_after_a_deferred_append_keeps_the_anchor(self, anchored):
        directory, rng = anchored
        # Loud days evict old deltas: no store survives such an append,
        # with or without a lagging-coverage carry.
        append_columns(directory, rng.random((300, 30)) * 500, refresh_summaries=False)
        summarize_directory(directory)
        assert _start_date(directory) == self.ANCHOR
        with CompressedMatrix.open(directory) as saved:
            edges = bucket_series(saved, "month", "sum")["edges"]
        assert edges[:3] == [0, 17, 46]  # Feb 1 and Mar 1 2024 from Jan 15

    def test_refreshing_append_keeps_the_anchor(self, anchored):
        directory, rng = anchored
        append_columns(directory, rng.random((300, 3)) * 10)
        assert _start_date(directory) == self.ANCHOR
        with CompressedMatrix.open(directory) as saved:
            edges = bucket_series(saved, "month", "sum")["edges"]
        assert edges[:3] == [0, 17, 46]

    @pytest.mark.parametrize("level", ["month", "quarter"])
    def test_a_stale_store_streams_on_the_anchor(self, anchored, level):
        """A deferred append leaves no fresh store, so the series is
        computed off the store, from the factor identities: bucketed and
        valued as ``summarize`` will serve it."""
        directory, rng = anchored
        append_columns(directory, rng.random((300, 7)) * 10, refresh_summaries=False)
        with CompressedMatrix.open(directory) as stale:
            streamed = bucket_series(stale, level, "sum")
        summarize_directory(directory)
        with CompressedMatrix.open(directory) as fresh:
            summarized = bucket_series(fresh, level, "sum")
        assert (streamed["path"], summarized["path"]) == ("factor", "summary")
        assert streamed["edges"] == summarized["edges"]
        assert streamed["values"] == summarized["values"]  # the same identities


class TestForeignState:
    """A state stamped for another generation of the model is refused as
    absent: the planner streams, and ``summarize`` rebuilds."""

    def test_foreign_state_is_absent_and_summarize_rebuilds(self, model, capsys):
        directory, _rng = model
        state = json.loads((directory / STATE_NAME).read_text())
        state["appends"] += 1
        (directory / STATE_NAME).write_text(json.dumps(state, indent=2))

        assert SummaryStore.load(directory) is None
        with CompressedMatrix.open(directory) as saved:
            plan = QueryEngine(saved).plan(AggregateQuery("min", Selection()))
        rejected = {r.name: r.reason for r in plan.rejected}
        assert rejected["summary"] == "backend has no summary store"
        assert plan.route.name == "stream"

        assert main(["summarize", str(directory)]) == 0
        assert capsys.readouterr().out.startswith("rebuilt")
        assert SummaryStore.load(directory) is not None
