"""Tests for incremental model maintenance (repro.core.update)."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.core import CompressedMatrix
from repro.core.build import build_compressed
from repro.core.update import append_columns, append_rows
from repro.data import PhoneConfig, phone_matrix
from repro.exceptions import ChecksumError, FormatError, ShapeError
from repro.metrics import rmspe
from repro.obs.tracing import span
from repro.storage.integrity import write_manifest
from repro.storage.model_dir import SKETCH_NAME, UPDATE_STATE_NAME, read_update_state


@pytest.fixture(scope="module")
def full_matrix():
    """240 x 380 phone-style data; models are built on the first 366
    columns / 200 rows so appends have real data to fold in."""
    rng = np.random.default_rng(7)
    base = phone_matrix(240)
    extra = base[:, :14] * (1.0 + 0.05 * rng.standard_normal((240, 14)))
    return np.hstack([base, extra])


@pytest.fixture()
def built(tmp_path, full_matrix):
    """A model over the 200 x 366 prefix, plus the held-out slabs."""
    base = full_matrix[:200, :366]
    store = build_compressed(base, tmp_path / "model", 0.10)
    store.close()
    return tmp_path / "model", full_matrix


class TestAppendColumns:
    def test_appended_cells_approximate_data(self, built):
        directory, full = built
        append_columns(directory, full[:200, 366:])
        with CompressedMatrix.open(directory) as store:
            recon = store.reconstruct_all()[:, 366:]
        target = full[:200, 366:]
        # The new days resemble existing columns, so projection onto the
        # frozen basis explains most of their energy.
        rel = np.linalg.norm(recon - target) / np.linalg.norm(target)
        assert rel < 0.2

    def test_accuracy_within_1_5x_of_a_rebuild(self, built, tmp_path):
        """Folding a week of similar days onto the frozen basis gives up
        little against a rebuild of the extended matrix at the same
        budget."""
        directory, full = built
        extended = full[:200, :373]
        append_columns(directory, extended[:, 366:])
        build_compressed(extended, tmp_path / "rebuilt", 0.10).close()
        with CompressedMatrix.open(directory) as appended:
            append_rmspe = rmspe(extended, appended.reconstruct_all())
        with CompressedMatrix.open(tmp_path / "rebuilt") as rebuilt:
            rebuild_rmspe = rmspe(extended, rebuilt.reconstruct_all())
        assert append_rmspe <= 1.5 * rebuild_rmspe

    def test_single_vector_promoted(self, built):
        directory, full = built
        result = append_columns(directory, full[:200, 366])
        assert result.cols == 367

    def test_shape_mismatch_rejected(self, built):
        directory, _ = built
        with pytest.raises(ShapeError):
            append_columns(directory, np.ones((33, 2)))

class TestAppendRows:
    def test_shape_and_answers(self, built):
        directory, full = built
        new_rows = full[200:, :366]
        result = append_rows(directory, new_rows)
        assert result.kind == "rows"
        assert (result.rows, result.cols) == (240, 366)
        with CompressedMatrix.open(directory) as store:
            recon = store.reconstruct_range(range(200, 240), range(366))
        rel = np.linalg.norm(recon - new_rows) / np.linalg.norm(new_rows)
        assert rel < 0.2

    def test_sketch_takes_new_rows_by_frequent_directions(self, built):
        """The next sketch never overstates ``S^t S + X_new^t X_new``, and
        what it leaves out is that sum's spectrum beyond its ``l`` rows."""
        directory, full = built
        before = np.load(directory / SKETCH_NAME)
        new_rows = full[200:, :366]
        append_rows(directory, new_rows)
        after = np.load(directory / SKETCH_NAME)
        with CompressedMatrix.open(directory) as store:
            assert before.shape == after.shape == (2 * store.cutoff, 366)
        grown = before.T @ before + new_rows.T @ new_rows
        spectrum = np.linalg.eigvalsh(grown)[::-1]
        left_out = np.linalg.eigvalsh(grown - after.T @ after)
        assert left_out.min() >= -1e-9 * spectrum[0]
        assert left_out.max() == pytest.approx(spectrum[after.shape[0]], rel=1e-6)

    def test_shape_mismatch_rejected(self, built):
        directory, _ = built
        with pytest.raises(ShapeError):
            append_rows(directory, np.ones((2, 100)))

class TestNonFiniteRejected:
    """NaN/inf in the appended data is refused by name, up front - not by
    the eigensolver's symmetry guard after both passes over U."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["columns", "rows"])
    def test_rejected_before_anything_is_staged(self, built, kind, bad):
        directory, full = built
        if kind == "columns":
            append, new = append_columns, full[:200, 366:].copy()
        else:
            append, new = append_rows, full[200:, :366].copy()
        new[3, 2] = bad
        before = {f.name: f.read_bytes() for f in sorted(directory.iterdir())}
        with warnings.catch_warnings():
            # An inf reaching the projection warns in matmul/subtract.
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match=f"new {kind} contains NaN or infinite"):
                append(directory, new)
        assert not list(directory.parent.glob("*.staging*"))
        after = {f.name: f.read_bytes() for f in sorted(directory.iterdir())}
        assert after == before  # every file, the manifest included
        new[3, 2] = 1.0
        assert append(directory, new).appended == new.shape[kind == "columns"]

    def test_single_vector_with_nan_names_the_columns(self, built):
        directory, full = built
        day = full[:200, 366].copy()
        day[17] = np.nan
        with pytest.raises(ShapeError, match="new columns contains NaN"):
            append_columns(directory, day)


class TestReaderIsolation:
    def test_open_reader_keeps_pre_append_snapshot(self, built):
        directory, full = built
        reader = CompressedMatrix.open(directory)
        before = reader.reconstruct_all()
        append_columns(directory, full[:200, 366:])
        # The old directory was renamed away, but the open handles pin
        # the inodes: the reader still serves exactly its snapshot.
        np.testing.assert_array_equal(reader.reconstruct_all(), before)
        assert reader.shape == (200, 366)
        fresh = reader.reopen()
        assert fresh.shape == (200, 380)
        fresh.close()
        reader.close()


class TestCrashAtomicity:
    def test_torn_delta_append_not_silently_served(self, built):
        """Simulate a crash that replaced deltas.bin but never committed
        the matching meta/manifest: open() must reject the stale pairing
        (count check + manifest), degraded opens must drop the deltas."""
        from repro.exceptions import ChecksumError
        from repro.storage.delta_file import DeltaFile, DeltaTable

        directory, _full = built
        table = DeltaFile.read_arrays(directory / "deltas.bin")
        # A valid table one delta short of what meta.json counts.
        rows = table.row_start.size - 1
        short = DeltaTable.from_cells(
            table.rows()[:-1], table.cols[:-1], table.values[:-1], rows
        )
        DeltaFile.write(directory / "deltas.bin", short, (rows, 366))
        # Strict open fails the manifest size check (ChecksumError) or,
        # on legacy directories, the meta record-count check (FormatError).
        with pytest.raises((FormatError, ChecksumError)):
            CompressedMatrix.open(directory)
        with CompressedMatrix.open(directory, on_corrupt="degraded") as store:
            assert store.degraded
            assert store.num_deltas == 0

    def test_stale_meta_count_rejected_without_manifest(self, built):
        """With the manifest gone nothing can be size-checked, so a
        strict open refuses the directory; a degraded one still finds a
        record count that disagrees with meta.json and drops the stale
        table rather than serve it."""
        directory, _ = built
        (directory / "manifest.json").unlink()
        meta = json.loads((directory / "meta.json").read_text())
        meta["num_deltas"] += 1
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="manifest.json"):
            CompressedMatrix.open(directory)
        with CompressedMatrix.open(directory, on_corrupt="degraded") as store:
            assert store.num_deltas == 0
            reasons = " ".join(store.degraded_reasons)
            assert "manifest.json" in reasons and "expects" in reasons


class DenseOracle:
    """The drift a dense ``M x M`` Gram gives, from a Gram the test keeps.

    It starts at ``X^t X``; a column append grows it by ``R^t X_new``
    and ``X_new^t X_new`` (``R`` the pre-append reconstruction, which is
    how the model sees the old columns), a row append adds
    ``X_new^t X_new``.  A column append's sketch drift is held within
    1e-6 of it; a row append's never above it and within 2% below
    (what the sketch's truncations discard is positive)."""

    def __init__(self, directory, data):
        self.directory = directory
        self.gram = data.T @ data
        with CompressedMatrix.open(directory) as store:
            self.cutoff = store.cutoff

    def append(self, kind, block, **kwargs):
        if kind == "columns":
            with CompressedMatrix.open(self.directory) as store:
                cross = store.reconstruct_all().T @ block
            self.gram = np.block([[self.gram, cross], [cross.T, block.T @ block]])
            return append_columns(self.directory, block, **kwargs)
        self.gram = self.gram + block.T @ block
        return append_rows(self.directory, block, **kwargs)

    def drift(self) -> float:
        fresh = np.maximum(np.linalg.eigvalsh(self.gram)[::-1][: self.cutoff], 0.0).sum()
        captured = read_update_state(self.directory)["captured_energy"]
        return max(0.0, 1.0 - captured / fresh)

    def assert_close(self, result, step=None) -> float:
        dense = self.drift()
        if result.kind == "columns":
            assert result.drift == pytest.approx(dense, abs=1e-6), step
        else:
            assert dense * 0.98 <= result.drift <= dense + 1e-12, step
        return dense


class TestDriftAndRebuildFlag:
    def test_fresh_build_has_zero_drift(self, built):
        directory, _ = built
        state = read_update_state(directory)
        assert state["drift"] == 0.0
        assert state["rebuild_recommended"] is False

    def test_similar_data_keeps_drift_low(self, built):
        directory, full = built
        result = append_columns(directory, full[:200, 366:])
        assert result.drift < 0.05
        assert not result.rebuild_recommended

    def test_pattern_shift_triggers_rebuild_flag(self, built):
        """Columns orthogonal to the learned basis carry energy the
        frozen spectrum cannot capture; drift must cross the threshold
        and latch the advisory flag."""
        directory, full = built
        rng = np.random.default_rng(3)
        scale = float(np.abs(full[:200, :366]).max()) * 20.0
        alien = rng.standard_normal((200, 30)) * scale
        result = append_columns(directory, alien, drift_threshold=0.01)
        assert result.drift > 0.01
        assert result.rebuild_recommended
        # The flag is sticky: a benign follow-up append keeps it.
        follow = append_columns(directory, full[:200, 366:370])
        assert follow.rebuild_recommended

    def test_threshold_persisted(self, built):
        directory, full = built
        append_columns(directory, full[:200, 366:], drift_threshold=0.42)
        assert read_update_state(directory)["drift_threshold"] == 0.42

    def test_stored_drift_matches_full_decomposition_through_lifecycle(self, tmp_path):
        """The append folds a sketch; the stored drift must still be what
        the full eigendecomposition of the dense Gram gives."""
        rng = np.random.default_rng(1997)
        grown = phone_matrix(2000, PhoneConfig(num_days=128))
        directory = tmp_path / "model"
        build_compressed(grown, directory, 0.10).close()
        oracle = DenseOracle(directory, grown)

        for _ in range(3):
            # The same weekdays 18 weeks back, under fresh noise.
            source = grown[:, grown.shape[1] - 126 :][:, :7]
            new_days = source * rng.lognormal(0.0, 0.25, source.shape)
            result = oracle.append("columns", new_days)
            grown = np.hstack([grown, new_days])
            assert oracle.drift() > 1e-5
            assert result.drift == read_update_state(directory)["drift"]
            oracle.assert_close(result)

        new_rows = grown[rng.integers(0, 2000, 37)] * rng.lognormal(0.0, 0.25, (37, 149))
        result = oracle.append("rows", new_rows)
        # Rows projected through the appended (no longer orthonormal) V
        # over-count captured energy here: the ratio passes 1, drift clips.
        assert result.drift == read_update_state(directory)["drift"] == oracle.drift() == 0.0


class TestDriftSeesWhatTheBasisCannot:
    """New days (or customers) on which only the silent half calls leave
    ``V_new`` zero and their Gram block coupled to nothing the frozen
    basis sees; drift must still report them (a Krylov solve grown from
    the basis alone once reported 5.6e-16 here, where the dense solve
    says 0.9)."""

    def test_silent_customers_start_calling(self, tmp_path):
        rng = np.random.default_rng(3)
        active = rng.random((200, 3)) @ rng.random((3, 60)) * 10
        directory = tmp_path / "model"
        data = np.vstack([active, np.zeros((200, 60))])
        build_compressed(data, directory, 0.10).close()
        oracle = DenseOracle(directory, data)
        # Four new days on which only the silent half calls: V_new is
        # zero and the new Gram block is coupled to nothing else.
        new_days = np.vstack([np.zeros((200, 4)), rng.random((200, 4)) * 200])
        result = oracle.append("columns", new_days)
        assert result.drift >= 0.9 and result.rebuild_recommended
        oracle.assert_close(result)
        # The next append's new days are ordinary; the block the basis
        # never saw lives on in the sketch alone.
        ordinary = np.vstack([rng.random((200, 3)) @ rng.random((3, 5)) * 10, np.zeros((200, 5))])
        result = oracle.append("columns", ordinary)
        oracle.assert_close(result)
        assert result.drift >= 0.85 and result.rebuild_recommended

    def test_new_customers_call_on_silent_days(self, tmp_path):
        """The row-append twin: the new rows live on days where V is zero."""
        rng = np.random.default_rng(4)
        active = rng.random((200, 3)) @ rng.random((3, 60)) * 10
        directory = tmp_path / "model"
        data = np.hstack([active, np.zeros((200, 200))])
        build_compressed(data, directory, 0.10).close()
        oracle = DenseOracle(directory, data)
        new_rows = np.hstack([np.zeros((4, 60)), rng.random((4, 200)) * 300])
        result = oracle.append("rows", new_rows)
        assert result.drift >= 0.9 and result.rebuild_recommended
        oracle.assert_close(result)
        # More new customers than the sketch has rows.
        crowd = np.hstack([np.zeros((40, 60)), rng.random((40, 200)) * 300])
        oracle.assert_close(oracle.append("rows", crowd))


def _sequence(shift: str):
    """``(built data, twenty (kind, block) appends, threshold)``; the
    shifts start with the tenth append."""
    start, days, changes_at = 128, 7, 9
    if shift == "rows":
        data = phone_matrix(900, PhoneConfig(num_days=start))
        batches = [data[300 + 30 * b : 330 + 30 * b] for b in range(20)]
        # The newcomers call three times as much, plus a flat floor.
        floor = data[:300].mean()
        batches[changes_at:] = [3.0 * x + floor for x in batches[changes_at:]]
        return data[:300], [("rows", x) for x in batches], 1e-2
    if shift == "mixed":
        # No shift: a day for everyone, then thirty new customers.
        data = phone_matrix(600, PhoneConfig(num_days=start + 10 * days))
        steps, rows, cols = [], 300, start
        for _ in range(10):
            steps.append(("columns", data[:rows, cols : cols + days]))
            cols += days
            steps.append(("rows", data[rows : rows + 30, :cols]))
            rows += 30
        return data[:300, :start], steps, 1e-4
    data = phone_matrix(300, PhoneConfig(num_days=start + 20 * days))
    turn = start + changes_at * days
    if shift == "level":
        # Every customer calls more, every day of the week alike.
        data[:, turn:] += 2.0 * data[:, :start].mean(axis=1, keepdims=True)
    else:
        # A fifth of the customers are silent, then call around the clock.
        joiners = np.arange(0, 300, 5)
        data[joiners, :turn] = 0.0
        data[joiners, turn:] = 40.0 * np.random.default_rng(1).lognormal(
            0.0, 0.25, (joiners.size, data.shape[1] - turn)
        )
    lows = range(start, start + 20 * days, days)
    return data[:, :start], [("columns", data[:, lo : lo + days]) for lo in lows], 1e-4


class TestDriftParityOverASequence:
    """Through twenty appends with a shift in them, the stored drift is
    the dense Gram's (within :class:`DenseOracle`'s tolerances) and the
    flag flips at the same append."""

    #: The append the flag first goes up at, per sequence.  A level
    #: shift adds each customer's mean to every day: the rank-2 model
    #: this budget buys holds that direction already, so neither the
    #: stored nor the dense drift reaches the threshold.
    FIRST_FLAG = {"level": None, "new_class": 10, "rows": 9, "mixed": None}

    @pytest.mark.parametrize("shift", ["level", "new_class", "rows", "mixed"])
    def test_twenty_appends(self, tmp_path, shift):
        built, steps, threshold = _sequence(shift)
        directory = tmp_path / "model"
        build_compressed(built, directory, 0.10).close()
        oracle = DenseOracle(directory, built)
        flagged, dense_flagged = [], False
        for step, (kind, block) in enumerate(steps):
            result = oracle.append(kind, block, drift_threshold=threshold)
            dense = oracle.assert_close(result, step)
            dense_flagged = dense_flagged or dense > threshold
            assert result.rebuild_recommended == dense_flagged, step
            flagged.append(result.rebuild_recommended)
        # The flag is down before the shift and up (and latched) after it.
        first = flagged.index(True) if any(flagged) else None
        assert first == self.FIRST_FLAG[shift]
        assert first is None or all(flagged[first:])


class TestPrerequisites:
    def test_legacy_model_without_state_rejected(self, built):
        """A ledger-less directory is refused by a strict open and by an
        append; a degraded open answers without the ledger's estimate."""
        directory, full = built
        with CompressedMatrix.open(directory) as store:
            want = store.reconstruct_all()
        (directory / UPDATE_STATE_NAME).unlink()
        with pytest.raises(FormatError, match=UPDATE_STATE_NAME):
            CompressedMatrix.open(directory)
        with pytest.raises(FormatError, match=UPDATE_STATE_NAME):
            append_columns(directory, full[:200, 366:])
        with CompressedMatrix.open(directory, on_corrupt="degraded") as store:
            assert store.degraded and store.rmspe_estimate is None
            np.testing.assert_array_equal(store.reconstruct_all(), want)

    def test_missing_sketch_rejected(self, built):
        directory, full = built
        (directory / SKETCH_NAME).unlink()
        with pytest.raises(FormatError, match="sketch"):
            append_columns(directory, full[:200, 366:])

    @pytest.mark.parametrize(
        "bad",
        [np.full((3, 366), np.nan), np.ones((367, 366)), np.ones((4, 365)), np.ones(366)],
        ids=["nan", "too-tall", "narrow", "1-d"],
    )
    def test_non_finite_or_misshapen_sketch_rejected(self, built, bad):
        """Even when the manifest vouches for it."""
        directory, full = built
        np.save(directory / SKETCH_NAME, bad)
        write_manifest(directory)
        with pytest.raises(FormatError, match="sketch"):
            append_rows(directory, full[200:, :366])

    def test_corrupt_state_rejected(self, built):
        directory, full = built
        (directory / UPDATE_STATE_NAME).write_text("{broken")
        # The manifest notices first (ChecksumError); without one the
        # directory is refused outright (FormatError).
        with pytest.raises((FormatError, ChecksumError)):
            append_rows(directory, full[200:, :366])
        (directory / "manifest.json").unlink()
        with pytest.raises(FormatError, match="manifest.json"):
            append_rows(directory, full[200:, :366])


class TestMetrics:
    def test_append_emits_counters(self, built, enabled_registry):
        directory, full = built
        append_columns(directory, full[:200, 366:])
        append_rows(directory, full[200:, :])
        assert enabled_registry.counter("update.appends").value == 2
        assert enabled_registry.counter("update.cols_appended").value == 14
        assert enabled_registry.counter("update.rows_appended").value == 40
        assert enabled_registry.gauge("update.drift").value >= 0.0


class TestSpans:
    def test_append_phases_are_spans(self, built, enabled_registry):
        directory, full = built
        with CompressedMatrix.open(directory) as store:
            old_deltas = store.num_deltas
        with span("test.append") as root:
            result = append_columns(directory, full[:200, 366:])
        merge = root.find("update.merge_deltas")
        assert merge.attrs["candidates"] == old_deltas + 200 * 14
        assert merge.attrs["kept"] == result.num_deltas <= merge.attrs["budget"]
        with CompressedMatrix.open(directory) as store:
            assert root.find("update.drift").attrs == {"cols": 380, "sketch": 2 * store.cutoff}
        write = root.find("update.write_model")
        assert write.attrs == {"files": 11, "fsyncs": 13}
        profiles = write.find("update.summaries").find("summaries.profiles")
        assert profiles.attrs == {"rows": 200, "cols": 380}
        children = [child.name for child in root.children]
        assert children.index("update.merge_deltas") < children.index("update.drift")
        assert children[-1] == "update.write_model"
