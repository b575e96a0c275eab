"""Tests for incremental model maintenance (repro.core.update)."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.core import CompressedMatrix, SVDDCompressor, space
from repro.core.build import build_compressed
from repro.core.update import append_columns, append_rows, load_update_state
from repro.core.svd import spectrum_from_gram
from repro.data import PhoneConfig, phone_matrix
from repro.exceptions import ChecksumError, FormatError, ShapeError
from repro.linalg import top_eigenvalues
from repro.metrics import rmspe
from repro.obs.tracing import span
from repro.storage.model_dir import GRAM_NAME, UPDATE_STATE_NAME


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
    def test_shape_and_state(self, built):
        directory, full = built
        result = append_columns(directory, full[:200, 366:])
        assert result.kind == "columns"
        assert (result.rows, result.cols) == (200, 380)
        with CompressedMatrix.open(directory) as store:
            assert store.shape == (200, 380)
        state = load_update_state(directory)
        assert state["appends"] == 1
        assert state["cols_appended"] == 14

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

    def test_old_answers_unchanged_cells(self, built):
        """Serving U and Lambda are frozen, so pre-append cells are
        reconstructed from the same factors (bit-identical except cells
        whose delta was evicted by the enlarged budget competition)."""
        directory, full = built
        with CompressedMatrix.open(directory) as store:
            before = store.reconstruct_all()
        append_columns(directory, full[:200, 366:])
        with CompressedMatrix.open(directory) as store:
            after = store.reconstruct_all()[:, :366]
        changed = np.flatnonzero(np.abs(after - before).max(axis=0) > 1e-9)
        # Factor part identical everywhere; only delta churn may differ.
        assert np.mean(np.abs(after - before) > 1e-9) < 0.02

    def test_delta_budget_honored(self, built):
        directory, full = built
        append_columns(directory, full[:200, 366:])
        with CompressedMatrix.open(directory) as store:
            state = load_update_state(directory)
            budget = space.delta_budget(
                200, 380, store.cutoff, state["budget_fraction"]
            )
            assert store.num_deltas <= budget

    def test_multiple_appends(self, built):
        directory, full = built
        append_columns(directory, full[:200, 366:373])
        result = append_columns(directory, full[:200, 373:])
        assert result.cols == 380
        assert load_update_state(directory)["appends"] == 2
        with CompressedMatrix.open(directory) as store:
            assert store.shape == (200, 380)
            assert np.isfinite(store.cell(10, 379))

    def test_single_vector_promoted(self, built):
        directory, full = built
        result = append_columns(directory, full[:200, 366])
        assert result.cols == 367

    def test_shape_mismatch_rejected(self, built):
        directory, _ = built
        with pytest.raises(ShapeError):
            append_columns(directory, np.ones((33, 2)))

    def test_manifest_rewritten_and_valid(self, built):
        from repro.storage.integrity import verify_manifest

        directory, full = built
        append_columns(directory, full[:200, 366:])
        report = verify_manifest(directory, deep=True)
        assert report.ok


class TestAppendRows:
    def test_shape_and_answers(self, built):
        directory, full = built
        new_rows = full[200:, :366]
        result = append_rows(directory, new_rows)
        assert result.kind == "rows"
        assert (result.rows, result.cols) == (240, 366)
        with CompressedMatrix.open(directory) as store:
            recon = np.stack([store.row(200 + i) for i in range(40)])
        rel = np.linalg.norm(recon - new_rows) / np.linalg.norm(new_rows)
        assert rel < 0.2

    def test_existing_rows_bit_identical(self, built):
        """Row appends leave every existing U page and the factors
        untouched; only delta competition can move an old answer."""
        directory, full = built
        with CompressedMatrix.open(directory) as store:
            before = store.reconstruct_all()
        append_rows(directory, full[200:, :366])
        with CompressedMatrix.open(directory) as store:
            after = store.reconstruct_all()[:200]
        assert np.mean(np.abs(after - before) > 1e-9) < 0.02

    def test_appended_zero_row_flagged(self, built):
        directory, _ = built
        rows = np.zeros((3, 366))
        append_rows(directory, rows)
        with CompressedMatrix.open(directory) as store:
            assert store.num_zero_rows >= 3
            assert store.cell(201, 100) == 0.0

    def test_gram_update_is_exact(self, built):
        directory, full = built
        gram_before = np.load(directory / GRAM_NAME)
        new_rows = full[200:, :366]
        append_rows(directory, new_rows)
        gram_after = np.load(directory / GRAM_NAME)
        np.testing.assert_allclose(
            gram_after, gram_before + new_rows.T @ new_rows, rtol=1e-10
        )

    def test_shape_mismatch_rejected(self, built):
        directory, _ = built
        with pytest.raises(ShapeError):
            append_rows(directory, np.ones((2, 100)))

    def test_mixed_append_sequence(self, built):
        directory, full = built
        append_columns(directory, full[:200, 366:])
        append_rows(directory, full[200:, :])
        with CompressedMatrix.open(directory) as store:
            assert store.shape == (240, 380)
        state = load_update_state(directory)
        assert state["appends"] == 2
        assert state["rows_appended"] == 40
        assert state["cols_appended"] == 14


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
    def test_failure_mid_append_leaves_model_intact(self, built, monkeypatch):
        directory, full = built
        with CompressedMatrix.open(directory) as store:
            before = store.reconstruct_all()

        import repro.storage.model_dir as model_dir

        def boom(*args, **kwargs):
            raise OSError("disk full")

        # The last step of the one writer every append stages through.
        monkeypatch.setattr(model_dir, "write_manifest", boom)
        with pytest.raises(OSError):
            append_columns(directory, full[:200, 366:])
        monkeypatch.undo()

        # No staging debris, no partial state: the model is exactly the
        # pre-append one and still appendable.
        assert not list(directory.parent.glob("*.staging*"))
        with CompressedMatrix.open(directory) as store:
            assert store.shape == (200, 366)
            np.testing.assert_array_equal(store.reconstruct_all(), before)
        result = append_columns(directory, full[:200, 366:])
        assert result.cols == 380

    def test_torn_delta_append_not_silently_served(self, built):
        """Simulate a crash that replaced deltas.bin but never committed
        the matching meta/manifest: open() must reject the stale pairing
        (count check + manifest), degraded opens must drop the deltas."""
        from repro.exceptions import ChecksumError
        from repro.storage.delta_file import DeltaFile

        directory, full = built
        keys, values = DeltaFile.read_arrays(directory / "deltas.bin")
        extra_keys = np.append(keys, [int(keys.max()) + 1])
        extra_values = np.append(values, [123.0])
        DeltaFile.write(directory / "deltas.bin", extra_keys, extra_values)
        # Strict open fails the manifest size check (ChecksumError) or,
        # on legacy directories, the meta record-count check (FormatError).
        with pytest.raises((FormatError, ChecksumError)):
            CompressedMatrix.open(directory)
        with CompressedMatrix.open(directory, on_corrupt="degraded") as store:
            assert store.degraded
            assert store.num_deltas == 0

    def test_stale_meta_count_rejected_without_manifest(self, built):
        """Even with the manifest gone (legacy directory), a record
        count that disagrees with meta.json must not load."""
        directory, _ = built
        (directory / "manifest.json").unlink()
        meta = json.loads((directory / "meta.json").read_text())
        meta["num_deltas"] += 1
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="expects"):
            CompressedMatrix.open(directory)


class TestDriftAndRebuildFlag:
    def test_fresh_build_has_zero_drift(self, built):
        directory, _ = built
        state = load_update_state(directory)
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
        assert load_update_state(directory)["drift_threshold"] == 0.42

    def test_stored_drift_matches_full_decomposition_through_lifecycle(self, tmp_path):
        """The append sums eigenvalues only; the stored drift must still
        be what the full eigendecomposition of the stored Gram gives."""
        rng = np.random.default_rng(1997)
        grown = phone_matrix(2000, PhoneConfig(num_days=128))
        directory = tmp_path / "model"
        with build_compressed(grown, directory, 0.10) as store:
            cutoff = store.cutoff

        def reference_drift():
            state = load_update_state(directory)
            singular, _v = spectrum_from_gram(np.load(directory / GRAM_NAME), cutoff)
            fresh = float((singular * singular).sum())
            return state["drift"], 1.0 - state["captured_energy"] / fresh

        for _ in range(3):
            # The same weekdays 18 weeks back, under fresh noise.
            source = grown[:, grown.shape[1] - 126 :][:, :7]
            new_days = source * rng.lognormal(0.0, 0.25, source.shape)
            result = append_columns(directory, new_days)
            grown = np.hstack([grown, new_days])
            stored, reference = reference_drift()
            assert reference > 1e-5
            assert result.drift == stored == pytest.approx(reference, rel=1e-9)

        new_rows = grown[rng.integers(0, 2000, 37)] * rng.lognormal(0.0, 0.25, (37, 149))
        result = append_rows(directory, new_rows)
        stored, reference = reference_drift()
        # Rows projected through the appended (no longer orthonormal) V
        # over-count captured energy here: the ratio passes 1, drift clips.
        assert result.drift == stored == pytest.approx(max(0.0, reference), rel=1e-9)


def _dense_drift(directory, cutoff) -> float:
    """Drift from the dense eigensolve of the stored Gram — the reference
    the append's block-Krylov estimate is held to."""
    state = load_update_state(directory)
    fresh = float(top_eigenvalues(np.load(directory / GRAM_NAME), cutoff).sum())
    return max(0.0, 1.0 - state["captured_energy"] / fresh)


class TestDriftSeesWhatTheBasisCannot:
    """A Krylov space grown from ``[V; V_new]`` alone never leaves what
    the frozen basis sees: it reported drift 5.6e-16 here, where the
    dense solve says 0.9 — blind in exactly the case drift exists for."""

    def test_silent_customers_start_calling(self, tmp_path):
        rng = np.random.default_rng(3)
        active = rng.random((200, 3)) @ rng.random((3, 60)) * 10
        directory = tmp_path / "model"
        with build_compressed(np.vstack([active, np.zeros((200, 60))]), directory, 0.10) as store:
            cutoff = store.cutoff
        # Four new days on which only the silent half calls: V_new is
        # zero and the new Gram block is coupled to nothing else.
        new_days = np.vstack([np.zeros((200, 4)), rng.random((200, 4)) * 200])
        result = append_columns(directory, new_days)
        assert result.drift >= 0.9 and result.rebuild_recommended
        assert result.drift == pytest.approx(_dense_drift(directory, cutoff), abs=1e-9)
        # The next append's new days are ordinary; the block the basis
        # never saw is now reachable through the probe columns only.
        ordinary = np.vstack([rng.random((200, 3)) @ rng.random((3, 5)) * 10, np.zeros((200, 5))])
        result = append_columns(directory, ordinary)
        assert result.drift == pytest.approx(_dense_drift(directory, cutoff), abs=1e-9)
        assert result.drift >= 0.85 and result.rebuild_recommended

    def test_new_customers_call_on_silent_days(self, tmp_path):
        """The row-append twin: the new rows live on days where V is zero."""
        rng = np.random.default_rng(4)
        active = rng.random((200, 3)) @ rng.random((3, 60)) * 10
        directory = tmp_path / "model"
        with build_compressed(np.hstack([active, np.zeros((200, 200))]), directory, 0.10) as store:
            cutoff = store.cutoff
        new_rows = np.hstack([np.zeros((4, 60)), rng.random((4, 200)) * 300])
        result = append_rows(directory, new_rows)
        assert result.drift >= 0.9 and result.rebuild_recommended
        assert result.drift == pytest.approx(_dense_drift(directory, cutoff), abs=1e-9)
        # More new customers than the start block has room for: sketched.
        crowd = np.hstack([np.zeros((40, 60)), rng.random((40, 200)) * 300])
        result = append_rows(directory, crowd)
        assert result.drift == pytest.approx(_dense_drift(directory, cutoff), abs=1e-9)


class TestDriftParityOverASequence:
    """ROADMAP 1(b)'s first step: through twenty appends with a shift in
    them, the stored drift is the dense solve's and the flag flips at
    the same append."""

    @pytest.mark.parametrize("shift", ["level", "new_class"])
    def test_twenty_appends(self, tmp_path, shift):
        start, days, changes_at = 128, 7, 9
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
        directory = tmp_path / "model"
        with build_compressed(data[:, :start], directory, 0.10) as store:
            cutoff = store.cutoff
        flagged, dense_flagged = [], False
        for step in range(20):
            lo = start + days * step
            result = append_columns(directory, data[:, lo : lo + days], drift_threshold=1e-4)
            dense = _dense_drift(directory, cutoff)
            assert result.drift == pytest.approx(dense, abs=1e-9), step
            dense_flagged = dense_flagged or dense > 1e-4
            assert result.rebuild_recommended == dense_flagged, step
            flagged.append(result.rebuild_recommended)
        # The flag is down before the shift and up (and latched) after it.
        assert not any(flagged[:changes_at - 2]) and all(flagged[changes_at + 2 :])


class TestPrerequisites:
    def test_legacy_model_without_state_rejected(self, tmp_path, phone_small):
        model = SVDDCompressor(budget_fraction=0.10).fit(phone_small)
        CompressedMatrix.save(model, tmp_path / "legacy").close()
        with pytest.raises(FormatError, match="update"):
            append_columns(tmp_path / "legacy", np.ones((200, 2)))

    def test_missing_gram_rejected(self, built):
        directory, full = built
        (directory / GRAM_NAME).unlink()
        with pytest.raises(FormatError, match="gram"):
            append_columns(directory, full[:200, 366:])

    def test_corrupt_state_rejected(self, built):
        directory, full = built
        (directory / UPDATE_STATE_NAME).write_text("{broken")
        # The manifest notices first (ChecksumError); without one the
        # parse does (FormatError).
        with pytest.raises((FormatError, ChecksumError)):
            append_rows(directory, full[200:, :366])
        (directory / "manifest.json").unlink()
        with pytest.raises(FormatError):
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
        drift = root.find("update.drift").attrs
        assert drift["cols"] == 380 and drift["certified"] is True
        assert 1 <= drift["blocks"] <= 8 and drift["basis"] < 380
        write = root.find("update.write_model")
        assert write.attrs == {"files": 15, "fsyncs": 17}
        assert write.find("update.summaries").attrs["mode"] == "incremental"
        children = [child.name for child in root.children]
        assert children.index("update.merge_deltas") < children.index("update.drift")
        assert children[-1] == "update.write_model"


class TestSpaceAccounting:
    def test_space_within_budget_after_appends(self, built):
        directory, full = built
        append_columns(directory, full[:200, 366:])
        append_rows(directory, full[200:, :])
        with CompressedMatrix.open(directory) as store:
            rows, cols = store.shape
            budget = load_update_state(directory)["budget_fraction"]
            assert store.space_bytes() <= budget * rows * cols * 8 + 1e-9
