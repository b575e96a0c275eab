"""Tests for the warehouse catalog."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import phone_matrix, stocks_matrix
from repro.exceptions import ConfigurationError, DatasetError, FormatError
from repro.storage import MatrixStore
from repro.lab.warehouse import Warehouse


@pytest.fixture()
def warehouse(tmp_path):
    return Warehouse(tmp_path / "wh")


class TestIngest:
    def test_basic(self, warehouse):
        entry = warehouse.ingest("calls", phone_matrix(100), budget_fraction=0.10)
        assert entry.rows == 100 and entry.cols == 366
        assert entry.cutoff >= 1
        assert entry.verified_rmspe is not None
        assert warehouse.names() == ["calls"]

    def test_duplicate_rejected(self, warehouse):
        warehouse.ingest("calls", phone_matrix(50))
        with pytest.raises(DatasetError):
            warehouse.ingest("calls", phone_matrix(50))

    def test_bad_names_rejected(self, warehouse):
        for bad in ("", "a/b", "a b", "a.b"):
            with pytest.raises(ConfigurationError):
                warehouse.ingest(bad, phone_matrix(10))

    def test_ingest_from_store(self, warehouse, tmp_path):
        data = stocks_matrix(60)
        store = MatrixStore.create(tmp_path / "src.mat", data)
        entry = warehouse.ingest("stocks", store, budget_fraction=0.2)
        store.close()
        assert entry.rows == 60
        # Raw was copied into the warehouse for later verification.
        raw = warehouse.open_raw("stocks")
        assert np.allclose(raw.read_all(), data)
        raw.close()

    def test_without_raw(self, warehouse):
        warehouse.ingest("lean", phone_matrix(40), keep_raw=False, verify=False)
        with pytest.raises(DatasetError):
            warehouse.open_raw("lean")

    def test_multiple_datasets(self, warehouse):
        warehouse.ingest("calls", phone_matrix(50))
        warehouse.ingest("stocks", stocks_matrix(50), budget_fraction=0.2)
        assert warehouse.names() == ["calls", "stocks"]
        assert warehouse.total_model_bytes() > 0


class TestQuerying:
    def test_open_and_query(self, warehouse):
        data = phone_matrix(80)
        warehouse.ingest("calls", data)
        model = warehouse.open("calls")
        assert model.shape == (80, 366)
        value = model.cell(10, 100)
        assert np.isfinite(value)
        model.close()

    def test_unknown_dataset(self, warehouse):
        with pytest.raises(DatasetError):
            warehouse.open("nope")
        with pytest.raises(DatasetError):
            warehouse.entry("nope")


class TestExecutorModes:
    def test_thread_and_process_modes_agree(self, warehouse):
        warehouse.ingest("calls", phone_matrix(60), keep_raw=False, verify=False)
        query = "sum() rows 0:30 cols 0:100"
        with warehouse.executor("calls", max_workers=2) as pool:
            threaded = pool.submit(query).result().value
        with warehouse.executor("calls", max_workers=2, mode="process") as pool:
            processed = pool.submit(query).result().value
        assert threaded == processed

    def test_process_mode_returns_process_executor(self, warehouse):
        from repro.query import ProcessQueryExecutor

        warehouse.ingest("calls", phone_matrix(50), keep_raw=False, verify=False)
        with warehouse.executor("calls", mode="process", max_workers=1) as pool:
            assert isinstance(pool, ProcessQueryExecutor)
            assert pool.directory == warehouse.root / "calls" / "model"

    def test_unknown_mode_rejected(self, warehouse):
        warehouse.ingest("calls", phone_matrix(50), keep_raw=False, verify=False)
        with pytest.raises(DatasetError):
            warehouse.executor("calls", mode="coroutine")

    def test_process_mode_unknown_dataset_rejected(self, warehouse):
        with pytest.raises(DatasetError):
            warehouse.executor("nope", mode="process")


class TestPersistence:
    def test_catalog_survives_reopen(self, tmp_path):
        first = Warehouse(tmp_path / "wh")
        first.ingest("calls", phone_matrix(60))
        second = Warehouse(tmp_path / "wh")
        assert second.names() == ["calls"]
        assert second.entry("calls").rows == 60
        model = second.open("calls")
        assert model.shape == (60, 366)
        model.close()

    def test_corrupt_catalog_detected(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.ingest("calls", phone_matrix(30))
        (tmp_path / "wh" / "catalog.json").write_text("{broken")
        with pytest.raises(FormatError):
            Warehouse(tmp_path / "wh")

    def test_catalog_is_valid_json(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.ingest("calls", phone_matrix(30))
        payload = json.loads((tmp_path / "wh" / "catalog.json").read_text())
        assert payload["datasets"][0]["name"] == "calls"


class TestMaintenance:
    def test_verify(self, warehouse):
        warehouse.ingest("calls", phone_matrix(60), verify=False)
        assert warehouse.entry("calls").verified_rmspe is None
        report = warehouse.verify("calls")
        assert report.ok
        assert warehouse.entry("calls").verified_rmspe == pytest.approx(report.rmspe)

    def test_drop(self, warehouse, tmp_path):
        warehouse.ingest("calls", phone_matrix(30))
        warehouse.drop("calls")
        assert warehouse.names() == []
        assert not (warehouse.root / "calls").exists()
        # Name is reusable after dropping.
        warehouse.ingest("calls", phone_matrix(20))
        assert warehouse.entry("calls").rows == 20


class TestCustomCompressor:
    def test_ingest_with_configured_compressor(self, warehouse):
        from repro.core import SVDDCompressor

        fitter = SVDDCompressor(budget_fraction=0.05, k_max=2)
        entry = warehouse.ingest("tuned", phone_matrix(60), compressor=fitter)
        assert entry.cutoff <= 2
        assert entry.budget_fraction == pytest.approx(0.05)

    def test_external_store_without_raw(self, warehouse, tmp_path):
        data = phone_matrix(40)
        store = MatrixStore.create(tmp_path / "ext.mat", data)
        entry = warehouse.ingest("lean2", store, keep_raw=False, verify=False)
        store.close()
        assert not entry.keeps_raw
        with pytest.raises(DatasetError):
            warehouse.verify("lean2")


class TestIncrementalAppend:
    def test_append_columns_updates_catalog(self, warehouse):
        data = phone_matrix(80)
        warehouse.ingest("calls", data[:, :360], verify=True)
        entry = warehouse.append_columns("calls", data[:, 360:])
        assert (entry.rows, entry.cols) == (80, 366)
        assert entry.num_deltas >= 0
        assert entry.drift >= 0.0
        # The stored audit covered the pre-append model only.
        assert entry.verified_rmspe is None
        model = warehouse.open("calls")
        assert model.shape == (80, 366)
        model.close()

    def test_append_rows_updates_catalog(self, warehouse):
        data = phone_matrix(90)
        warehouse.ingest("calls", data[:70], verify=False)
        entry = warehouse.append_rows("calls", data[70:])
        assert (entry.rows, entry.cols) == (90, 366)
        assert entry.rebuild_recommended in (False, True)

    def test_catalog_survives_reopen_after_append(self, tmp_path):
        data = phone_matrix(60)
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.ingest("calls", data[:, :360], verify=False)
        warehouse.append_columns("calls", data[:, 360:])
        reopened = Warehouse(tmp_path / "wh")
        entry = reopened.entry("calls")
        assert entry.cols == 366
        assert entry.drift >= 0.0

    def test_verify_refuses_appended_dataset(self, warehouse):
        data = phone_matrix(60)
        warehouse.ingest("calls", data[:, :360])
        warehouse.append_columns("calls", data[:, 360:])
        with pytest.raises(DatasetError, match="re-ingest"):
            warehouse.verify("calls")

    def test_unknown_dataset_rejected(self, warehouse):
        with pytest.raises(DatasetError):
            warehouse.append_columns("nope", np.ones((3, 3)))

    def test_pre_update_catalog_loads_with_defaults(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.ingest("calls", phone_matrix(40), verify=False)
        # Strip the maintenance fields, as a catalog written before the
        # update subsystem would lack them.
        path = tmp_path / "wh" / "catalog.json"
        raw = json.loads(path.read_text())
        for record in raw["datasets"]:
            del record["drift"], record["rebuild_recommended"]
        path.write_text(json.dumps(raw))
        entry = Warehouse(tmp_path / "wh").entry("calls")
        assert entry.drift == 0.0
        assert entry.rebuild_recommended is False
