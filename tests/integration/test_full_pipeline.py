"""The adoption-path pipeline: CSV in -> store -> build -> query -> audit.

Exercises the chain a new user would actually run, across module
boundaries and through the CLI where one exists.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core import CompressedMatrix, build_compressed, verify_model
from repro.data import phone_matrix
from repro.query import QueryEngine, parse_query
from repro.lab.similarity import similar_rows
from repro.storage import (
    MatrixStore,
    matrix_store_from_csv,
    matrix_store_to_csv,
)


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    """A CSV export of phone data, as a customer would deliver it."""
    root = tmp_path_factory.mktemp("pipeline")
    data = phone_matrix(250)
    store = MatrixStore.create(root / "tmp.mat", data)
    path = root / "calls.csv"
    matrix_store_to_csv(store, path, header=[f"day{d}" for d in range(366)])
    store.close()
    return path, data


class TestCsvToQueries:
    def test_end_to_end(self, tmp_path, csv_file):
        csv_path, data = csv_file

        # 1. ingest the CSV into the paged store format.
        raw = matrix_store_from_csv(csv_path, tmp_path / "calls.mat", skip_header=True)
        assert raw.shape == (250, 366)
        assert np.allclose(raw.read_all(), data, atol=1e-9)

        # 2. constant-memory build straight from the store.
        compressed = build_compressed(raw, tmp_path / "model", 0.10)

        # 3. ad hoc queries through the engine and the textual language.
        engine = QueryEngine(compressed)
        estimate = engine.aggregate(parse_query("avg() rows 0:100")).value
        truth = float(data[:100].mean())
        assert estimate == pytest.approx(truth, rel=0.05)

        # 4. similarity search works against the persisted model's factors
        #    (through an in-memory refit of the same data — persisted U is
        #    for cell service; similarity uses the model object).
        from repro.core import SVDDCompressor

        model = SVDDCompressor(budget_fraction=0.10).fit(data)
        neighbors = similar_rows(model, 0, count=3)
        assert neighbors.shape == (3,)

        # 5. audit: the model matches the data it was built from.
        report = verify_model(raw, compressed)
        assert report.ok
        compressed.close()
        raw.close()

    def test_cli_drives_the_same_pipeline(self, tmp_path, csv_file, capsys):
        csv_path, _data = csv_file
        raw = matrix_store_from_csv(csv_path, tmp_path / "calls.mat", skip_header=True)
        raw.close()

        assert main(
            [
                "build",
                "--input",
                str(tmp_path / "calls.mat"),
                "--budget",
                "0.10",
                "--out",
                str(tmp_path / "model"),
            ]
        ) == 0
        assert main(
            ["query", str(tmp_path / "model"), "sum() rows 0:50 cols 0:7"]
        ) == 0
        out = capsys.readouterr().out
        assert "sum() rows 0:50 cols 0:7 =" in out

        assert main(
            ["verify", str(tmp_path / "model"), "--input", str(tmp_path / "calls.mat")]
        ) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_rebuilt_store_survives_reopen(self, tmp_path, csv_file):
        csv_path, data = csv_file
        raw = matrix_store_from_csv(csv_path, tmp_path / "m.mat", skip_header=True)
        build_compressed(raw, tmp_path / "model", 0.10).close()
        raw.close()
        with CompressedMatrix.open(tmp_path / "model") as store:
            assert store.cell(100, 100) == pytest.approx(
                data[100, 100], abs=5 * data.std()
            )
