"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import _parse_range, main
from repro.core import CompressedMatrix
from repro.storage import MatrixStore


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "model"
    code = main(
        ["build", "--dataset", "phone150", "--budget", "0.10", "--out", str(out)]
    )
    assert code == 0
    return out


class TestParseRange:
    def test_full(self):
        assert _parse_range(":", 10) == range(10)

    def test_bounded(self):
        assert _parse_range("2:5", 10) == range(2, 5)

    def test_open_ended(self):
        assert _parse_range("3:", 10) == range(3, 10)
        assert _parse_range(":4", 10) == range(0, 4)

    def test_single_index(self):
        assert _parse_range("7", 10) == range(7, 8)


class TestBuild:
    def test_model_directory_created(self, model_dir):
        with CompressedMatrix.open(model_dir) as store:
            assert store.shape == (150, 366)

    def test_build_from_matrix_store(self, tmp_path, rng):
        matrix = rng.random((60, 20))
        MatrixStore.create(tmp_path / "raw.mat", matrix).close()
        code = main(
            [
                "build",
                "--input",
                str(tmp_path / "raw.mat"),
                "--budget",
                "0.20",
                "--out",
                str(tmp_path / "m"),
            ]
        )
        assert code == 0
        with CompressedMatrix.open(tmp_path / "m") as store:
            assert store.shape == (60, 20)

    def test_unknown_dataset_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["build", "--dataset", "nope", "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestQueries:
    def test_info(self, model_dir, capsys):
        assert main(["info", str(model_dir)]) == 0
        out = capsys.readouterr().out
        assert "150 x 366" in out
        assert "principal components" in out

    def test_cell(self, model_dir, capsys):
        assert main(["cell", str(model_dir), "10", "100"]) == 0
        out = capsys.readouterr().out
        assert "cell (10, 100)" in out
        assert "disk accesses: 1" in out

    def test_cell_matches_library(self, model_dir, capsys):
        main(["cell", str(model_dir), "5", "5"])
        printed = float(capsys.readouterr().out.split("=")[1].split("\n")[0])
        with CompressedMatrix.open(model_dir) as store:
            assert printed == pytest.approx(store.cell(5, 5), rel=1e-4, abs=1e-4)

    def test_aggregate(self, model_dir, capsys):
        code = main(
            [
                "aggregate",
                str(model_dir),
                "--function",
                "avg",
                "--rows",
                "0:50",
                "--cols",
                "0:30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg(" in out
        assert "1500 cells" in out

    def test_aggregate_bad_function(self, model_dir, capsys):
        assert main(["aggregate", str(model_dir), "--function", "median"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cell_out_of_range(self, model_dir, capsys):
        assert main(["cell", str(model_dir), "9999", "0"]) == 1


class TestTelemetryFlags:
    @pytest.fixture(autouse=True)
    def _restore_registry(self):
        """CLI --profile enables the process-wide registry; put it back
        so later tests run with telemetry off."""
        from repro.obs import registry

        yield
        registry.disable()
        registry.reset()

    def test_aggregate_explain_prints_plan_without_executing(self, model_dir, capsys):
        import json

        code = main(
            [
                "aggregate",
                str(model_dir),
                "--function",
                "sum",
                "--rows",
                "0:40",
                "--cols",
                "0:20",
                "--explain",
            ]
        )
        assert code == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["path"] == "factor"
        assert plan["cells"] == 40 * 20
        assert plan["estimated_row_fetches"] == 40

    def test_aggregate_profile_matches_explain_estimate(self, model_dir, capsys):
        import json

        args = [
            "aggregate",
            str(model_dir),
            "--function",
            "sum",
            "--rows",
            "0:40",
            "--cols",
            "0:20",
        ]
        assert main(args + ["--explain"]) == 0
        plan = json.loads(capsys.readouterr().out)

        assert main(args + ["--profile"]) == 0
        out = capsys.readouterr().out
        profile = json.loads(out[out.index("{") :])
        assert profile["path"] == "factor"
        assert profile["pages_read"] == plan["estimated_row_fetches"]
        assert profile["rows_fetched"] == plan["estimated_row_fetches"]

    def test_cell_profile_reports_one_page(self, model_dir, capsys):
        import json

        assert main(["cell", str(model_dir), "10", "100", "--profile"]) == 0
        out = capsys.readouterr().out
        profile = json.loads(out[out.index("{") :])
        assert profile["path"] == "cell"
        assert profile["pages_read"] == 1

    def test_query_explain(self, model_dir, capsys):
        import json

        assert main(
            ["query", str(model_dir), "avg() rows 0:50 cols 0:30", "--explain"]
        ) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["path"] == "factor"
        assert plan["cells"] == 1500
        assert plan["estimated_row_fetches"] == 50
        assert plan["error_bound"] == 0.0
        assert {c["route"] for c in plan["candidates"]} >= {"factor", "stream"}

    def test_query_profile(self, model_dir, capsys):
        import json

        assert main(
            ["query", str(model_dir), "cell(10, 100)", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        profile = json.loads(out[out.index("{") :])
        assert profile["path"] == "cell"


class TestObservabilityCommands:
    @pytest.fixture(autouse=True)
    def _restore_registry(self):
        from repro.obs import registry
        from repro.obs.slowlog import slow_query_log

        yield
        slow_query_log.disable()
        registry.disable()
        registry.reset()

    def test_batch_profile_process_mode_prints_grafted_tree(
        self, model_dir, capsys
    ):
        code = main(
            [
                "batch",
                str(model_dir),
                "--query",
                "avg() rows 0:20 cols 0:10",
                "--query",
                "cell(3, 5)",
                "--mode",
                "process",
                "--workers",
                "2",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        tree = json.loads(out[out.index("{") :])
        assert tree["name"] == "batch"
        workers = [c for c in tree["children"] if c["name"] == "query.worker"]
        assert len(workers) == 2
        # One coherent trace family across the caller and both workers.
        assert {w["trace_id"] for w in workers} == {tree["trace_id"]}
        assert any(w["children"] for w in workers)

    def test_batch_slow_log_captures_queries(self, model_dir, tmp_path, capsys):
        slow = tmp_path / "slow.jsonl"
        code = main(
            [
                "batch",
                str(model_dir),
                "--query",
                "avg() rows 0:20 cols 0:10",
                "--mode",
                "sequential",
                "--slow-ms",
                "0.0",
                "--slow-log",
                str(slow),
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in slow.read_text().splitlines()]
        assert records
        assert records[0]["event"] == "query.slow"
        assert records[0]["total_ms"] > 0
        assert records[0]["profile"]["path"] in ("factor", "stream")


def _snapshot_after(server, cells: int = 0, path: str = "/cell?row={}&col=7") -> dict:
    """Answer ``cells`` more requests, then take the server's ``/snapshot``."""
    import urllib.request

    for index in range(cells):
        url = server.url + path.format(index)
        with urllib.request.urlopen(url, timeout=30) as reply:
            reply.read()
    with urllib.request.urlopen(server.url + "/snapshot", timeout=30) as reply:
        return json.load(reply)


class TestTopFrame:
    """``repro top`` renders what ``repro serve`` exports: every frame
    here is rendered from the ``/snapshot`` of a live ``QueryServer``."""

    @pytest.fixture()
    def server(self, model_dir, enabled_registry):
        """A server that holds one request at a time (a ticket held by
        the test sheds the next) and counts every query as slow."""
        from repro.obs.slowlog import slow_query_log
        from repro.serve import QueryServer, ServeConfig

        slow_query_log.configure(0.0)
        config = ServeConfig(port=0, workers=1, max_queue_depth=1)
        try:
            with QueryServer(model_dir, config) as server:
                enabled_registry.reset()  # drop the warm-up's spans
                yield server
        finally:
            slow_query_log.disable()

    def test_totals_frame_without_previous(self, server):
        from repro.cli import format_top_frame

        frame = format_top_frame(_snapshot_after(server, 2))
        assert "2 queries total" in frame
        assert "slow 2" in frame
        assert "queue depth 0   shed 0 total   brownout off" in frame
        assert "span.query.cell" in frame
        assert "pool hit-rate" not in frame and "workers" not in frame

    def test_rate_frame_differences_counters(self, server):
        import urllib.error
        import urllib.request

        from repro.cli import format_top_frame

        before = _snapshot_after(server, 1)
        with server.dispatcher.admission.admit():
            # The one ticket is held: this request is shed, and the
            # snapshot taken meanwhile sees the queue it was shed from.
            with pytest.raises(urllib.error.HTTPError) as shed:
                urllib.request.urlopen(server.url + "/cell?row=1&col=1")
            assert shed.value.code == 503
            held = format_top_frame(_snapshot_after(server), prev=before, dt=2.0)
        assert "queue depth 1   shed 0.5/s" in held
        after = _snapshot_after(server, 4)
        assert "2.0 qps" in format_top_frame(after, prev=before, dt=2.0)

    def test_engine_only_traffic_counts_via_span_histograms(self, server):
        """Queries are counted from the root spans' histograms — cells
        and aggregates — which is what every serve request records."""
        from repro.cli import format_top_frame

        _snapshot_after(server, 1, "/aggregate?fn=sum&rows={}:10&cols=0:10")
        frame = format_top_frame(_snapshot_after(server, 3))
        assert "4 queries total" in frame
        assert "span.query.aggregate" in frame

    def test_empty_snapshot_renders(self, server):
        from repro.cli import format_top_frame

        frame = format_top_frame(_snapshot_after(server))
        assert "0 queries total" in frame
        assert "no span.query histograms" in frame

    def test_unreachable_server_is_an_error_not_a_traceback(self, capsys):
        code = main(["top", "--url", "http://127.0.0.1:1", "--iterations", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_default_url_is_where_serve_listens(self):
        from repro.cli import build_parser

        parser = build_parser()
        port = parser.parse_args(["serve", "model"]).port
        assert parser.parse_args(["top"]).url == f"http://127.0.0.1:{port}"


def _subcommands(parser):
    import argparse

    (sub,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sub.choices


class TestCommandTable:
    COMMANDS = {
        "build", "info", "append", "summarize", "cell", "aggregate", "query",
        "batch", "serve", "top", "fsck", "verify", "scatter", "datasets",
    }

    def test_exactly_the_fourteen_commands(self):
        from repro.cli import build_parser

        assert set(_subcommands(build_parser())) == self.COMMANDS

    def test_serve_defaults_are_the_config_fields(self):
        """``serve``'s flags are derived from ``ServeConfig``: a parsed
        default is the field's default, bar the fixed port."""
        import dataclasses

        from repro.cli import build_parser
        from repro.serve import ServeConfig

        args = build_parser().parse_args(["serve", "model"])
        fields = dataclasses.fields(ServeConfig)
        parsed = {field.name: getattr(args, field.name) for field in fields}
        assert parsed.pop("port") == 9465
        wanted = dataclasses.asdict(ServeConfig())
        del wanted["port"]
        assert parsed == wanted

    def test_serve_passes_every_config_field_through(self, monkeypatch, capsys):
        """Every field set on the command line — ``on_corrupt`` by its
        switch — reaches the server's config."""
        import dataclasses

        import repro.serve
        from repro.obs import registry
        from repro.serve import ServeConfig

        started = []

        class Recorder:
            url = "http://recorded"

            def __init__(self, model_dir, config):
                started.append((model_dir, config))

            def start(self):
                pass

            def install_signal_handlers(self):
                pass

            def serve_until_shutdown(self, duration_s=None):
                return True

        monkeypatch.setattr(repro.serve, "QueryServer", Recorder)
        # A value other than the default for every field: the numeric
        # thresholds move by one.
        wanted = {"host": "0.0.0.0", "workers": 3, "on_corrupt": "degraded"}
        argv = ["serve", "some/model", "--allow-degraded"]
        for field in dataclasses.fields(ServeConfig):
            if field.name == "on_corrupt":
                continue
            if field.name not in wanted:
                wanted[field.name] = field.default + 1
            argv += ["--" + field.name.replace("_", "-"), str(wanted[field.name])]
        try:
            assert main(argv) == 0
        finally:
            registry.disable()
            registry.reset()
        ((model_dir, config),) = started
        assert str(model_dir) == "some/model"
        assert config == ServeConfig(**wanted)
        assert config != ServeConfig()
        banner = capsys.readouterr().out
        assert "serving some/model on http://recorded  (routes: " in banner

    def test_documented_command_lines_parse(self):
        """Every ``python -m repro ...`` line of docs/API.md's CLI block
        parses, and every command is in that block and in the module
        docstring."""
        import shlex
        from pathlib import Path

        import repro.cli
        from repro.cli import build_parser

        api = (Path(__file__).parent.parent / "docs" / "API.md").read_text()
        block = api.split("\n## CLI\n", 1)[1].split("```")[1]
        lines = block.replace("\\\n", " ").splitlines()
        documented = [
            shlex.split(line, comments=True)[3:]
            for line in lines
            if line.startswith("python -m repro ")
        ]
        parser = build_parser()
        for argv in documented:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"docs/API.md: `repro {' '.join(argv)}` does not parse")
        assert {argv[0] for argv in documented} == self.COMMANDS
        for name in self.COMMANDS:
            assert f"- ``{name}``" in repro.cli.__doc__, name


class TestScatterAndDatasets:
    def test_scatter(self, capsys):
        assert main(["scatter", "phone100", "--width", "40", "--height", "10"]) == 0
        out = capsys.readouterr().out
        assert "PC1" in out

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "stocks" in out and "phone2000" in out


class TestQueryAndVerifyCommands:
    def test_query_aggregate(self, model_dir, capsys):
        assert main(["query", str(model_dir), "avg() rows 0:50 cols 0:30"]) == 0
        out = capsys.readouterr().out
        assert "avg() rows 0:50 cols 0:30 =" in out
        assert "1500" in out  # cells touched

    def test_query_cell(self, model_dir, capsys):
        assert main(["query", str(model_dir), "cell(10, 100)"]) == 0
        assert "cell(10, 100) =" in capsys.readouterr().out

    def test_query_bad_syntax(self, model_dir, capsys):
        assert main(["query", str(model_dir), "fetch everything"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_modes_agree(self, model_dir, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "# comment lines and blanks are skipped\n"
            "\n"
            "sum() rows 0:50 cols 0:30\n"
            "cell(10, 100)\n"
        )
        outputs = {}
        for mode in ("sequential", "thread", "process"):
            code = main(
                [
                    "batch",
                    str(model_dir),
                    "--file",
                    str(queries),
                    "--mode",
                    mode,
                    "--workers",
                    "2",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert f"[{mode}]" in out
            # Answer lines must be identical across the three modes.
            outputs[mode] = [
                line for line in out.splitlines() if " = " in line
            ]
        assert outputs["sequential"] == outputs["thread"] == outputs["process"]
        assert len(outputs["sequential"]) == 2

    def test_batch_inline_query(self, model_dir, capsys):
        code = main(
            ["batch", str(model_dir), "--query", "avg() rows 0:10 cols 0:10"]
        )
        assert code == 0
        assert "avg() rows 0:10 cols 0:10 =" in capsys.readouterr().out

    def test_batch_without_queries_fails(self, model_dir, capsys):
        assert main(["batch", str(model_dir)]) == 1
        assert "no queries" in capsys.readouterr().err

    def test_verify_against_dataset(self, model_dir, capsys):
        assert main(["verify", str(model_dir), "--dataset", "phone150"]) == 0
        out = capsys.readouterr().out
        assert "RMSPE" in out
        assert "HOLDS" in out

    def test_verify_against_wrong_dataset_fails(self, model_dir, capsys):
        # Different data -> certified bound violated -> nonzero exit.
        code = main(["verify", str(model_dir), "--dataset", "stocks"])
        assert code == 1


class TestFsck:
    @pytest.fixture()
    def fsck_model(self, tmp_path):
        out = tmp_path / "model"
        assert main(
            ["build", "--dataset", "phone80", "--budget", "0.15", "--out", str(out)]
        ) == 0
        return out

    def test_clean_model_passes(self, fsck_model, capsys):
        assert main(["fsck", str(fsck_model)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["mode"] == "deep"
        assert report["opens"] == "ok"
        assert report["files"]["u.mat"]["status"] == "ok"

    def test_bit_rot_caught_deep_but_not_quick(self, fsck_model, capsys):
        path = fsck_model / "u.mat"
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x20
        path.write_bytes(bytes(raw))

        assert main(["fsck", str(fsck_model), "--quick"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "quick"

        assert main(["fsck", str(fsck_model)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["files"]["u.mat"]["status"] == "hash-mismatch"

    def test_truncation_fails_even_quick(self, fsck_model, capsys):
        path = fsck_model / "v.npy"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert main(["fsck", str(fsck_model), "--quick"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["files"]["v.npy"]["status"] == "size-mismatch"
        assert report["opens"].startswith("error:")

    def test_structural_damage_caught_without_manifest(self, fsck_model, capsys):
        (fsck_model / "manifest.json").unlink()
        (fsck_model / "meta.json").write_text("{broken")
        assert main(["fsck", str(fsck_model)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["has_manifest"] is False
        assert report["opens"].startswith("error:")


class TestAppend:
    @pytest.fixture()
    def appendable(self, tmp_path, rng):
        """A built model plus .npy slabs of held-out columns and rows."""
        data = rng.random((70, 40))
        MatrixStore.create(tmp_path / "raw.mat", data[:60, :36]).close()
        out = tmp_path / "model"
        assert (
            main(
                [
                    "build",
                    "--input",
                    str(tmp_path / "raw.mat"),
                    "--budget",
                    "0.20",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        np.save(tmp_path / "cols.npy", data[:60, 36:])
        np.save(tmp_path / "rows.npy", data[60:, :])
        return out, tmp_path

    def test_append_cols_then_rows(self, appendable, capsys):
        out, root = appendable
        assert main(["append", str(out), "--cols", str(root / "cols.npy")]) == 0
        assert "4 columns" in capsys.readouterr().out
        assert main(["append", str(out), "--rows", str(root / "rows.npy")]) == 0
        captured = capsys.readouterr().out
        assert "10 rows" in captured
        assert "drift:" in captured
        with CompressedMatrix.open(out) as store:
            assert store.shape == (70, 40)

    def test_info_reports_append_state(self, appendable, capsys):
        out, root = appendable
        assert main(["append", str(out), "--cols", str(root / "cols.npy")]) == 0
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "appends: 1" in info
        assert "drift" in info

    def test_shape_mismatch_fails_cleanly(self, appendable, tmp_path, capsys):
        out, _root = appendable
        np.save(tmp_path / "bad.npy", np.ones((3, 5)))
        code = main(["append", str(out), "--cols", str(tmp_path / "bad.npy")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_legacy_model_fails_cleanly(self, tmp_path, rng, capsys):
        from repro.core import SVDDCompressor

        model = SVDDCompressor(budget_fraction=0.2).fit(rng.random((30, 20)))
        CompressedMatrix.save(model, tmp_path / "legacy").close()
        np.save(tmp_path / "cols.npy", np.ones((30, 2)))
        code = main(
            ["append", str(tmp_path / "legacy"), "--cols", str(tmp_path / "cols.npy")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
