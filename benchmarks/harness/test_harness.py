"""Smoke test of the benchmark on a reduced 2000 x 128 model.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness -q``.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from benchmarks.harness import model, ops, spec
from benchmarks.harness.cli import run_workload

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_SEED = 7


@pytest.fixture(scope="module")
def raw():
    return model.raw_matrix(model.SMOKE)


@pytest.fixture(scope="module")
def plain():
    return {
        name: run_workload(name, _SEED, 0.2, traced=False, scale=model.SMOKE)
        for name in spec.WORKLOAD_NAMES
    }


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("spans")
    return {
        name: run_workload(
            name, _SEED, 0.2, traced=True, scale=model.SMOKE,
            span_path=out / f"{name}.jsonl",
        )
        for name in spec.WORKLOAD_NAMES
    }, out


def test_manifest_is_the_spec():
    manifest = json.loads((model.REPO_ROOT / "BENCHMARK.json").read_text())
    assert manifest == spec.manifest(manifest["run_seconds"])
    assert 2 <= len(spec.WORKLOADS) <= 8 and len(spec.PER_LAYER) <= 128
    assert any(m.name == "setup_s" and m.better == "lower" for m in spec.END_TO_END)
    for work in spec.WORKLOADS:
        assert _NAME.match(work.name) and len(work.why) <= 200 and "\n" not in work.why
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert _NAME.match(metric.name), metric.name
        assert _UNIT.match(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_op_stream_follows_the_seed(raw, name):
    assert ops.stream_bytes(name, raw, 1) == ops.stream_bytes(name, raw, 1)
    assert ops.stream_bytes(name, raw, 1) != ops.stream_bytes(name, raw, 2)


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_plain_run_reports_every_end_to_end_metric(plain, name):
    record = plain[name]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert tuple(record["metrics"]) == spec.END_TO_END_NAMES
    for key, metric in record["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, key
        assert metric["unit"] == spec.UNITS[key]
    assert not any(record["facts"]["serve_exit_codes"])


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(traced, name):
    records, out = traced
    record = records[name]
    assert record["correct"] and record["failed"] == 0
    assert tuple(record["metrics"]) == spec.PER_LAYER_NAMES
    assert all(math.isfinite(m["value"]) for m in record["metrics"].values())
    spans = [json.loads(line) for line in (out / f"{name}.jsonl").read_text().splitlines()]
    assert spans and set(spans[0]) == {"trace", "span", "parent", "name", "start_ns", "end_ns"}
    assert all(span["end_ns"] >= span["start_ns"] for span in spans)


def test_ladder_self_times_sum_to_the_http_p50(traced):
    value = {k: m["value"] for k, m in traced[0]["http_mix"]["metrics"].items()}
    rungs = (
        value["query.engine.execute_ms_p50"] * 1e3
        + value["query.executor.overhead_us_p50"]
        + value["query.process_executor.ipc_us_p50"]
        + value["serve.robust.dispatch_overhead_us_p50"]
        + value["serve.server.http_overhead_us_p50"]
    )
    assert rungs == pytest.approx(value["serve.server.http_ms_p50"] * 1e3)


@pytest.mark.parametrize("name", ["point_zipf", "adhoc_agg", "append_visible"])
def test_counts_repeat_exactly(traced, plain, name):
    again = run_workload(name, _SEED, 0.2, traced=True, scale=model.SMOKE)
    for metric in spec.PER_LAYER:
        if metric.exact:
            first = traced[0][name]["metrics"][metric.name]["value"]
            assert again["metrics"][metric.name]["value"] == first, metric.name
    again = run_workload(name, _SEED, 0.2, traced=False, scale=model.SMOKE)
    for key in ("answer_err_mean", "space_ratio"):
        assert again["metrics"][key]["value"] == plain[name]["metrics"][key]["value"], key
