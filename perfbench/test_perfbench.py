"""Smoke tests of the benchmark itself, on the tiny size of each workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import E2E_UNITS, GATED, LAYER_UNITS  # noqa: E402

COMMON = ("setup_s", "setup_wall_s", "run_s", "run_ref_s", "peak_rss_mb",
          "failed_ratio")
E2E_BY_WORKLOAD = {
    "field-hour": COMMON + ("sim_node_hours_per_s", "recall", "false_warnings",
                            "warning_latency_p50_s", "delivered_ratio"),
    "mesh-storm": COMMON + ("publishes_per_s", "delivered_ratio",
                            "msg_latency_p50_s", "msg_latency_p99_s"),
    "eval-sweep": COMMON + ("recall", "similarity_min"),
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd)
    return proc


def smoke(workload, *extra):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--size", "smoke", *extra)
    assert proc.returncode == 0, proc.stderr
    *_, report, last = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(last)


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(GATED)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    for m in spec["end_to_end"]:
        assert E2E_UNITS[m["name"]] == m["unit"]


@pytest.mark.parametrize("workload", sorted(E2E_BY_WORKLOAD))
def test_end_to_end_metrics_printed_with_units(workload):
    report, last = smoke(workload, "--trace", "0")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {k: E2E_UNITS[k] for k in GATED}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == \
        {k: E2E_UNITS[k] for k in E2E_BY_WORKLOAD[workload]}
    assert report["metrics"]["failed_ratio"]["value"] == 0


@pytest.mark.parametrize("workload", sorted(E2E_BY_WORKLOAD))
def test_per_layer_metrics_printed_with_units(workload):
    _, last = smoke(workload, "--trace", "1")
    assert last["correct"] and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(E2E_BY_WORKLOAD))
def test_corrupted_output_counts_as_failed(workload):
    report, last = smoke(workload, "--trace", "0", "--corrupt")
    assert not last["correct"] and last["failed"] == 1
    assert report["metrics"]["failed_ratio"]["value"] == 1 / last["attempted"]
    assert report["problems"][0].startswith("reference job")


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "field-hour", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
