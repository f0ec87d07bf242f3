"""Keeps the benchmark runnable: every workload at its smallest rung, with
every reference check on, untraced and traced.

    python3 -m pytest bench/test_smoke.py
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smallest_rung_untraced_and_traced(workload):
    bench = run.Run(workload, seed=5, smallest=True)
    bench.setup()
    wall, times, _ = bench.round(extra_base=False)
    assert wall is not None and all(t > 0 for t in times)
    metrics, extra = run.per_layer(bench)
    assert bench.failed == 0 and bench.errors == []
    assert bench.problems == []
    assert bench.attempted == 3 * len(bench.cases)
    layer_names = {m["name"] for m in _benchmark()["per_layer"]}
    assert set(metrics) == layer_names
    assert metrics["cdc.is_cdc_calls"][0] > 0
    assert metrics["cdc.is_cdc_peak_mib"][0] > 0
    # the wrappers are gone once the traced pass is over
    assert sys.modules["nca.cli"].is_cdc is sys.modules["nca.cdc"].is_cdc
    assert "__wrapped__" not in vars(sys.modules["nca.cdc"].is_cdc)


def test_end_to_end_metrics_match_benchmark_json():
    bench = run.Run("matrix-suite", seed=5, smallest=True)
    bench.setup()
    metrics, _ = run.end_to_end(bench, seconds=0.0)
    assert set(metrics) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "matrix-suite", "--seed", "0",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
