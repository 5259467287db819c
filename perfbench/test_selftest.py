"""Tiny-size self-test of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench/test_selftest.py

Runs every workload of BENCHMARK.json on a tiny scene, untraced and traced,
and asserts that every declared metric is printed by name with its unit and
that no CLI call or artifact check failed. It asserts no wall-clock bounds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_declared_metric(workload, trace):
    proc = run_bench(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                      "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in declared}
    printed = set(lines[:-1])
    for m in declared:
        metric = summary["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert f"{m['name']} = {metric['value']!r} {m['unit']}" in printed
    assert "error_rate = 0.0 ratio" in printed


def test_exits_nonzero_without_result_when_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                      "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
