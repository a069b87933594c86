"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Checks that every workload prints each metric with its unit, that the result
line carries exactly the metrics BENCHMARK.json lists, that no op fails, that
the counts of two traced runs with the same seed are identical, and that the
benchmark refuses to run without the package.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Metrics the report prints beyond the result line, by workload. op_p90_s
# needs at least 100 ops in the list, which only certify has (at both sizes).
REPORTED = {
    "rank1-sweep": {"failed_frac": "frac"},
    "certify": {"failed_frac": "frac", "op_p90_s": "s", "op_p90_samples": "count"},
    "solve": {"failed_frac": "frac", "control_s": "s"},
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return proc.returncode, printed, lines


def result_line(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    rc, printed, lines = run(workload, 0)
    assert rc == 0, "\n".join(lines)
    result = result_line(lines)
    gated = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    for name, unit in {**gated, **REPORTED[workload]}.items():
        assert printed[name][1] == unit, name
    assert printed["failed_frac"][0] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for _ in range(2):
        rc, printed, lines = run(workload, 1)
        assert rc == 0, "\n".join(lines)
        result = result_line(lines)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == layer
        assert all(printed[name][1] == unit for name, unit in layer.items())
        counts.append({
            k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "frac")
        })
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    rc, _, lines = run("certify", 0, cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
