"""Smoke test of the benchmark: each workload runs briefly, reports every
metric BENCHMARK.json names with its unit, and fails no operation.

    python3 -m pytest bench/test_smoke.py

It runs under a minute and is not part of the tier-1 suite (pytest's
testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_and_record(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads((BENCH / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return result, record


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_end_to_end_metrics_and_no_failures(workload):
    result, record = result_and_record(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert record["failed_frac"] == 0
    assert result["failed"] == 0 and result["correct"] and result["attempted"] >= 1
    assert record["instances"] and record["cycles"] > 0


def test_traced_run_reports_every_per_layer_metric():
    result, record = result_and_record("long-word", 1)
    assert_metrics(result, SPEC["per_layer"])
    assert record["failed_frac"] == 0 and result["correct"]
    assert record["machine"]["python"] and set(record["spans"]) == {
        w["name"] for w in SPEC["workloads"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("solve", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
