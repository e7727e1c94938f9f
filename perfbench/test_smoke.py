"""Smoke test of the benchmark: one short pass per workload.

    python3 -m pytest -q perfbench/test_smoke.py

Each pass runs a one-second schedule, one operation per stratum; it must
print every metric that BENCHMARK.json names, with its unit, and report no
failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_pass(workload):
    table, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == specs
    assert result["metrics"]["ok_frac"]["value"] == 1.0  # failed_frac == 0
    for name, unit in specs.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in table), name
    assert any("failed_frac = 0 " in line for line in table)
    if workload == "silent_sweep":
        assert result["metrics"]["silent_frac"]["value"] == 1.0  # witness_frac == 0


def test_traced_pass():
    table, result = run("approx_witness", 1)
    assert result["correct"] and result["failed"] == 0
    specs = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == specs
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
