"""Reduced-size check of the benchmark itself.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py

Each workload runs at --scale smoke in both trace modes.  The check is
that every metric BENCHMARK.json names prints with its unit, that the
result line has exactly the keys correct, attempted, failed and
metrics, and that no op fails on the current code (op_fail_ratio 0).
A copy of the benchmark without the package beside it must fail
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd, workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--scale", "smoke"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("op_fail_ratio=0 ") for line in lines), proc.stdout

    expected = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in expected}
    for m in expected:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    workload = SPEC["workloads"][0]["name"]
    proc = run_bench(tmp_path, workload, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
