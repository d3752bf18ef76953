"""Smoke test of the benchmark itself: every workload at tiny size, untraced
and traced, passes the correctness gate and emits every metric that
BENCHMARK.json names, with its unit.

    python3 -m pytest -q bench/test_smoke.py
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


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_workloads_match_spec():
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_complete(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    env = json.loads(lines[-2].removeprefix("env "))
    for key in ("numpy", "blas_name", "blas_version", "blas_threads_reported", "nproc", "python", "git_commit"):
        assert key in env


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and bench/ present, the run fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
