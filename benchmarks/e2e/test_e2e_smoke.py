"""Smoke test of the end-to-end benchmark at minimum size.

Runs each workload once for a few seconds (one round, pass or a few
seconds of serving) and checks the result contract: every metric named
in ``BENCHMARK.json`` is printed with its unit, seed 0 matches the
frozen digests, and the command refuses to run without the program's
source.  Run with ``pytest benchmarks/e2e`` (outside tier-1).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True,
        text=True, timeout=180)


def check_result(done: subprocess.CompletedProcess, metrics: list) -> None:
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for metric in metrics:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), metric["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_matches_digests(workload):
    done = run_bench("--workload", workload, "--seed", "0",
                     "--seconds", "3", "--trace", "0")
    check_result(done, SPEC["end_to_end"])
    values = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert all(values[m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_traced_run_reports_the_layer_ledger():
    done = run_bench("--workload", "dynamic_epochs", "--seed", "0",
                     "--seconds", "3", "--trace", "1")
    check_result(done, SPEC["per_layer"])
    values = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert values["migration.replay.self_ms"]["value"] > 0
    assert values["serve.http.self_ms"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "cold_cli", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
