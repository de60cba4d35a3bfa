"""Tests of the benchmark itself: its output contract and its inputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def test_seed_reproduces_schedule_and_request_sizes():
    mix = workloads.MIXES["serve_mixed"]
    first = workloads.make_inputs(mix, 7, 4.0)
    again = workloads.make_inputs(mix, 7, 4.0)
    other = workloads.make_inputs(mix, 8, 4.0)
    for a, b in zip(first.rungs + [first.warmup], again.rungs + [again.warmup]):
        assert np.array_equal(a.offsets, b.offsets)
        assert a.sizes(first.templates) == b.sizes(again.templates)
    for a, b in zip(first.templates, again.templates):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(first.rungs[0].offsets, other.rungs[0].offsets)
    assert first.rungs[0].sizes(first.templates) != other.rungs[0].sizes(other.templates)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
