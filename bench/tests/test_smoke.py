"""Smoke test of the benchmark command at tiny size.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# small-lossbuf is runnable but not part of BENCHMARK.json; see bench/README.md.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["small-lossbuf"]


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_declared_metric(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_trace_sees_each_workloads_layers():
    sgd = _result("large-sgd", 1)["metrics"]
    gm = _result("large-gradmatch", 1)["metrics"]
    assert sgd["gram.gram_implicit.calls"]["value"] == 0
    assert sgd["omp.omp_gram.calls"]["value"] == 0
    assert sgd["model.weighted_backward.useful_ratio"]["value"] == 1.0
    assert gm["omp.omp_gram.calls"]["value"] > 0
    assert gm["model.weighted_backward.useful_ratio"]["value"] == pytest.approx(0.25, abs=0.02)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
