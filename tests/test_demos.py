"""Every demo script and the self-check run to completion against the
package source, from an empty directory, writing no files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(cwd.iterdir()) == []
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_selftest_runs_without_pytest(tmp_path):
    out = run_python(["-m", "selbp.cli", "selftest"], tmp_path)
    assert out.count("[ok]") == 4 and "[FAIL]" not in out
    probe = "import sys, selbp.oracles; print(sorted({'pytest', 'hypothesis'} & set(sys.modules)))"
    assert run_python(["-c", probe], tmp_path).strip() == "[]"
