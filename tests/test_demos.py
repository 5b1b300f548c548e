"""Every demo script and the self-check run to completion against the
package source, from an empty directory, writing no files; a process that
uses the package loads only what the package needs; the package exports
exactly what the README and the demos import from it; no module imports a
name it never uses or another module's private name; model and selection
import no package module but errors; and every file the package opens is
opened as UTF-8."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import selbp
import selbp.evalgrad
import selbp.trainer

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# __init__.py imports names to re-export them, not to use them.
MODULES = sorted(p for p in (ROOT / "src" / "selbp").glob("*.py") if p.name != "__init__.py")


def test_demos_found():
    assert DEMOS


def test_package_exports_what_the_readme_and_demos_import():
    readme = (ROOT / "README.md").read_text()
    sources = [*re.findall(r"```python\n(.*?)```", readme, re.S),
               *(demo.read_text() for demo in DEMOS)]
    imported = {alias.name for source in sources for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "selbp"
                for alias in node.names}
    exported = {name for name, value in vars(selbp).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert imported == exported
    # The result CSVs are written by selbp.cli alone.
    assert "csv" not in vars(selbp.trainer) and "csv" not in vars(selbp.evalgrad)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse(module.read_text())
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"imported but never used: {sorted(imported - used)}"


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another(module):
    # A module's private name is its own decision; another module uses its public ones.
    private = [f"{module.name}:{node.lineno} {alias.name}"
               for node in ast.walk(ast.parse(module.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.startswith("selbp"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("name", ["model.py", "selection.py"])
def test_model_and_selection_import_no_package_module_but_errors(name):
    # model alone decides what runs on the side thread, and selection's
    # algorithms take plain arrays, so neither leans on another module.
    tree = ast.parse((ROOT / "src" / "selbp" / name).read_text())
    imported = {"." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level or node.module.startswith("selbp"))}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names if alias.name.startswith("selbp")}
    assert imported <= {".errors", "selbp.errors"}


def test_every_open_names_its_encoding():
    # Config, dataset and result files are UTF-8 whatever the locale's encoding.
    bare = [f"{path.name}:{node.lineno}" for path in (ROOT / "src" / "selbp").glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
            and ("encoding", "utf-8") not in {(kw.arg, getattr(kw.value, "value", None))
                                              for kw in node.keywords}]
    assert bare == []


def test_config_restates_no_rule_of_another_module():
    # A grid value is checked by building its cell's configs, so config.py
    # needs no other module's constant tables.
    tree = ast.parse((ROOT / "src" / "selbp" / "config.py").read_text())
    constants = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 and (node.level or node.module.startswith("selbp"))
                 for alias in node.names if alias.name.isupper()]
    assert constants == []


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


@pytest.mark.parametrize("module", ["selbp", "selbp.trainer", "selbp.cli"])
def test_a_run_does_not_load_the_oracles(module, tmp_path):
    probe = f"import sys, {module}; print('selbp.oracles' in sys.modules)"
    assert run_python(["-c", probe], tmp_path).strip() == "False"


ONE_BLAS_PROBE = """
import sys
import numpy as np
import selbp, selbp.cli
from selbp.data import DatasetDescriptor, build_dataset
from selbp.model import Mlp
from selbp.selection import OmpConfig, omp_gram
from selbp.trainer import StrategyConfig, TrainConfig, run_training

omp_gram(np.eye(3), np.ones(3), OmpConfig(max_atoms=2))
ds = build_dataset(DatasetDescriptor(kind="blobs", n=60, seed=1))
cfg = TrainConfig(base_batch=16, fraction=0.5, epochs=1, base_lr=0.05)
run_training(cfg, StrategyConfig(kind="grad_match", fraction=0.5), ds, Mlp.init([2, 8, 3]))
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_a_process_loads_only_numpys_blas(tmp_path):
    # SciPy would map a second BLAS beside numpy's: the package never imports it.
    assert run_python(["-c", ONE_BLAS_PROBE], tmp_path).strip() == "[]"


SIDE_RULE_PROBE = """
import os, sys
import numpy as np
from selbp.model import Mlp, _side, forward_tape
forward_tape(Mlp.init([2, 3]), np.ones((4, 2)), np.zeros(4, int))
print(os.getpid() in _side, "multiprocessing" in sys.modules)
"""


def test_the_side_thread_rule_loads_no_multiprocessing(tmp_path):
    # The rule reads multiprocessing only where the process has loaded it already.
    assert run_python(["-c", SIDE_RULE_PROBE], tmp_path).split() == ["True", "False"]
