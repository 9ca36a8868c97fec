"""memsosc needs numpy only: it imports and runs with scipy unimportable.
Inside the package, no module takes another module's `_`-prefixed name."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import memsosc

# Blocks every scipy import, then runs one noise report (root finding,
# phase-slope Q, budget and FoM) through the CLI entry point.
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
import memsosc
import memsosc.cli
sys.exit(memsosc.cli.main(["noise", "rft30g", "--network", "l0_250p_q8"]))
"""


def run_python(code):
    src = str(Path(memsosc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_runs_with_scipy_blocked():
    proc = run_python(NO_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert "FoM (physical)" in proc.stdout


def test_import_loads_no_scipy():
    proc = run_python("import sys, memsosc; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def private_names_crossing_modules(source: str) -> list[str]:
    """`_`-prefixed names one module takes from another package module:
    `from .x import _y`, `from . import _x`, or `x._y` on an imported module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if not module.startswith((".", "memsosc")):
            continue
        from_package = module.strip(".") in ("", "memsosc")  # names are modules
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"from {module} import {alias.name}")
            elif from_package:
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_private_name_crosses_modules():
    package = Path(memsosc.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 10
    found = {path.name: private_names_crossing_modules(path.read_text())
             for path in sources}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_name_check_sees_each_form():
    assert private_names_crossing_modules(
        "from .bvd import _check\nfrom . import _x\nfrom memsosc.mna import _grid\n"
        "from . import compensation\ncompensation._brent(1)\n") == [
        "from .bvd import _check", "from . import _x", "from memsosc.mna import _grid",
        "compensation._brent"]
    assert private_names_crossing_modules(
        "from __future__ import annotations\nfrom .bvd import check\n"
        "import numpy as np\nnp._core\n") == []
