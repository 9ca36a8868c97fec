"""memsosc needs numpy only for arrays, and scipy never.

It imports and runs with scipy unimportable.  `import memsosc` loads no
numpy, and the subcommands that work one frequency at a time (resonator
without --out, compensate, noise, design, and sweep, linear or --log)
print the same report with numpy unimportable; the library calls behind
them give the same values.
Inside the package, no module takes another module's `_`-prefixed
name, and in `cli` only `main` writes stdout."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memsosc
from memsosc.cli import main

# Makes the named packages unimportable, then runs each argv of
# sys.argv[1] (JSON) through the CLI entry point and prints one JSON list
# of [exit code, stdout] and whether numpy got loaded.
BLOCKER = """
import contextlib, io, json, sys

BLOCKED = {blocked!r}

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in BLOCKED:
            raise ImportError(f"{{name}} is blocked")
        return None

sys.meta_path.insert(0, Blocker())
"""

BLOCKED_RUN = BLOCKER + """
import memsosc.cli

results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = memsosc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue()])
print(json.dumps([results, "numpy" in sys.modules]))
"""

SPEC = """\
resonator = rft30g
target_f0 = 30g
v_osc = 300m
parasitic_c = 86.58f
q_l0 = 8
bank_unit = 1f
bank_size = 8
"""

# "@spec", "@partial" and "@infeasible" stand for design documents: the
# spec above, one missing its required keys, and one no design can meet.
SCALAR_CASES = {
    "resonator": (["resonator", "rft30g"], 0),
    "compensate": (["compensate", "rft30g", "--network", "l0_250p_q8"], 0),
    "compensate_default": (["compensate", "quartz45m"], 0),
    "noise": (["noise", "rft30g", "--network", "l0_250p_q8"], 0),
    "noise_options": (["noise", "saw400m", "--q-l0", "20", "--offset", "10k"], 0),
    "design": (["design", "--in", "@spec"], 0),
    "design_doc": (["design", "--in", "@spec", "--format", "doc", "--out", "-"], 0),
    "sweep": (["sweep", "rft30g", "--network", "l0_250p_q8", "--var", "delta_c",
               "--from=-3f", "--to=3f", "--points", "7", "--out", "-"], 0),
    "sweep_log": (["sweep", "rft30g", "--var", "q_l0", "--from=2", "--to=20",
                   "--points", "5", "--log", "--offset", "100k", "--out", "-"], 0),
    "unknown_fixture": (["noise", "bogus_device"], 1),
    "missing_key": (["design", "--in", "@partial"], 1),
    "infeasible_design": (["design", "--in", "@infeasible"], 2),
    "bad_choice": (["design", "--in", "@spec", "--format", "xml"], 2),
}


# The library's one-frequency API on Python floats, down to a design report.
SCALAR_API = """
from memsosc import bvd, compensation, design, fixtures, noise

res = fixtures.get_resonator("rft30g")
comp = fixtures.get_network("l0_250p_q8")
f_op, z_op, mode = compensation.find_operating_point(res, comp)
op = noise.OscillatorOperatingPoint(v_osc=0.3, f_0=f_op, delta_f=1e6, supply=0.8)
spec = design.DesignSpec(resonator=res, target_f0=30e9, v_osc_target=0.3,
                         parasitic_c=86.58e-15, q_l0_available=8.0,
                         bank_unit=1e-15, bank_size=8)
values = [bvd.impedance(res, 3e10), compensation.tank_impedance(res, comp, 3e10),
          bvd.phase(res, 3e10), bvd.static_reactance(res, 3e10), f_op, z_op, mode,
          compensation.phase_slope_q(res, comp, f_op), noise.evaluate(res, comp, op),
          noise.sensitivity_sweep(res, comp, op, [-6e-15, 0.0, 6e-15, 30e-15]),
          design.run_design(spec)]
"""


def run_python(code, *args):
    src = str(Path(memsosc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_blocked(blocked, argvs):
    proc = run_python(BLOCKED_RUN.format(blocked=blocked), json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def scalar_argvs(tmp_path_factory):
    docs = tmp_path_factory.mktemp("docs")
    paths = {"@spec": SPEC, "@partial": "resonator = rft30g\n",
             "@infeasible": SPEC + "bank_size = 2\nl0_grid = 1n\n"}
    for name, text in paths.items():
        (docs / name[1:]).write_text(text)
    return {case: [str(docs / a[1:]) if a in paths else a for a in argv]
            for case, (argv, _) in SCALAR_CASES.items()}


def test_cli_runs_with_scipy_blocked():
    results, _ = run_blocked(("scipy",), [["noise", "rft30g", "--network", "l0_250p_q8"]])
    [[code, out]] = results
    assert code == 0
    assert "FoM (physical)" in out


def test_import_loads_no_scipy():
    proc = run_python("import sys, memsosc; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_loads_no_numpy():
    proc = run_python("import sys, memsosc; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_scalar_subcommands_run_with_numpy_blocked(scalar_argvs):
    argvs = list(scalar_argvs.values())
    results, numpy_loaded = run_blocked(("numpy", "scipy"), argvs)
    assert not numpy_loaded
    for (case, (_, want_code)), argv, (code, out) in zip(SCALAR_CASES.items(), argvs,
                                                         results):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                unblocked = main(argv)
            except SystemExit as exc:
                unblocked = exc.code
        assert (code, unblocked) == (want_code, want_code), case
        assert out == stdout.getvalue(), case
    assert results[0][1].startswith("# defaults")  # reports were really printed


def test_scalar_api_runs_with_numpy_blocked():
    proc = run_python(BLOCKER.format(blocked=("numpy", "scipy")) + SCALAR_API
                      + "print(json.dumps([repr(values), 'numpy' in sys.modules]))")
    assert proc.returncode == 0, proc.stderr
    blocked, numpy_loaded = json.loads(proc.stdout)
    assert not numpy_loaded
    scope = {}
    exec(SCALAR_API, scope)
    assert blocked == repr(scope["values"])


def test_mna_names_resolve_lazily():
    proc = run_python(
        "import sys, memsosc\n"
        "before = 'memsosc.mna' in sys.modules\n"
        "from memsosc import mna, parse_netlist, Netlist\n"
        "print(before, memsosc.mna is mna, memsosc.parse_netlist is mna.parse_netlist,\n"
        "      Netlist is mna.Netlist, 'parse_netlist' in dir(memsosc))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "True", "True"]
    with pytest.raises(AttributeError, match="no_such_name"):
        memsosc.no_such_name


def test_one_route_to_an_operating_point():
    # one public way each to the operating point, its Q and the noise
    # budget; the parent also exported motional-only and LC-only searches,
    # a Q with a mode switch and a budget that reduced the tank again
    names = {name for name in dir(memsosc) if "operating_point" in name
             or name.endswith("_q") or name.startswith("noise_factor")}
    assert names == {"find_operating_point", "phase_slope_q", "noise_factor_from"}
    assert "evaluate" in dir(memsosc)


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


def stdout_writers(source: str) -> list[str]:
    """Functions other than `main` that name `print` or `sys.stdout`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name == "main":
            continue
        if any(isinstance(n, ast.Name) and n.id == "print"
               or isinstance(n, ast.Attribute) and n.attr == "stdout"
               and isinstance(n.value, ast.Name) and n.value.id == "sys"
               for n in ast.walk(node)):
            found.append(node.name)
    return found


def test_only_main_writes_stdout():
    # each subcommand returns its text, so a refused one prints none of it
    cli = Path(memsosc.__file__).resolve().parent / "cli.py"
    assert stdout_writers(cli.read_text()) == []


def test_stdout_writer_check_sees_each_form():
    assert stdout_writers(
        "def a():\n    print(1)\n"
        "def b(t):\n    sys.stdout.write(t)\n"
        "def c():\n    def d():\n        return print\n"
        "def main(t):\n    print(t, file=sys.stderr)\n    sys.stdout.write(t)\n") == [
        "a", "b", "c", "d"]
    assert stdout_writers("def e(t):\n    sys.stderr.write(t)\n    return t\n") == []
