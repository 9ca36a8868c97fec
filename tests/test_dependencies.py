"""memsosc needs numpy only: it imports and runs with scipy unimportable."""

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
