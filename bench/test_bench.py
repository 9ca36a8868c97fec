"""Tests of the benchmark itself: `python3 -m pytest bench -q`."""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNT_SUFFIXES = (".calls", ".points", ".fails", ".singular_points", ".lc_frac")

# The shortest --seconds that still runs every kind of operation once.
SHORT = {"design_space": 0.5, "mna_oracle": 1.0, "cli_cold": 8.0}


def bench(workload, seed, seconds, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / HERE.name / "run.py"), "--workload", workload,
         "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("cls", [workloads.DesignSpace, workloads.MnaOracle,
                                 workloads.CliCold])
def test_same_seed_same_inputs(cls):
    wl = cls()
    first = wl.plan(random.Random(11), 2)
    assert first == wl.plan(random.Random(11), 2)
    assert first != wl.plan(random.Random(12), 2)
    assert len(first) == 2 * wl.block


def test_metric_names():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME_RE.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(tracer.LAYER_METRICS) <= per_layer
    assert {w["name"] for w in SPEC["workloads"]} == set(run.ROLES)


def test_import_breakdown_counts_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       400 |        450 |     scipy.optimize",
        "import time:        10 |         10 |     scipy",
        "import time:       100 |        860 |   memsosc.compensation",
        "import time:       100 |       1260 | memsosc",
    ])
    got = run.import_breakdown(stderr)
    assert got == pytest.approx({"memsosc": 1260e-6, "scipy": 460e-6, "numpy": 350e-6})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SHORT))
def test_short_run_passes_checks(workload, trace):
    result = result_of(bench(workload, 3, SHORT[workload], trace))
    assert result["correct"] is True
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["design_space", "mna_oracle"])
def test_counts_repeat_for_a_fixed_seed(workload):
    a, b = (result_of(bench(workload, 9, SHORT[workload], 1)) for _ in range(2))
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    counts = [k for k in a["metrics"] if k.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {k: a["metrics"][k] for k in counts} == {k: b["metrics"][k] for k in counts}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("design_space", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
