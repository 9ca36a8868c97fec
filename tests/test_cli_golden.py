"""CLI reports pinned to recorded output.

`cli_golden.json` holds the exit code and stdout of every case below.
They were first recorded before the noise/FoM chain moved into
`noise.evaluate` (`sweep_lc_beyond_window` later, once every zero-phase
crossing counted), and re-recorded when the loaded Q became the exact
phase slope, which moved only the Q-derived numbers: Q_L, phase noise and
FoM.  The line layout must match exactly; numbers must agree to 1e-12
relative, not to the last digit: each crossing is polished by Newton
steps on the susceptance, kept inside a sign-change bracket by bisection,
from its root estimate until a step is below 1e-15 of the frequency, so
where the susceptance is flat to rounding over a few units in the last
place the polished frequency depends on the estimate's last bits and on
the polish.  The file was recorded with np.roots estimates, a Brent
polish and phase noise and FoM as logs of linear products; the in-house
cubic solve, the Newton polish and the sums of logs that replaced them
move the last digits of some numbers.  When the `aligned` flag of
`compensate` became the signed `window` fraction, only that line of the
five `compensate*` cases was re-recorded.  When the startup-margin
warning, which every design carried, was deleted, only that line of the
two `design*` cases was removed.

After a deliberate change to a report, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from memsosc import cli
from memsosc.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "cli_golden.json"

SPEC = """\
resonator = rft30g
target_f0 = 30g
v_osc = 300m
parasitic_c = 86.58f
q_l0 = 8
bank_unit = 1f
bank_size = 8
"""

Q8 = ("rft30g", "--network", "l0_250p_q8")

# "@spec" and "@tank" stand for the design spec above and a netlist fixture.
CASES = {
    "resonator": ("resonator", "rft30g"),
    "compensate": ("compensate", *Q8),
    "noise": ("noise", *Q8),
    "design": ("design", "--in", "@spec"),
    "ac": ("ac", "--in", "@tank", "--out", "-"),
    "sweep_delta_c": ("sweep", *Q8, "--var", "delta_c", "--from=-3f", "--to=3f",
                      "--points", "25", "--out", "-"),
    "compensate_quartz": ("compensate", "quartz45m"),
    "compensate_fbar": ("compensate", "fbar2g4"),
    "compensate_saw": ("compensate", "saw400m", "--q-l0", "20"),
    "noise_quartz": ("noise", "quartz45m"),
    "noise_fbar": ("noise", "fbar2g4"),
    "noise_saw": ("noise", "saw400m", "--q-l0", "20"),
    "noise_options": ("noise", "rft30g", "--q-l0", "8", "--offset", "100k",
                      "--offset", "3meg", "--gamma", "1.5", "--gmbias", "5m",
                      "--supply", "1.2", "--vosc", "0.2"),
    "noise_temp": ("noise", "rft30g", "--network", "l0_250p_q10", "--temp", "350",
                   "--offset", "10k"),
    "sweep_q_l0": ("sweep", *Q8, "--var", "q_l0", "--from=2", "--to=20",
                   "--points", "7", "--out", "-"),
    "sweep_l_0": ("sweep", *Q8, "--var", "l_0", "--from=249p", "--to=251p",
                  "--points", "5", "--out", "-"),
    "sweep_q_rft": ("sweep", *Q8, "--var", "q_rft", "--from=5k", "--to=20k",
                    "--points", "5", "--out", "-"),
    "sweep_q_l0_log": ("sweep", *Q8, "--var", "q_l0", "--from=2", "--to=50",
                       "--points", "6", "--log", "--out", "-"),
    "sweep_q_rft_log": ("sweep", "fbar2g4", "--var", "q_rft", "--from=800",
                        "--to=3200", "--points", "5", "--log", "--out", "-"),
    "design_doc": ("design", "--in", "@spec", "--format", "doc", "--out", "-"),
    "sweep_options": ("sweep", "rft30g", "--network", "l0_250p_q10", "--var",
                      "delta_c", "--from=-1f", "--to=1f", "--points", "5",
                      "--offset", "100k", "--gamma", "2", "--out", "-"),
    "compensate_f0": ("compensate", "rft30g", "--f0", "30g"),
    # LC-governed rows; from 180 fF on the crossing lies below 0.5 f_tank
    "sweep_lc_beyond_window": ("sweep", "rft30g", "--q-l0", "4", "--var", "delta_c",
                               "--from=120f", "--to=200f", "--points", "5",
                               "--out", "-"),
}

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_case(name: str, workdir: Path) -> tuple[int, str]:
    spec = workdir / "spec.txt"
    spec.write_text(SPEC)
    paths = {"@spec": str(spec), "@tank": str(HERE / "netlists" / "good_shunt_tank.cir")}
    argv = [paths.get(arg, arg) for arg in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def assert_same_report(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines, want_lines):
        assert NUMBER.split(g) == NUMBER.split(w), (g, w)
        for a, b in zip(NUMBER.findall(g), NUMBER.findall(w)):
            assert math.isclose(float(a), float(b), rel_tol=1e-12), (g, w)
    assert got.endswith("\n") == want.endswith("\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_cases_match_golden_file(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, golden, tmp_path):
    code, out = run_case(name, tmp_path)
    assert code == golden[name]["code"]
    assert_same_report(out, golden[name]["stdout"])


def test_one_parser_serves_every_case_in_any_order(golden, tmp_path, monkeypatch,
                                                   capsys):
    """`main` builds its argparse tree once and parsing leaves it as it was."""
    builds = []
    build_parser = cli.build_parser

    def counted():
        builds.append(None)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        first = {name: run_case(name, tmp_path) for name in sorted(CASES)}
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "rft30g", "--var", "no_such_var", "--from=1", "--to=2"])
        assert exc.value.code == 2
        assert main(["resonator", "no_such_device"]) == 1
        again = {name: run_case(name, tmp_path) for name in sorted(CASES, reverse=True)}
    finally:
        cli._parser.cache_clear()
    assert again == first
    assert len(builds) == 1
    for name, (code, out) in first.items():
        assert code == golden[name]["code"]
        assert_same_report(out, golden[name]["stdout"])


def test_number_comparison_is_tight():
    assert_same_report("Q_L : 1.0000000000001 x\n", "Q_L : 1.0 x\n")
    with pytest.raises(AssertionError):
        assert_same_report("Q_L : 1.00000000001 x\n", "Q_L : 1.0 x\n")
    with pytest.raises(AssertionError):
        assert_same_report("Q_L  : 1.0 x\n", "Q_L : 1.0 x\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {}
        for case in CASES:
            code, out = run_case(case, Path(tmp))
            record[case] = {"code": code, "stdout": out}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
