import contextlib
import io
import math
import random
import re
import tracemalloc
import warnings

import pytest

from memsosc import bvd, mna, noise
from memsosc.cli import main
from memsosc.engnotation import parse_eng
from memsosc.fixtures import BUILTIN_NETWORKS, BUILTIN_RESONATORS
from memsosc.iodoc import RESPONSE_CSV_HEADER


DESIGN_DOC = """\
resonator = rft30g
target_f0 = 30g
v_osc = 300m
parasitic_c = 86.58f
q_l0 = 8
bank_unit = 1f
bank_size = 8
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "resonator", "rft30g")
        assert code == 0

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "resonator", "bogus_device")
        assert code == 1
        assert "error:" in err

    def test_bad_netlist(self, tmp_path, capsys):
        p = tmp_path / "bad.cir"
        p.write_text("X1 1 0 5\n.probe 1 0\n")
        code, _, err = run(capsys, "ac", "--in", str(p))
        assert code == 1
        assert "netlist errors" in err

    def test_missing_netlist_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "ac", "--in", str(tmp_path / "nope.cir"))
        assert code == 1

    def test_overflowing_network_is_an_input_error(self, tmp_path, capsys):
        p = tmp_path / "net.txt"
        p.write_text("l0 = 1e200\nq_l0 = 8\nf_ref = 30g\n")
        code, out, err = run(capsys, "noise", "rft30g", "--network", str(p))
        assert (code, out) == (1, "")
        assert err == "error: tank values overflow the zero-phase polynomial\n"

    def test_design_failure_is_2(self, tmp_path, capsys):
        p = tmp_path / "spec.txt"
        # 1 nH grid with a 2-unit bank cannot align anything
        p.write_text(DESIGN_DOC + "bank_size = 2\nl0_grid = 1n\n")
        code, _, err = run(capsys, "design", "--in", str(p))
        assert code == 2
        assert "design failed" in err

    @pytest.mark.parametrize("option", ["--q-l0", "--temp", "--gamma"])
    def test_out_of_range_option_is_usage_error(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["noise", "rft30g", option, "1e999"])
        assert exc.value.code == 2
        assert "out of range" in capsys.readouterr().err

    def test_out_of_range_network_document_is_1(self, tmp_path, capsys):
        p = tmp_path / "net.txt"
        p.write_text("l0 = 1e999\nq_l0 = 8\nf_ref = 30g\n")
        code, _, err = run(capsys, "noise", "rft30g", "--network", str(p))
        assert code == 1
        assert "out of range" in err

    def test_series_topology_network_is_1(self, tmp_path, capsys):
        p = tmp_path / "net.txt"
        p.write_text("l0 = 250p\nq_l0 = 8\nf_ref = 30g\ntopology = series\n")
        code, out, err = run(capsys, "noise", "rft30g", "--network", str(p))
        assert code == 1
        assert out == ""
        assert err == ("error: key 'topology': only 'shunt' is supported, "
                       "got 'series'\n")

    def test_zero_supply_is_1(self, capsys):
        code, out, err = run(capsys, "noise", "rft30g", "--supply", "0")
        assert code == 1
        assert out == ""
        assert err == "error: supply must be positive and finite, got 0.0\n"

    def test_bad_spec_document_is_1(self, tmp_path, capsys):
        p = tmp_path / "spec.txt"
        p.write_text("resonator = rft30g\n")  # missing required keys
        code, _, err = run(capsys, "design", "--in", str(p))
        assert code == 1


# Inputs whose derived quantities over- or underflow: each ends in an error
# line that names the input, where the noise chain once raised
# ZeroDivisionError, OverflowError, "math domain error" or a NaN p_dc.
NOISE_CHAIN_REFUSALS = {
    "compensate fbar2g4 --f0 1e-300":
        "no finite inductance resonates c_total = 1.29e-12 F at f_0 = 1e-300 Hz",
    "noise fbar2g4 --q-l0 0.3 --vosc 1e-310":
        "v_osc = 1e-310 V puts the signal power v_osc^2/(2*r_res) out of "
        "floating-point range",
    "noise saw400m --network l0_250p_q8 --vosc 1e200 --offset 1e-310 --temp 1e30 "
    "--gmbias 1e300":
        "v_osc = 1e+200 V puts the signal power v_osc^2/(2*r_res) out of "
        "floating-point range",
    "noise rft30g --network l0_250p_q8 --vosc 1e200":
        "v_osc = 1e+200 V puts the signal power v_osc^2/(2*r_res) out of "
        "floating-point range",
    "noise quartz45m --q-l0 1e300 --gamma 1e3 --temp 5e9":
        "r_res = r_m || q_l0^2*r_l0 is out of floating-point range for "
        "q_l0 = 1e+300 and l_0 = 3.1845e-06 H",
    "noise rft30g --supply 1e308":
        "supply = 1e+308 V puts the DC power or the efficiency out of floating-point range",
    "noise rft30g --supply 1e-310":
        "supply = 1e-310 V puts the DC power or the efficiency out of floating-point range",
}


@pytest.mark.parametrize("argv", sorted(NOISE_CHAIN_REFUSALS))
def test_noise_chain_refusal_names_the_input(argv, capsys):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (1, f"error: {NOISE_CHAIN_REFUSALS[argv]}\n")
    assert out == "" or argv.startswith("compensate")


@pytest.mark.parametrize("command", ["noise", "compensate"])
def test_subnormal_motional_resistance_is_one_error_line(command, tmp_path, capsys):
    # r_m^2 underflows, so the root polish divides by zero at the motional
    # crossing
    dev = tmp_path / "subnormal.dev"
    dev.write_text("rm = 1e-312\nlm = 17.59u\ncm = 1.60006e-18\nc0 = 16f\n")
    code, out, err = run(capsys, command, str(dev), "--network", "l0_250p_q8")
    assert (code, err) == (1, "error: phase slope is not finite at f = 29999849618.31458 Hz\n")
    assert out == "" or command == "compensate"


def test_noise_finds_the_crossing_pair_of_a_very_lossy_inductor(capsys):
    # two crossings exist near f_s; a deflation by a + y would lose both
    code, out, err = run(capsys, "noise", "quartz45m", "--q-l0", "0.001")
    assert (code, err) == (0, "")
    assert "f_osc          : 44593292.50178936 Hz\n" in out


def test_noise_factor_overflow_names_gamma_and_gmbias(capsys):
    code, out, err = run(capsys, "noise", "saw400m", "--network", "l0_250p_q8",
                         "--gamma", "1e300", "--gmbias", "5e9")
    assert (code, out) == (1, "")
    assert err == ("error: the noise factor is not finite for gamma = 1e+300 "
                   "and g_mbias = 5000000000.0 S\n")


def test_tiny_offset_gives_finite_figures(capsys):
    # f_0/delta_f overflows as a ratio but not as a difference of logs
    code, out, _ = run(capsys, "noise", "rft30g", "--offset", "1e-310")
    assert code == 0
    figures = [float(line.split(":")[1].split()[0]) for line in out.splitlines()
               if line.startswith(("PN @", "FoM"))]
    assert len(figures) == 4 and all(map(math.isfinite, figures))


# An offset at or above the carrier: where the carrier is the governing
# crossing, found for `noise` and for every sweep point alike, one rule
# names that crossing; the design flow's record, built at its carrier,
# keeps its own check.
OFFSET_REFUSALS = {
    ("sweep", "rft30g", "--network", "l0_250p_q8", "--var", "delta_c", "--from", "0",
     "--to", "1e-15", "--points", "2", "--offset", "1.7976931348623157e308"):
        "error: the governing crossing at 30000014473.19505 Hz is not above the "
        "1.7976931348623157e+308 Hz offset\n",
    ("noise", "rft30g", "--network", "l0_250p_q8", "--offset", "1e300"):
        "error: the governing crossing at 30000014473.19505 Hz is not above the "
        "1e+300 Hz offset\n",
    ("noise", "rft30g", "--network", "l0_250p_q8", "--offset", "1e6", "--offset", "1e300"):
        "error: the governing crossing at 30000014473.19505 Hz is not above the "
        "1e+300 Hz offset\n",
    ("design", "--in", "@spec"):
        "error: offset 1000000000000.0 Hz must be below the carrier "
        "30000014473.19505 Hz\n",
}


@pytest.mark.parametrize("argv", list(OFFSET_REFUSALS),
                         ids=["sweep", "noise", "noise_two_offsets", "design"])
def test_offset_above_the_carrier_is_one_error_line(argv, tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(DESIGN_DOC + "pn_offset = 1e12\n")
    code, out, err = run(capsys, *(str(spec) if a == "@spec" else a for a in argv))
    assert (code, out, err) == (1, "", OFFSET_REFUSALS[argv])


# A command refused after part of its report was computed prints none of
# it; every offset of `noise` is checked before the tank search.
@pytest.mark.parametrize("argv, expected", [
    (("compensate", "rft30g", "--q-l0", "1e-3"),
     "no zero-phase crossing at any frequency (f_tank = 29999849618.31458 Hz)"),
    (("compensate", "saw400m", "--network", "missing.net"),
     "unknown network 'missing.net': not a built-in fixture (l0_250p_q10, l0_250p_q8) "
     "and no such file"),
    (("noise", "rft30g", "--q-l0", "1e-3", "--offset", "1e6", "--offset", "-1"),
     "delta_f must be positive and finite, got -1.0"),
    (("sweep", "rft30g", "--var", "q_l0", "--from=2", "--to=20", "--points", "2",
      "--offset", "1e6", "--offset", "-1", "--out", "-"),
     "sweep prints one phase-noise column: give at most one --offset, got 2"),
    # refusals at a later point of a delta_c sweep, which runs on floats
    (("sweep", "rft30g", "--network", "l0_250p_q8", "--var", "delta_c", "--from=0",
      "--to=-2e-13", "--points", "3", "--out", "-"),
     "c_fix must be non-negative and finite, got -7.420000000000008e-15"),
    (("sweep", "rft30g", "--network", "l0_250p_q8", "--var", "delta_c", "--from=0",
      "--to=8p", "--points", "2", "--out", "-"),
     "no zero-phase crossing at any frequency (f_tank = 3534033248.3493347 Hz)"),
], ids=["no_crossing", "missing_network", "bad_second_offset", "sweep_two_offsets",
        "sweep_later_c_fix", "sweep_later_no_crossing"])
def test_a_refused_command_prints_nothing(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MEMSOSC_FIXTURE_DIR", raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {expected}\n")


class TestResonatorReport:
    def test_rft_ratio_near_unity(self, capsys):
        code, out, _ = run(capsys, "resonator", "rft30g")
        assert code == 0
        ratio = float(out.split("|X_C0| / R_m")[1].split(":")[1].split()[0])
        assert ratio == pytest.approx(1.0, abs=0.01)

    def test_quartz_ratio(self, capsys):
        code, out, _ = run(capsys, "resonator", "quartz45m")
        ratio = float(out.split("|X_C0| / R_m")[1].split(":")[1].split()[0])
        assert ratio == pytest.approx(72.0, rel=0.02)

    def test_defaults_header_printed(self, capsys):
        _, out, _ = run(capsys, "resonator", "rft30g")
        assert out.startswith("# defaults:")

    def test_sweep_csv(self, tmp_path, capsys):
        dest = tmp_path / "resp.csv"
        code, _, _ = run(capsys, "resonator", "rft30g", "--from", "29.9g",
                         "--to", "30.1g", "--points", "5", "--out", str(dest))
        assert code == 0
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == RESPONSE_CSV_HEADER
        assert len(lines) == 6

    def test_out_dash_prints_the_report_then_the_csv(self, tmp_path, capsys):
        # a path is written before the report prints; '-' keeps the report first
        window = ("--from=29.9g", "--to=30.1g", "--points", "5")
        dest = tmp_path / "resp.csv"
        _, report, _ = run(capsys, "resonator", "rft30g", *window, "--out", str(dest))
        code, out, err = run(capsys, "resonator", "rft30g", *window, "--out", "-")
        assert (code, out, err) == (0, report + dest.read_text(), "")

    def test_out_without_window_fails(self, capsys):
        code, _, err = run(capsys, "resonator", "rft30g", "--out", "-")
        assert code == 1

    @pytest.mark.parametrize("window, expected", [
        ("--from=29g --to=31g --points 1", "--points must lie between 2 and 1000000, got 1"),
        ("--from=29g --to=31g --points -5", "--points must lie between 2 and 1000000, got -5"),
        ("--from=31g --to=29g --points 5", "need 0 < f_start < f_stop"),
    ])
    def test_bad_sweep_refused_before_the_report(self, window, expected, capsys):
        code, out, err = run(capsys, "resonator", "rft30g", *window.split(), "--out", "-")
        assert (code, out, err) == (1, "", f"error: {expected}\n")

    # the upper bound is tested at a small patched value: a regression
    # must not start a real 10**6-point sweep
    def test_points_bound_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(bvd, "MAX_AC_POINTS", 3)
        code, out, _ = run(capsys, "resonator", "rft30g", "--from=29g", "--to=31g",
                           "--points", "3", "--out", "-")
        assert code == 0
        assert len(out.split(RESPONSE_CSV_HEADER + "\n")[1].splitlines()) == 3
        code, out, err = run(capsys, "resonator", "rft30g", "--from=29g", "--to=31g",
                             "--points", "4", "--out", "-")
        assert (code, out, err) == (1, "", "error: --points must lie between 2 and 3, "
                                           "got 4\n")


def test_library_sweep_bounds_its_points(monkeypatch):
    res = bvd.Resonator(r_m=50.0, l_m=1e-3, c_m=1e-15, c_0=1e-12)
    with pytest.raises(ValueError, match="need 2 to 1000000 points, got 1"):
        bvd.sweep(res, 1e6, 2e6, 1)
    monkeypatch.setattr(bvd, "MAX_AC_POINTS", 4)
    assert len(bvd.sweep(res, 1e6, 2e6, 4)) == 4
    with pytest.raises(ValueError, match="need 2 to 4 points, got 5"):
        bvd.sweep(res, 1e6, 2e6, 5)


def test_one_points_bound_for_sweeps_and_netlists():
    assert mna.MAX_AC_POINTS is bvd.MAX_AC_POINTS == 10**6


class TestCompensate:
    def test_zero_phase_value(self, capsys):
        code, out, _ = run(capsys, "compensate", "rft30g", "--f0", "30g")
        assert code == 0
        c0 = float(out.split("zero-phase C0 at 30gHz :")[1].split()[0])
        assert 1.4e-15 <= c0 <= 1.8e-15

    def test_builtin_network_analysis(self, capsys):
        code, out, _ = run(capsys, "compensate", "rft30g",
                           "--network", "l0_250p_q8")
        assert code == 0
        assert "dominant mode  : motional" in out
        q_l = float(out.split("Q_L (phase slope):")[1].split()[0])
        assert q_l > 4000.0


class TestNoiseAndSweep:
    def test_noise_report_numbers(self, capsys):
        code, out, _ = run(capsys, "noise", "rft30g",
                           "--network", "l0_250p_q8")
        assert code == 0
        assert "PN @ 1megHz" in out
        pn = float(out.split("PN @ 1megHz :")[1].split()[0])
        assert -155.0 < pn < -140.0

    def test_single_point_sweep_matches_noise(self, tmp_path, capsys):
        code, out_noise, _ = run(capsys, "noise", "rft30g",
                                 "--network", "l0_250p_q8")
        pn_noise = float(out_noise.split("PN @ 1megHz :")[1].split()[0])
        q_noise = float(out_noise.split("Q_L            :")[1].split()[0])

        dest = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "rft30g", "--network", "l0_250p_q8",
                         "--var", "delta_c", "--from=0", "--to=0",
                         "--points", "1", "--out", str(dest))
        assert code == 0
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "delta_c,q_l,beta,pn_dbchz,fom_dbchz"
        _, q_l, beta, pn, fom = (float(x) for x in lines[1].split(","))
        assert pn == pytest.approx(pn_noise, abs=1e-9)
        assert q_l == pytest.approx(q_noise, abs=1e-6)
        assert 0.0 < beta < 1.0

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_points_out_of_bounds_is_1(self, points, capsys):
        code, out, err = run(capsys, "sweep", "rft30g", "--var", "q_l0", "--from=2",
                             "--to=20", "--points", points, "--out", "-")
        assert (code, out) == (1, "")
        assert err == f"error: --points must lie between 1 and 1000000, got {points}\n"

    def test_points_bound_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(bvd, "MAX_AC_POINTS", 2)
        argv = ("sweep", "rft30g", "--var", "q_l0", "--from=2", "--to=20", "--out", "-")
        code, out, _ = run(capsys, *argv, "--points", "2")
        assert code == 0 and len(out.splitlines()) == 3
        code, out, err = run(capsys, *argv, "--points", "3")
        assert (code, out, err) == (1, "", "error: --points must lie between 1 and 2, "
                                           "got 3\n")

    @pytest.mark.parametrize("lo, hi, window", [
        ("-1f", "1f", "--from=-1f and --to=1f"),
        ("0", "3f", "--from=0 and --to=3f"),
        ("2f", "-2f", "--from=2f and --to=-2f"),
    ])
    def test_log_window_needs_positive_endpoints(self, lo, hi, window, capsys):
        # bvd.grid refuses the window, as typed, before a point is evaluated:
        # log10 has no value there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sweep", "rft30g", "--var", "delta_c",
                                 *window.split(" and "), "--points", "3", "--log",
                                 "--out", "-")
        assert (code, out) == (1, "")
        assert err == (f"error: a log grid of 3 points from {parse_eng(lo)!r} to "
                       f"{parse_eng(hi)!r} needs positive and finite endpoints\n")

    @pytest.mark.parametrize("var, lo, hi", [("q_rft", "5k", "20k"),
                                             ("delta_c", "-3f", "3f"),
                                             ("q_l0", "2", "20"),
                                             ("l_0", "249p", "251p")])
    def test_sweep_points_are_python_floats(self, var, lo, hi, monkeypatch, capsys):
        # every point of the one sweep route finds its operating point
        seen = []
        find = noise.find_operating_point

        def recording(res, comp):
            seen.extend(map(type, (res.l_m, res.c_m, comp.l_0, comp.q_l0, comp.c_fix)))
            return find(res, comp)

        monkeypatch.setattr(noise, "find_operating_point", recording)
        argv = ["sweep", "rft30g", "--network", "l0_250p_q8", "--var", var,
                f"--from={lo}", f"--to={hi}", "--points", "3", "--out", "-"]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        if var != "delta_c":            # a --log grid needs positive endpoints
            code, _, _ = run(capsys, *argv, "--log")
            assert code == 0
        assert set(seen) == {float}

    def test_sweep_delta_c_bathtub(self, tmp_path, capsys):
        dest = tmp_path / "bath.csv"
        code, _, _ = run(capsys, "sweep", "rft30g", "--network", "l0_250p_q8",
                         "--var", "delta_c", "--from=-3f", "--to=3f",
                         "--points", "7", "--out", str(dest))
        assert code == 0
        rows = [line.split(",") for line
                in dest.read_text().strip().split("\n")[1:]]
        assert len(rows) == 7
        assert all(float(r[3]) < -120.0 for r in rows)


def _figures(out: str) -> dict[str, str]:
    """Report label -> the repr that follows its colon."""
    return {label.strip(): value.split()[0] for label, value
            in (line.split(":", 1) for line in out.splitlines()
                if ":" in line and not line.startswith("#"))}


def test_sweep_rows_match_noise_and_compensate(capsys):
    """A one-point sweep row has the bits of the single-point reports."""
    rng = random.Random(1307)
    for k in range(320):
        fixture = ("rft30g", "quartz45m", "fbar2g4", "saw400m")[k % 4]
        q = repr(10.0 ** rng.uniform(0.3, 1.7))
        code, out, _ = run(capsys, "sweep", fixture, "--var", "q_l0", f"--from={q}",
                           f"--to={q}", "--points", "1", "--out", "-")
        assert code == 0
        header, row = out.splitlines()
        assert header == "q_l0,q_l,beta,pn_dbchz,fom_dbchz"
        _, q_l, beta, pn, fom = row.split(",")
        code, out, _ = run(capsys, "noise", fixture, "--q-l0", q, "--offset", "1meg")
        assert code == 0
        noise = _figures(out)
        assert (noise["Q_L"], noise["beta"], noise["PN @ 1megHz"],
                noise["FoM (physical)"]) == (q_l, beta, pn, fom), (fixture, q)
        code, out, _ = run(capsys, "compensate", fixture, "--q-l0", q)
        assert code == 0
        tank = _figures(out)
        assert (tank["Q_L (phase slope)"], tank["beta"]) == (q_l, beta), (fixture, q)


class TestDesignCommand:
    def test_text_report(self, tmp_path, capsys):
        p = tmp_path / "spec.txt"
        p.write_text(DESIGN_DOC)
        code, out, _ = run(capsys, "design", "--in", str(p))
        assert code == 0
        assert "predicted FoM" in out
        fom = float(out.split("predicted FoM  :")[1].split()[0])
        assert fom >= 210.0

    def test_doc_format_reparses(self, tmp_path, capsys):
        from memsosc.iodoc import parse_document

        p = tmp_path / "spec.txt"
        p.write_text(DESIGN_DOC)
        dest = tmp_path / "report.txt"
        code, _, _ = run(capsys, "design", "--in", str(p), "--format", "doc",
                         "--out", str(dest))
        assert code == 0
        doc = parse_document(dest.read_text())
        assert float(doc["fom_dbchz"]) >= 210.0
        assert float(doc["pn_dbchz"]) <= -125.0


@pytest.mark.parametrize("argv, message", [
    (("sweep", "rft30g", "--var", "q_l0", "--from=1.7976931348623155e308",
      "--to=1.7976931348623157e308", "--points", "5", "--log", "--out", "-"),
     "error: a grid of 5 points from 1.7976931348623155e+308 to "
     "1.7976931348623157e+308 overflows the float range\n"),
    (("sweep", "rft30g", "--var", "delta_c", "--from=-1.7e308", "--to=1.7e308",
      "--points", "3", "--out", "-"),
     "error: a grid of 3 points from -1.7e+308 to 1.7e+308 overflows the float range\n"),
    (("ac", "--in", "@top", "--out", "-"),
     "error: netlist errors:\n2:1: E_DIRECTIVE: a grid of 5 points from "
     "1.7976931348623155e+308 to 1.7976931348623157e+308 overflows the float range\n"),
    (("sweep", "@tiny", "--network", "l0_250p_q8", "--var", "q_rft", "--from=5k",
      "--to=20k", "--points", "3", "--out", "-"),
     "error: (2*pi*f_s)^2 overflows the float range for "
     "f_s = 1.5915582902074578e+159 Hz\n"),
], ids=["sweep_log", "sweep_linear", "ac_log", "sweep_q_rft"])
def test_grid_beyond_the_float_range_is_one_error_line(argv, message, tmp_path, capsys):
    # the power of the log grid, or the span of the linear one, overflows,
    # or (2*pi*f_s)^2 does before a q_rft sweep rescales l_m and c_m: one
    # error line and exit 1, no warning and no traceback
    inputs = {"@top": tmp_path / "top.cir", "@tiny": tmp_path / "tiny.dev"}
    inputs["@top"].write_text("R1 1 0 50\n.ac log 5 1.7976931348623155e308 "
                              "1.7976931348623157e308\n.probe 1 0\n")
    inputs["@tiny"].write_text("rm = 1\nlm = 1e-160\ncm = 1e-160\nc0 = 1e-150\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *(str(inputs.get(a, a)) for a in argv))
    assert (code, out, err) == (1, "", message)


class TestAcCommand:
    def test_csv_to_stdout(self, tmp_path, capsys):
        p = tmp_path / "r.cir"
        p.write_text("R1 1 0 332\n.ac lin 3 1g 3g\n.probe 1 0\n")
        code, out, _ = run(capsys, "ac", "--in", str(p), "--out", "-")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == RESPONSE_CSV_HEADER
        for line in lines[1:]:
            f, re, im, mag, ph = (float(x) for x in line.split(","))
            assert re == pytest.approx(332.0)
            assert ph == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ("resonator", "rft30g", "--from=29g", "--to=31g", "--points", "3"),
    ("sweep", "rft30g", "--var", "q_l0", "--from=2", "--to=20", "--points", "3"),
    ("ac", "--in", "@tank"),
    ("design", "--in", "@spec"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("dest, reason", [
    ("missing/x.csv", "[Errno 2] No such file or directory"),
    ("taken", "[Errno 21] Is a directory"),
], ids=["missing_directory", "directory"])
def test_unwritable_out_is_one_error_line_naming_the_path(argv, dest, reason, tmp_path,
                                                          capsys):
    # the rename onto a directory fails after the temp file is written;
    # neither failure names the temp file or leaves it behind
    inputs = {"@tank": tmp_path / "tank.cir", "@spec": tmp_path / "spec.txt"}
    inputs["@tank"].write_text("R1 1 0 332\n.ac lin 3 1g 3g\n.probe 1 0\n")
    inputs["@spec"].write_text(DESIGN_DOC)
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken" / "kept").write_text("")
    out_path = str(tmp_path / dest)
    code, out, err = run(capsys, *(str(inputs.get(a, a)) for a in argv), "--out", out_path)
    assert (code, out, err) == (1, "", f"error: {reason}: {out_path!r}\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept", "spec.txt", "taken",
                                                           "tank.cir"]


@pytest.mark.parametrize("mu_cox", ["1e-320", "5e-324"])
def test_design_with_a_tiny_mu_cox_is_one_error_line(mu_cox, tmp_path, capsys):
    # W/L = g_m^2/(2*i_bias*mu_cox) overflows at 1e-320; at 5e-324 the
    # denominator underflows to zero
    p = tmp_path / "spec.txt"
    p.write_text(DESIGN_DOC + f"mu_cox = {mu_cox}\n")
    code, out, err = run(capsys, "design", "--in", str(p))
    assert (code, out) == (1, "")
    assert err == (f"error: mu_cox = {mu_cox} puts W/L out of floating-point range "
                   f"for r_res = 176.53401864333495 ohm and v_osc = 0.3 V\n")


def test_dc_power_underflow_is_one_error_line(capsys):
    # supply*v_osc/r_res underflows to zero, where eta once divided by it
    code, out, err = run(capsys, "noise", "quartz45m", "--supply", "1e-240",
                         "--vosc", "1e-122")
    assert (code, out) == (1, "")
    assert err == ("error: supply = 1e-240 V puts the DC power or the efficiency "
                   "out of floating-point range\n")


# Seeded fuzz through `main`: every input drawn log-uniformly from 1e-310
# to 1e300 must end in exit code 0, 1 or 2, with an error line and nothing
# on stdout on failure, no escaped exception or RuntimeWarning, and no inf
# or nan in any figure.
FUZZ_SEED = 1
FUZZ_CASES = 3000
FUZZ_OP_OPTIONS = ("--q-l0", "--vosc", "--offset", "--gamma", "--temp", "--gmbias",
                   "--supply")
FUZZ_SPEC_KEYS = ("target_f0", "v_osc", "parasitic_c", "q_l0", "bank_unit", "bank_size",
                  "c_fix", "mu_cox", "gamma", "temperature", "supply", "pn_offset",
                  "l0_grid")
NON_FINITE = re.compile(r"(?<![\w.])[-+]?(inf|nan)\b", re.IGNORECASE)
ERROR_LINE = re.compile(r"^(memsosc \w+: )?(error|design failed): ", re.MULTILINE)


def _fuzz_value(rng) -> str:
    return repr(10.0 ** rng.uniform(-310.0, 300.0))


def _fuzz_argv(rng, tmp_path) -> list[str]:
    """One argv: a subcommand with one to three of its inputs drawn."""
    command = rng.choice(("noise", "compensate", "sweep", "resonator", "design"))
    if command == "design":
        keys = rng.sample(FUZZ_SPEC_KEYS, rng.randint(1, 3))
        spec = tmp_path / "spec.txt"
        spec.write_text(DESIGN_DOC + "".join(f"{k} = {_fuzz_value(rng)}\n" for k in keys))
        return ["design", "--in", str(spec)]
    argv = [command, rng.choice(sorted(BUILTIN_RESONATORS))]
    if command == "resonator":
        return argv + [f"--from={_fuzz_value(rng)}", f"--to={_fuzz_value(rng)}",
                       "--points", str(rng.randint(2, 4)),
                       "--out", str(tmp_path / "z.csv")] + ["--log"] * rng.randint(0, 1)
    if rng.random() < 0.5:
        argv += ["--network", rng.choice(sorted(BUILTIN_NETWORKS))]
    options = ("--q-l0", "--f0") if command == "compensate" else FUZZ_OP_OPTIONS
    for option in rng.sample(options, rng.randint(1, min(3, len(options)))):
        argv += [option, _fuzz_value(rng)]
    if command == "sweep":
        argv += ["--var", rng.choice(("q_rft", "delta_c", "q_l0", "l_0")),
                 f"--from={_fuzz_value(rng)}", f"--to={_fuzz_value(rng)}",
                 "--points", str(rng.randint(1, 3)), "--out", "-"]
    return argv


def test_seeded_fuzz_ends_in_an_exit_code_and_finite_figures(tmp_path, capsys):
    rng = random.Random(FUZZ_SEED)
    written = tmp_path / "z.csv"
    findings = []
    for _ in range(FUZZ_CASES):
        argv = _fuzz_argv(rng, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:  # an argparse usage error
                code = exc.code
            except Exception as exc:
                code = exc
        out, err = capsys.readouterr()
        printed = len(out.splitlines())
        if written.exists():
            out += written.read_text()
            written.unlink()
        if code not in (0, 1, 2):
            problem = f"ended in {code!r}"
        elif code and not ERROR_LINE.search(err):
            problem = f"exit {code} without an error line"
        elif code and printed:
            problem = f"exit {code} after printing {printed} lines"
        elif "math domain" in err or re.search(r"\bnan\b", err, re.IGNORECASE):
            problem = "the message shows a math error"
        elif NON_FINITE.search(out):
            problem = "a figure is not finite"
        else:
            continue
        if argv[0] == "design":  # the drawn keys follow the document
            argv = argv + [(tmp_path / "spec.txt").read_text()[len(DESIGN_DOC):]
                           .replace("\n", "; ")]
        findings.append(f"{' '.join(argv)}: {problem}\n    {err.strip()}")
    assert not findings, "\n".join(findings)


def test_resonator_csv_peak_memory_is_bounded():
    # the CSV's rows, its one joined text and the captured stdout: about
    # 2.9 times the text at 50,000 points (3.9 while the join was copied)
    main(["resonator", "rft30g", "--from=29g", "--to=31g", "--points", "2", "--out", "-"])
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["resonator", "rft30g", "--from=29g", "--to=31g",
                         "--points", "50000", "--out", "-"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.getvalue()
    assert code == 0 and text.count("\n") > 50000
    assert peak < 3.2 * len(text)
