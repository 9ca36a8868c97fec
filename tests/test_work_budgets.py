"""Exact work budgets: how often one request calls the tank's reductions.

Wall time on a shared machine moves by 10-20% between identical runs;
these counts do not, so a change that adds work fails here on any
machine.  A budget is tightened by the change that earns it and is never
loosened.
"""

import sys
from collections import Counter

import pytest

from memsosc import DesignSpec, compensation, run_design, sensitivity_sweep
from memsosc.cli import main
from memsosc.noise import OscillatorOperatingPoint

COUNTED = ("find_operating_point", "effective_resistance", "tank_resonance",
           "window_fraction")
# the admittance kernel beneath every operating point and loaded Q
KERNEL = ("_tank_admittance", "_admittance_and_slope")


@pytest.fixture
def calls(monkeypatch):
    """Counter of calls to COUNTED and KERNEL, wherever a memsosc module
    binds them, and of CompensationNetwork ("networks") and
    OscillatorOperatingPoint ("operating_points") builds."""
    counts = Counter()
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "memsosc" or n.startswith("memsosc."))]
    for record, key in ((compensation.CompensationNetwork, "networks"),
                        (OscillatorOperatingPoint, "operating_points")):
        def counted_build(self, _build=record.__post_init__, _key=key):
            counts[_key] += 1
            _build(self)

        monkeypatch.setattr(record, "__post_init__", counted_build)
    for name in COUNTED + KERNEL:
        original = getattr(compensation, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_run_design_reduces_the_tank_once(rft, calls):
    # acceptance criterion 6's spec
    run_design(DesignSpec(resonator=rft, target_f0=30e9, v_osc_target=0.3,
                          parasitic_c=86.58e-15, q_l0_available=8.0,
                          bank_unit=1e-15, bank_size=8, c_fix=10e-15))
    assert (calls["effective_resistance"], calls["tank_resonance"]) == (1, 1)
    assert calls["window_fraction"] <= 8
    # one operating point (two sign tests and one Newton step) and one loaded Q
    assert [calls[name] for name in KERNEL] == [3, 2]
    assert calls["networks"] == 4


@pytest.mark.parametrize("network", [[], ["--network", "l0_250p_q8"]])
def test_cli_noise_reduces_the_tank_once(network, calls, capsys):
    assert main(["noise", "rft30g", *network]) == 0
    assert [calls[name] for name in COUNTED] == [1, 1, 0, 0]


def test_each_sweep_point_is_one_operating_point_and_one_reduction(rft, comp_q8, calls):
    # the last delta leaves only the LC-branch point; a shift of c_fix
    # leaves r_res alone, so the first point's reduction serves them all
    deltas = [-6e-15, 0.0, 6e-15, 3.0 * compensation.motional_mode_capacitance_margin(rft)]
    op = OscillatorOperatingPoint(v_osc=0.3, f_0=30e9, delta_f=1e6)
    assert len(sensitivity_sweep(rft, comp_q8, op, deltas)) == 4
    assert [calls[name] for name in COUNTED] == [4, 1, 0, 0]
    assert [calls[name] for name in KERNEL] == [12, 8]


@pytest.mark.parametrize("var, window", [("delta_c", ["--from=-3f", "--to=3f"]),
                                         ("q_l0", ["--from=4", "--to=16", "--log"])])
def test_each_cli_sweep_row_is_one_operating_point_and_one_reduction(var, window, calls,
                                                                     capsys):
    assert main(["sweep", "rft30g", "--network", "l0_250p_q8", "--var", var, *window,
                 "--points", "5", "--out", "-"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    # a shift of c_fix leaves r_res alone: one reduction serves a delta_c sweep
    reductions = 1 if var == "delta_c" else 5
    assert [calls[name] for name in COUNTED] == [5, reductions, 0, 0]


@pytest.mark.parametrize("var, window", [("delta_c", ["--from=-3f", "--to=3f"]),
                                         ("q_l0", ["--from=4", "--to=16", "--log"])])
def test_cli_sweep_builds_one_operating_point(var, window, calls, capsys):
    # the options give one operating point without a carrier; each row's
    # carrier is its governing crossing, which evaluate finds
    assert main(["sweep", "rft30g", "--network", "l0_250p_q8", "--var", var, *window,
                 "--points", "5", "--out", "-"]) == 0
    assert calls["operating_points"] == 1
