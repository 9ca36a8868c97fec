"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line on the terminal (outside
pytest capture), then asserts.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from memsosc import (
    CompensationNetwork,
    DesignSpec,
    Netlist,
    OscillatorOperatingPoint,
    Resonator,
    driving_point_impedance,
    effective_resistance,
    evaluate,
    find_operating_point,
    fom_from_measurement,
    fom_max,
    fom_physical,
    format_netlist,
    impedance,
    leeson_phase_noise,
    lint_netlist,
    parse_netlist,
    phase,
    phase_slope_q,
    quality_factor,
    run_design,
    sensitivity_sweep,
    series_resonance,
    tank_impedance,
    zero_phase_c0,
)
from memsosc.fixtures import (
    PUBLISHED_FREQUENCY,
    PUBLISHED_Q,
    get_resonator,
)
from memsosc.mna import (
    E_ARITY,
    Element,
    E_DANGLING,
    E_DIRECTIVE,
    E_DUP_NAME,
    E_KIND,
    E_NO_GROUND,
    E_NONPOSITIVE,
    E_NOT_CONNECTED,
    E_VALUE,
)

from conftest import NETLIST_DIR, bare_c0_network, rescale_motional_q


@pytest.fixture
def verdict(capfd):
    """One pass/fail line per criterion on the real terminal."""
    def emit(num: int, name: str, ok: bool) -> None:
        line = f"acceptance {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


RFT = get_resonator("rft30g")
COMP_Q8 = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9,
                              c_fix=92.58e-15, bank_unit=1e-15,
                              bank_size=8, bank_code=4)
OP = OscillatorOperatingPoint(v_osc=0.3, f_0=30e9, delta_f=1e6,
                              temperature=300.0, gamma=1.0)


def test_01_device_table_regression(verdict):
    start = time.perf_counter()
    ok = True
    for name in ("quartz45m", "fbar2g4", "rft30g", "saw400m"):
        res = get_resonator(name)
        q_tol = 0.10 if name == "saw400m" else 0.02
        ok &= (abs(series_resonance(res) / PUBLISHED_FREQUENCY[name] - 1.0)
               < 0.03)
        ok &= abs(quality_factor(res) / PUBLISHED_Q[name] - 1.0) < q_tol
    ok &= (time.perf_counter() - start) < 1.0
    verdict(1, "device table regression", ok)


def test_02_zero_phase_condition(verdict):
    c0 = zero_phase_c0(RFT, 30e9)
    ok = 1.4e-15 <= c0 <= 1.8e-15
    residual = replace(RFT, c_0=c0)
    ok &= abs(phase(residual, 30e9)) < 1e-6
    verdict(2, "zero-phase static capacitance", ok)


def test_03_phase_noise_floor(verdict):
    pn = leeson_phase_noise(RFT, 1e4, OP, noise_factor=1.0)
    verdict(3, "theoretical phase-noise floor", abs(pn - (-159.0)) <= 1.0)


def test_04_tank_resistance_division(verdict):
    q_l0, r_l0 = 10.0, 4.8
    comp = CompensationNetwork(l_0=r_l0 * q_l0 / (2.0 * math.pi * 30e9),
                               q_l0=q_l0, f_ref=30e9)
    tank = effective_resistance(RFT, comp)
    ok = abs(tank.r_res - 196.3) <= 0.1 and abs(tank.beta - 0.59) <= 0.01
    verdict(4, "effective tank resistance and beta", ok)


def test_05_fom_ceiling(verdict):
    verdict(5, "figure-of-merit ceiling", abs(fom_max(1e4, 0.6) - 254.6) <= 0.1)


def test_06_end_to_end_design(verdict):
    spec = DesignSpec(resonator=RFT, target_f0=30e9, v_osc_target=0.3,
                      parasitic_c=86.58e-15, q_l0_available=8.0,
                      bank_unit=1e-15, bank_size=8, c_fix=10e-15)
    report = run_design(spec)
    ok = abs(report.l_0 - 250e-12) <= 25e-12
    ok &= report.predicted_pn <= -125.0
    ok &= report.predicted_fom >= 210.0
    ok &= report.p_dc_estimate <= 3e-3
    verdict(6, "end-to-end reference design", ok)


def _bvd_netlist(res: Resonator) -> Netlist:
    elements = (
        Element("R", "Rm", "in", "m1", res.r_m),
        Element("L", "Lm", "m1", "m2", res.l_m),
        Element("C", "Cm", "m2", "0", res.c_m),
        Element("C", "C0", "in", "0", res.c_0),
    )
    return Netlist(elements, None, ("in", "0"))


def _tank_netlist(res: Resonator, comp: CompensationNetwork) -> Netlist:
    # branch_capacitance already folds in c_0, so Cb replaces the bare C0
    elements = (
        Element("R", "Rm", "in", "m1", res.r_m),
        Element("L", "Lm", "m1", "m2", res.l_m),
        Element("C", "Cm", "m2", "0", res.c_m),
        Element("R", "Rl0", "in", "t1", comp.r_l0),
        Element("L", "L0", "t1", "0", comp.l_0),
        Element("C", "Cb", "in", "0", comp.branch_capacitance(res)),
    )
    return Netlist(elements, None, ("in", "0"))


def test_07_oracle_equivalence(verdict):
    rng = np.random.default_rng(20260823)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(5000):
        c_0 = float(10 ** rng.uniform(-15, -11))
        res = Resonator(r_m=float(rng.uniform(1.0, 1e3)),
                        l_m=float(10 ** rng.uniform(-9, -3)),
                        c_m=c_0 * float(10 ** rng.uniform(-4, -0.5)),
                        c_0=c_0)
        f = float(series_resonance(res) * rng.uniform(0.5, 1.5))
        z_ref = impedance(res, f)
        z_mna = driving_point_impedance(_bvd_netlist(res), f)
        worst = max(worst, abs(z_mna - z_ref) / abs(z_ref))
    for _ in range(5000):
        c_0 = float(10 ** rng.uniform(-15, -11))
        res = Resonator(r_m=float(rng.uniform(1.0, 1e3)),
                        l_m=float(10 ** rng.uniform(-9, -3)),
                        c_m=c_0 * float(10 ** rng.uniform(-4, -0.5)),
                        c_0=c_0)
        fs = series_resonance(res)
        comp = CompensationNetwork(
            l_0=float(10 ** rng.uniform(-12, -8)),
            q_l0=float(rng.uniform(2.0, 50.0)), f_ref=fs,
            c_fix=float(10 ** rng.uniform(-16, -13)))
        f = float(fs * rng.uniform(0.5, 1.5))
        z_ref = tank_impedance(res, comp, f)
        z_mna = driving_point_impedance(_tank_netlist(res, comp), f)
        worst = max(worst, abs(z_mna - z_ref) / abs(z_ref))
    elapsed = time.perf_counter() - start
    verdict(7, "analytic vs nodal-analysis oracle",
            worst < 1e-9 and elapsed < 10.0)


def test_08_loaded_q_tracks_resonator_q(verdict):
    ok = True
    for q_l0 in (10.0, 20.0):
        q_ls = []
        for q_rft in (500.0, 1000.0, 2000.0, 5000.0, 10000.0, 20000.0):
            res = rescale_motional_q(RFT, q_rft)
            comp = bare_c0_network(res, q_l0)
            f_op, _, mode = find_operating_point(res, comp)
            ok &= mode == "motional"
            q_l = phase_slope_q(res, comp, f_op)
            q_ls.append(q_l)
            if q_rft >= 2000.0:
                ok &= q_l / q_rft >= 0.8
        ok &= all(a <= b + 1e-6 for a, b in zip(q_ls, q_ls[1:]))
    verdict(8, "loaded Q vs resonator Q sweep", ok)


def test_09_alignment_sensitivity(verdict):
    grid = np.linspace(-6e-15, 6e-15, 25)
    rows = sensitivity_sweep(RFT, COMP_Q8, OP, grid)
    pns = [pn for _, pn in rows]
    best = int(np.argmin(pns))
    # the lossy inductor's susceptance null sits c_branch/q_l0^2 below the
    # lossless alignment point; the floor carries the same small skew
    skew = COMP_Q8.branch_capacitance(RFT) / COMP_Q8.q_l0 ** 2
    ok = abs(rows[best][0]) <= skew + 0.25e-15
    window = [pn for dc, pn in rows if abs(dc) <= 3e-15]
    ok &= len(window) >= 7 and all(pn < -120.0 for pn in window)
    verdict(9, "capacitance misalignment sensitivity", ok)


def test_10_netlist_parser_suite(verdict):
    good = sorted(NETLIST_DIR.glob("good_*.cir"))
    bad = sorted(NETLIST_DIR.glob("bad_*.cir"))
    ok = len(good) + len(bad) >= 10
    for path in good:
        ok &= lint_netlist(path.read_text()) == []
    seen = set()
    for path in bad:
        diags = lint_netlist(path.read_text())
        ok &= len(diags) > 0
        seen |= {d.code for d in diags}
    ok &= seen == {E_KIND, E_VALUE, E_NONPOSITIVE, E_ARITY, E_DUP_NAME,
                   E_DIRECTIVE, E_DANGLING, E_NO_GROUND, E_NOT_CONNECTED}

    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(1, 8)
        elements = []
        prev = "0"
        for i in range(n):
            kind = rng.choice("RLC")
            node = str(rng.randint(1, 6))
            value = rng.uniform(1e-15, 1e6)
            elements.append(Element(kind, f"{kind}{i}", prev, node, value))
            prev = node
        elements.append(Element("R", "Rterm", prev, "0", 50.0))
        nl = Netlist(tuple(elements), None, (elements[0].node_b, "0"))
        ok &= parse_netlist(format_netlist(nl)) == nl
    verdict(10, "netlist parser golden suite", ok)


def test_11_db_identities(verdict):
    pn1 = leeson_phase_noise(RFT, 1e4, OP)
    pn10 = leeson_phase_noise(RFT, 1e4, replace(OP, delta_f=1e7))
    ok = abs((pn10 - pn1) - (-20.0)) < 1e-9

    f1 = leeson_phase_noise(RFT, 1e4, OP, noise_factor=1.0)
    f2 = leeson_phase_noise(RFT, 1e4, OP, noise_factor=2.0)
    ok &= abs((f2 - f1) - 10.0 * math.log10(2.0)) < 1e-9

    tank = effective_resistance(RFT, COMP_Q8)
    budget = evaluate(RFT, COMP_Q8, OP).budget
    q_l, eta = 5188.0, 0.25
    pn = leeson_phase_noise(RFT, q_l, OP, budget.f_min)
    p_dc = OP.v_osc ** 2 / (2.0 * tank.r_res) / eta
    via_meas = fom_from_measurement(pn, OP.f_0, OP.delta_f, p_dc)
    via_phys = fom_physical(q_l, tank.beta, eta, budget.f_min, OP.temperature)
    ok &= abs(via_meas - via_phys) <= 0.01
    verdict(11, "decibel identity suite", ok)
