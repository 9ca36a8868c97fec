"""Exact scale covariance: a free oracle for every float rewrite.

Scaling frequency by 2^m (every L and C by 2^-m) and impedance by 2^k
(every R and L by 2^k, every C by 2^-k) changes each float by a power of
two, and so, while nothing leaves the normal range, rounds every result
the same way.  The operating point, its impedance, the loaded Q, beta,
the mode, the window fraction, the bank code, every `run_design` field
and the MNA oracle's impedance then carry over bit for bit: frequencies
times 2^m, resistances and impedances times 2^k, dimensionless figures
unchanged.  Voltages scale by 2^(k/2), so k is even and the signal and
DC powers are unchanged.  A dB figure is a sum of logs of the scaled
factors, so the phase noise holds to PN_TOL_DB; the FoM takes its logs
from dimensionless factors and holds exactly.
"""

import math
import random
import re
from dataclasses import replace

import pytest

from memsosc import (
    CompensationNetwork,
    DesignError,
    DesignSpec,
    NoResonanceError,
    OscillatorOperatingPoint,
    Resonator,
    evaluate,
    find_operating_point,
    motional_mode_capacitance_margin,
    phase_slope_q,
    run_design,
    series_resonance,
    shunt_inductor_for,
    tune_bank,
    window_fraction,
)
from memsosc import compensation, mna
from memsosc.fixtures import BUILTIN_RESONATORS, get_resonator

from conftest import bare_c0_network

# (m, k): frequency by 2^m, impedance by 2^k
SCALES = [(-40, -30), (-3, 12), (24, 0), (60, 30)]

# |PN(scaled) - PN| in dB: the logs of the scaled factors round apart
# (measured up to 1e-13 dB on these tanks)
PN_TOL_DB = 1e-12


def scaled(value: float, power: int) -> float:
    return math.ldexp(value, power)


def scaled_resonator(res: Resonator, m: int, k: int) -> Resonator:
    return Resonator(r_m=scaled(res.r_m, k), l_m=scaled(res.l_m, k - m),
                     c_m=scaled(res.c_m, -k - m), c_0=scaled(res.c_0, -k - m))


def scaled_network(comp: CompensationNetwork, m: int, k: int) -> CompensationNetwork:
    return CompensationNetwork(
        l_0=scaled(comp.l_0, k - m), q_l0=comp.q_l0, f_ref=scaled(comp.f_ref, m),
        c_fix=scaled(comp.c_fix, -k - m), bank_unit=scaled(comp.bank_unit, -k - m),
        bank_size=comp.bank_size, bank_code=comp.bank_code)


def networks(res: Resonator):
    """Bare c_0 at q_l0 8 and 1e-3, and a bank network tuned and then
    detuned by three motional-mode margins.  The bank's mid code holds the
    lossy inductor's window centre, 1/(l_0*w_s^2*(1 + 1/q_l0^2))."""
    fs = series_resonance(res)
    margin = motional_mode_capacitance_margin(res)
    c_fix = 2.0 * res.c_0
    bank = CompensationNetwork(
        l_0=shunt_inductor_for((res.c_0 + c_fix + margin) * (1.0 + 1.0 / 64.0), fs),
        q_l0=8.0, f_ref=fs, c_fix=c_fix, bank_unit=0.25 * margin, bank_size=8)
    tuned = replace(bank, bank_code=tune_bank(res, bank))
    return [bare_c0_network(res, 8.0), bare_c0_network(res, 1e-3), tuned,
            replace(tuned, c_fix=c_fix + 3.0 * margin)]


def tank_netlist(res: Resonator, comp: CompensationNetwork) -> str:
    c_branch = comp.c_fix + comp.bank_code * comp.bank_unit
    lines = [f"Rm a m1 {res.r_m!r}", f"Lm m1 m2 {res.l_m!r}", f"Cm m2 0 {res.c_m!r}",
             f"C0 a 0 {res.c_0!r}", f"L0 a gl {comp.l_0!r}", f"Rl0 gl 0 {comp.r_l0!r}",
             ".probe a 0"]
    if c_branch > 0:
        lines.insert(4, f"Cb a 0 {c_branch!r}")
    return "\n".join(lines) + "\n"


# the detuned network's best code leaves it outside the window, and says so
@pytest.mark.filterwarnings("ignore::memsosc.compensation.AlignmentWarning")
@pytest.mark.parametrize("name", sorted(BUILTIN_RESONATORS))
def test_tank_figures_scale_exactly(name):
    res = get_resonator(name)
    checked = 0
    for comp in networks(res):
        try:
            f, z, mode = find_operating_point(res, comp)
        except NoResonanceError:
            for m, k in SCALES:
                with pytest.raises(NoResonanceError):
                    find_operating_point(scaled_resonator(res, m, k),
                                         scaled_network(comp, m, k))
            continue
        q_loaded = phase_slope_q(res, comp, f)
        window = window_fraction(res, comp)
        tank = compensation.effective_resistance(res, comp)
        bank = replace(comp, bank_code=0)
        code = tune_bank(res, bank) if comp.bank_size else None
        z_mna = mna.driving_point_impedance(mna.parse_netlist(tank_netlist(res, comp)), f)
        op = OscillatorOperatingPoint(v_osc=0.3, f_0=None, delta_f=1e-4 * f, supply=0.8)
        ev = evaluate(res, comp, op)
        for m, k in SCALES:
            res_s, comp_s = scaled_resonator(res, m, k), scaled_network(comp, m, k)
            f_s, z_s, mode_s = find_operating_point(res_s, comp_s)
            assert (f_s, mode_s) == (scaled(f, m), mode), (comp, m, k)
            assert z_s == complex(scaled(z.real, k), scaled(z.imag, k))
            assert phase_slope_q(res_s, comp_s, f_s) == q_loaded
            assert window_fraction(res_s, comp_s) == window
            assert compensation.effective_resistance(res_s, comp_s) == replace(
                tank, r_res=scaled(tank.r_res, k))
            if code is not None:
                assert tune_bank(res_s, scaled_network(bank, m, k)) == code
            z_mna_s = mna.driving_point_impedance(
                mna.parse_netlist(tank_netlist(res_s, comp_s)), f_s)
            assert z_mna_s == complex(scaled(z_mna.real, k), scaled(z_mna.imag, k))
            ev_s = evaluate(res_s, comp_s, OscillatorOperatingPoint(
                v_osc=scaled(0.3, k // 2), f_0=None, delta_f=scaled(op.delta_f, m),
                supply=scaled(0.8, k // 2)))
            assert ev_s.f_osc == scaled(ev.f_osc, m)
            assert (ev_s.q_loaded, ev_s.tank.beta, ev_s.budget, ev_s.p_dc, ev_s.eta,
                    ev_s.fom) == (ev.q_loaded, ev.tank.beta, ev.budget, ev.p_dc, ev.eta,
                                  ev.fom)
            assert abs(ev_s.pn - ev.pn) <= PN_TOL_DB
            checked += 1
    assert checked >= 8


def design_specs(res: Resonator, rng: random.Random, count: int):
    """Seeded specs on the design_space benchmark's ranges."""
    fs = series_resonance(res)
    for _ in range(count):
        parasitic = res.c_0 * 0.5 * 16.0 ** rng.random()
        c_base = res.c_0 + parasitic + 10e-15
        grid_frac = 10.0 ** (-1.0 - 3.0 * rng.random())
        bank_size = rng.choice([0, 1, 8, 64, 4096])
        yield DesignSpec(
            resonator=res, target_f0=fs * rng.uniform(0.99, 1.01),
            v_osc_target=rng.uniform(0.1, 0.5), parasitic_c=parasitic,
            q_l0_available=2.0 * 10.0 ** rng.random(),
            bank_unit=c_base * grid_frac * rng.uniform(0.3, 4.0) / max(bank_size, 1),
            bank_size=bank_size, supply=rng.uniform(0.6, 1.2),
            gamma=rng.uniform(0.67, 2.0), pn_offset=1e4 * 100.0 ** rng.random(),
            l0_grid_step=grid_frac / ((2.0 * math.pi * fs) ** 2 * c_base))


def scaled_spec(spec: DesignSpec, m: int, k: int) -> DesignSpec:
    # W/L = g_m^2/(2*i_bias*mu_cox) scales by 2^(-3k/2)/mu_cox
    return replace(
        spec, resonator=scaled_resonator(spec.resonator, m, k),
        target_f0=scaled(spec.target_f0, m), v_osc_target=scaled(spec.v_osc_target, k // 2),
        parasitic_c=scaled(spec.parasitic_c, -k - m), bank_unit=scaled(spec.bank_unit, -k - m),
        c_fix=scaled(spec.c_fix, -k - m), mu_cox=scaled(spec.mu_cox, -3 * k // 2),
        supply=scaled(spec.supply, k // 2), pn_offset=scaled(spec.pn_offset, m),
        l0_grid_step=scaled(spec.l0_grid_step, k - m))


# DesignReport fields by their power of 2^m and 2^k; None marks the
# phase noise, which holds to PN_TOL_DB
REPORT_SCALE = {
    "l_0": (-1, 1), "r_l0": (0, 1), "c_fix": (-1, -1), "f_s": (1, 0),
    "f_tank": (1, 0), "f_osc": (1, 0), "r_res": (0, 1), "g_m": (0, -1),
    "i_bias": (0, -1 / 2), "pn_offset": (1, 0), "predicted_pn": None,
}


@pytest.mark.parametrize("name", sorted(BUILTIN_RESONATORS))
def test_run_design_scales_exactly(name):
    res = get_resonator(name)
    rng = random.Random(name)
    designs = 0
    for spec in design_specs(res, rng, 6):
        try:
            report = run_design(spec)
        except DesignError as exc:
            for m, k in SCALES:
                with pytest.raises(DesignError) as info:
                    run_design(scaled_spec(spec, m, k))
                assert type(info.value) is type(exc)
            continue
        designs += 1
        for m, k in SCALES:
            report_s = run_design(scaled_spec(spec, m, k))
            for field, value in vars(report).items():
                got = getattr(report_s, field)
                rule = REPORT_SCALE.get(field, (0, 0))
                if rule is None:
                    assert abs(got - value) <= PN_TOL_DB, (field, m, k)
                elif field == "warnings":
                    assert len(got) == len(value)
                elif isinstance(value, float):
                    power = rule[0] * m + rule[1] * k
                    assert got == scaled(value, int(power)), (field, m, k)
                else:
                    assert got == value, (field, m, k)
    assert designs >= 3


@pytest.mark.parametrize("m, k, message", [
    (-600, 0, "l_m*c_m must stay within the float range"),
    (0, 600, "tank values overflow the zero-phase polynomial"),
])
def test_scaling_out_of_the_float_range_is_a_named_refusal(m, k, message):
    # every scaled field is a normal float, but l_m*c_m, or the impedance
    # squared in the susceptance cubic, leaves the float range
    res = get_resonator("rft30g")
    comp = bare_c0_network(res, 8.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        res_s = scaled_resonator(res, m, k)
        evaluate(res_s, scaled_network(comp, m, k),
                 OscillatorOperatingPoint(v_osc=0.3, f_0=None, delta_f=1e6))
