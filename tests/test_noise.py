import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsosc import (
    AlignmentWarning,
    CompensationNetwork,
    NoResonanceError,
    OscillatorOperatingPoint,
    effective_resistance,
    evaluate,
    find_operating_point,
    fom_from_measurement,
    fom_max,
    fom_physical,
    leeson_phase_noise,
    motional_mode_capacitance_margin,
    parameter_sweep,
    phase_slope_q,
    quality_factor,
    sensitivity_sweep,
    series_resonance,
    shunt_inductor_for,
    tune_bank,
    window_fraction,
)
from memsosc.noise import BOLTZMANN, SWEEP_VARIABLES, noise_factor_from

from conftest import bare_c0_network, rescale_motional_q


def base_op(**overrides):
    kw = dict(v_osc=0.3, f_0=30e9, delta_f=1e6, temperature=300.0, gamma=1.0)
    kw.update(overrides)
    return OscillatorOperatingPoint(**kw)


class TestOperatingPointType:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            base_op(v_osc=0.0)
        with pytest.raises(ValueError):
            base_op(temperature=-1.0)

    def test_rejects_offset_above_carrier(self):
        with pytest.raises(ValueError):
            base_op(delta_f=31e9)

    def test_offset_refusal_names_both_values(self):
        with pytest.raises(ValueError, match=r"offset 31000000000\.0 Hz must be below "
                                             r"the carrier 30000000000\.0 Hz"):
            base_op(delta_f=31e9)

    def test_gamma_zero_allowed(self):
        assert base_op(gamma=0.0).gamma == 0.0

    @pytest.mark.parametrize("field", ["v_osc", "f_0", "delta_f", "temperature", "gamma",
                                       "g_mbias", "supply"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            base_op(**{field: value})


    @pytest.mark.parametrize("supply", [0.0, -1e-3])
    def test_rejects_nonpositive_supply(self, supply):
        with pytest.raises(ValueError, match="supply"):
            base_op(supply=supply)


class TestLeeson:
    def test_theoretical_floor(self, rft):
        pn = leeson_phase_noise(rft, 1e4, base_op(), noise_factor=1.0)
        assert pn == pytest.approx(-158.62, abs=0.05)

    def test_offset_slope(self, rft):
        pn1 = leeson_phase_noise(rft, 1e4, base_op(delta_f=1e6))
        pn2 = leeson_phase_noise(rft, 1e4, base_op(delta_f=2e6))
        assert pn2 - pn1 == pytest.approx(-20.0 * math.log10(2.0), abs=1e-9)

    def test_noise_factor_additivity(self, rft):
        pn1 = leeson_phase_noise(rft, 1e4, base_op(), noise_factor=1.0)
        pn2 = leeson_phase_noise(rft, 1e4, base_op(), noise_factor=2.0)
        assert pn2 - pn1 == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)

    def test_q_slope(self, rft):
        pn1 = leeson_phase_noise(rft, 1e3, base_op())
        pn2 = leeson_phase_noise(rft, 1e4, base_op())
        assert pn2 - pn1 == pytest.approx(-20.0, abs=1e-9)

    def test_rejects_bad_q(self, rft):
        with pytest.raises(ValueError):
            leeson_phase_noise(rft, 0.0, base_op())

    def test_default_noise_factor_is_one(self, rft):
        pn = leeson_phase_noise(rft, 1e4, base_op())
        assert pn == leeson_phase_noise(rft, 1e4, base_op(), noise_factor=1.0)
        assert pn == pytest.approx(-158.62, abs=0.05)

    def test_refuses_an_operating_point_without_a_carrier(self, rft):
        with pytest.raises(ValueError, match=r"^the Leeson prediction needs a carrier: "
                                             r"op\.f_0 is None$"):
            leeson_phase_noise(rft, 1e4, base_op(f_0=None))

    @pytest.mark.parametrize("v_osc", [1e-310, 1e200])
    def test_signal_amplitude_in_db_algebra(self, rft, v_osc):
        # v_osc^2 under- or overflows, its log does not
        pn = leeson_phase_noise(rft, 1e4, base_op(v_osc=v_osc))
        want = (leeson_phase_noise(rft, 1e4, base_op())
                - 20.0 * (math.log10(v_osc) - math.log10(0.3)))
        assert pn == pytest.approx(want, rel=1e-13)

    def test_rejects_infinite_noise_factor(self, rft):
        with pytest.raises(ValueError, match="noise_factor must be positive and finite, "
                                             "got inf"):
            leeson_phase_noise(rft, 1e4, base_op(), noise_factor=math.inf)


class TestNoiseFactor:
    def test_worked_example(self):
        b = noise_factor_from(beta=0.6, r_l0=4.8, r_m=332.0,
                              gamma=1.0, g_mbias=0.01)
        assert b.f_rl0 == pytest.approx(0.014458, abs=1e-5)
        assert b.f_active == pytest.approx(1.1312, abs=1e-4)
        assert b.f_min == pytest.approx(2.1456, abs=1e-4)
        assert b.f_min == b.f_unity + b.f_rl0 + b.f_active

    def test_noiseless_floor(self):
        b = noise_factor_from(beta=0.6, r_l0=0.0, r_m=332.0,
                              gamma=0.0, g_mbias=0.01)
        assert b.f_min == 1.0

    def test_no_tail_term(self):
        b = noise_factor_from(beta=0.6, r_l0=4.8, r_m=332.0,
                              gamma=1.0, g_mbias=0.0)
        assert b.f_min == pytest.approx(1.0 + 4.8 / 332.0 + 0.6, rel=1e-12)

    def test_components_defaults_gmbias(self, rft, comp_q8):
        tank = effective_resistance(rft, comp_q8)
        b = evaluate(rft, comp_q8, base_op()).budget
        expected = noise_factor_from(tank.beta, comp_q8.r_l0, rft.r_m,
                                     1.0, 2.0 / tank.r_res)
        assert b.f_min == pytest.approx(expected.f_min, rel=1e-12)

    def test_overflow_names_gamma_and_gmbias(self):
        with pytest.raises(ValueError, match=r"the noise factor is not finite for "
                                             r"gamma = 1e\+300 and g_mbias = 1e\+300 S"):
            noise_factor_from(0.6, 4.8, 332.0, 1e300, 1e300)

    def test_strictly_increasing_components(self):
        ref = noise_factor_from(0.5, 4.0, 332.0, 1.0, 0.01).f_min
        assert noise_factor_from(0.6, 4.0, 332.0, 1.0, 0.01).f_min > ref
        assert noise_factor_from(0.5, 5.0, 332.0, 1.0, 0.01).f_min > ref
        assert noise_factor_from(0.5, 4.0, 332.0, 1.2, 0.01).f_min > ref
        assert noise_factor_from(0.5, 4.0, 332.0, 1.0, 0.02).f_min > ref


class TestFomForms:
    def test_from_measurement_table(self):
        assert fom_from_measurement(-132.0, 30e9, 1e6, 2e-3) == pytest.approx(
            218.5, abs=0.05)

    def test_definitional_zero_point(self):
        assert fom_from_measurement(-176.8, 1e6, 1e6, 1e-3) == pytest.approx(176.8)

    def test_power_slope(self):
        lo = fom_from_measurement(-132.0, 30e9, 1e6, 2e-3)
        hi = fom_from_measurement(-132.0, 30e9, 1e6, 4e-3)
        assert lo - hi == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)

    def test_physical_constant(self):
        v = fom_physical(1.0, 1.0, 1.0, 1.0, 300.0)
        assert v == pytest.approx(10.0 * math.log10(2e-3 / (BOLTZMANN * 300.0)),
                                  abs=1e-12)
        assert v == pytest.approx(176.8, abs=0.05)

    def test_physical_matches_max_at_unity(self):
        assert fom_physical(123.0, 0.7, 1.0, 1.0) == pytest.approx(
            fom_max(123.0, 0.7), abs=0.05)

    def test_eta_slope(self):
        hi = fom_physical(1e4, 0.6, 0.2, 2.0)
        lo = fom_physical(1e4, 0.6, 0.1, 2.0)
        assert hi - lo == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)

    def test_fom_max_values(self):
        assert fom_max(1e4, 0.6) == pytest.approx(254.6, abs=0.1)
        assert fom_max(1.0, 1.0) == pytest.approx(176.8)
        assert fom_max(20.0, 1.0) == pytest.approx(202.8, abs=0.05)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            fom_physical(1e4, 0.6, 1.5, 2.0)

    def test_physical_in_db_algebra(self):
        # Q_L^2 overflows and eta * beta underflows as a product; their logs
        # do not
        got = fom_physical(1e200, 1e-200, 1e-200, 1.0)
        assert got == pytest.approx(fom_physical(1.0, 1.0, 1.0, 1.0), rel=1e-13)

    def test_from_measurement_in_db_algebra(self):
        # f_0/delta_f overflows as a ratio
        got = fom_from_measurement(-132.0, 1e300, 1e-100, 1e300)
        assert got == pytest.approx(132.0 + 20.0 * 400.0 - 10.0 * 303.0, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e6),
       st.floats(min_value=1e-3, max_value=1.0))
def test_property_physical_equals_max_at_unity(q_l, beta):
    assert fom_physical(q_l, beta, 1.0, 1.0) == pytest.approx(
        fom_max(q_l, beta), abs=0.05)


class TestDbIdentities:
    def test_eq9_eq10_consistency(self, rft, comp_q8):
        # self-consistent inputs: PN from Leeson, P_DC back-derived from the
        # tank swing and efficiency; the two FoM forms must coincide
        tank = effective_resistance(rft, comp_q8)
        q_l = 5188.0
        eta = 0.25
        op = base_op()
        budget = evaluate(rft, comp_q8, op).budget
        pn = leeson_phase_noise(rft, q_l, op, budget.f_min)
        p_out = op.v_osc ** 2 / (2.0 * tank.r_res)
        p_dc = p_out / eta
        via_measurement = fom_from_measurement(pn, op.f_0, op.delta_f, p_dc)
        via_physics = fom_physical(q_l, tank.beta, eta, budget.f_min,
                                   op.temperature)
        assert via_measurement == pytest.approx(via_physics, abs=0.01)


class TestEvaluate:
    def test_record_is_the_chain(self, rft, comp_q8):
        f_op, _, _ = find_operating_point(rft, comp_q8)
        op = base_op(f_0=f_op)
        ev = evaluate(rft, comp_q8, op)
        assert ev.op == op
        assert ev.tank == effective_resistance(rft, comp_q8)
        assert ev.q_loaded == phase_slope_q(rft, comp_q8, f_op)
        assert ev.budget == noise_factor_from(ev.tank.beta, comp_q8.r_l0, rft.r_m,
                                              op.gamma, 2.0 / ev.tank.r_res)
        assert ev.pn == leeson_phase_noise(rft, ev.q_loaded, op, ev.budget.f_min)
        assert ev.eta is None and ev.fom is None

    def test_p_dc_gives_eta_and_fom(self, rft, comp_q8):
        f_op, _, _ = find_operating_point(rft, comp_q8)
        ev = evaluate(rft, comp_q8, base_op(f_0=f_op, supply=0.8))
        assert ev.p_dc == 2.0 * 0.8 * (0.3 / ev.tank.r_res)
        assert ev.eta == pytest.approx(0.3 ** 2 / (2.0 * ev.tank.r_res) / ev.p_dc, rel=1e-15)
        assert ev.fom == fom_physical(ev.q_loaded, ev.tank.beta, ev.eta,
                                      ev.budget.f_min, 300.0)
        with pytest.raises(AttributeError):
            ev.pn = 0.0

    def test_signal_power_out_of_range_names_v_osc(self, rft, comp_q8):
        f_op, _, _ = find_operating_point(rft, comp_q8)
        for v_osc in (1e-310, 1e200):
            with pytest.raises(ValueError, match=re.escape(f"v_osc = {v_osc!r} V puts "
                                                           f"the signal power")):
                evaluate(rft, comp_q8, base_op(f_0=f_op, v_osc=v_osc, supply=0.8))

    def test_subnormal_r_res_names_q_l0(self, rft, comp_q8):
        # r_res = 1.005e-310 ohm, where v_osc/r_res would overflow though
        # the signal power v_osc^2/(2*r_res) does not
        comp = replace(comp_q8, f_ref=8e-303)
        with pytest.raises(ValueError, match=r"^r_res = r_m \|\| q_l0\^2\*r_l0 is out of "
                                             r"floating-point range for q_l0 = 8\.0"):
            evaluate(replace(rft, r_m=1e10), comp,
                     base_op(v_osc=0.1, g_mbias=1e-3, supply=0.8))

    def test_no_supply_no_power(self, rft, comp_q8):
        ev = evaluate(rft, comp_q8, base_op())
        assert (ev.p_dc, ev.eta, ev.fom) == (None, None, None)

    def test_r_res_out_of_range_names_q_l0(self, quartz):
        comp = bare_c0_network(quartz, q_l0=1e300)
        with pytest.raises(ValueError, match=r"r_res = r_m \|\| q_l0\^2\*r_l0 is out of "
                                             r"floating-point range for q_l0 = 1e\+300"):
            effective_resistance(quartz, comp)

    def test_sensitivity_rows_are_evaluations(self, rft, comp_q8, quartz, fbar, saw):
        # rft's last delta leaves only the LC-branch point; the other
        # fixtures' tanks, c_fix = c_0 resonated at f_s, start with one, so
        # later points reuse a reduction made at an LC-governed first point
        cases = [(rft, comp_q8, [-6e-15, 0.0, 6e-15, 3.0 * motional_mode_capacitance_margin(rft)],
                  ["motional"] * 3 + ["lc_tank"])]
        for res in (quartz, fbar, saw):
            fs = series_resonance(res)
            comp = CompensationNetwork(l_0=shunt_inductor_for(2.0 * res.c_0, fs), q_l0=8.0,
                                       f_ref=fs, c_fix=res.c_0)
            margin = motional_mode_capacitance_margin(res)
            centre = -window_fraction(res, comp) * margin
            cases.append((res, comp, [centre + 3.0 * margin, centre, centre + 0.5 * margin],
                          ["lc_tank"] + ["motional"] * 2))
        for op in (base_op(), base_op(g_mbias=3e-3), base_op(supply=0.8)):
            for res, comp, deltas, want in cases:
                rows = sensitivity_sweep(res, comp, op, deltas)
                modes = []
                for (dc, pn), delta in zip(rows, deltas):
                    shifted = replace(comp, c_fix=comp.c_fix + delta)
                    f_op, _, mode = find_operating_point(res, shifted)
                    modes.append(mode)
                    assert (dc, pn) == (delta, evaluate(res, shifted, replace(op, f_0=f_op)).pn)
                assert modes == want, res.label

    @pytest.mark.parametrize("var", SWEEP_VARIABLES)
    def test_parameter_sweep_rows_are_evaluations(self, var, rft, comp_q8, quartz):
        # each row has the bits of evaluate at its point's crossing, the
        # later delta_c rows' reused reduction and FoM included; the last
        # delta_c value leaves only the LC-branch point
        fs = series_resonance(quartz)
        tanks = [(rft, comp_q8),
                 (quartz, CompensationNetwork(l_0=shunt_inductor_for(2.0 * quartz.c_0, fs),
                                              q_l0=8.0, f_ref=fs, c_fix=quartz.c_0))]
        for op in (base_op(supply=0.8), base_op(supply=None, gamma=1.5)):
            for res, comp in tanks:
                margin = motional_mode_capacitance_margin(res)
                centre = -window_fraction(res, comp) * margin
                q = quality_factor(res)
                values = {"delta_c": [centre, centre + 0.25 * margin, centre + 0.5 * margin,
                                      centre + 3.0 * margin],
                          "q_l0": [2.0, 8.0, 20.0],
                          "l_0": [comp.l_0 * 0.999, comp.l_0, comp.l_0 * 1.001],
                          "q_rft": [0.5 * q, q, 2.0 * q]}[var]
                rows = parameter_sweep(res, comp, op, var, values)
                assert [row[0] for row in rows] == values
                for v, *figures in rows:
                    res_v, comp_v = res, comp
                    if var == "q_rft":
                        res_v = rescale_motional_q(res, v)
                    elif var == "delta_c":
                        comp_v = replace(comp, c_fix=comp.c_fix + v)
                    else:
                        comp_v = replace(comp, **{var: v})
                    f_op, _, _ = find_operating_point(res_v, comp_v)
                    ev = evaluate(res_v, comp_v, replace(op, f_0=f_op))
                    assert figures == [ev.q_loaded, ev.tank.beta, ev.pn, ev.fom], (res.label, v)
                    assert (ev.fom is None) == (op.supply is None)

    def test_parameter_sweep_refuses_an_unknown_variable(self, rft, comp_q8):
        with pytest.raises(ValueError, match="^unknown sweep variable 'c_0'; choose from "
                                             "q_rft, delta_c, q_l0, l_0$"):
            parameter_sweep(rft, comp_q8, base_op(), "c_0", [1e-15])

    def test_sweep_refuses_a_first_point_without_crossing_before_the_supply(self, quartz):
        # the tank of test_no_crossing_at_any_frequency, with a supply that
        # puts P_DC out of range: the operating point is refused first
        fs = series_resonance(quartz)
        comp = CompensationNetwork(
            l_0=shunt_inductor_for(1.5 * quartz.c_0, fs), q_l0=2.0, f_ref=fs,
            c_fix=0.5 * quartz.c_0 + 3.0 * motional_mode_capacitance_margin(quartz))
        with pytest.raises(NoResonanceError, match="^no zero-phase crossing at any frequency"):
            sensitivity_sweep(quartz, comp, base_op(supply=1e308), [0.0, -comp.c_fix])

    def test_sweep_refuses_an_out_of_range_supply_as_evaluate_does(self, rft, comp_q8):
        op = base_op(supply=1e308)
        f_op, _, _ = find_operating_point(rft, comp_q8)
        with pytest.raises(ValueError) as first:
            evaluate(rft, comp_q8, replace(op, f_0=f_op))
        assert "supply = 1e+308 V" in str(first.value)
        with pytest.raises(ValueError) as swept:
            sensitivity_sweep(rft, comp_q8, op, [0.0, 1e-15])
        assert str(swept.value) == str(first.value)

    def test_sweep_rows_bit_for_bit_at_the_mode_edge(self, rft, comp_q8):
        # the last delta at which the motional mode still governs, found by
        # bisection, between one well inside it and one beyond it
        margin = motional_mode_capacitance_margin(rft)

        def mode(delta):
            return find_operating_point(rft, replace(comp_q8, c_fix=comp_q8.c_fix + delta))[2]

        inside, beyond = 0.0, 3.0 * margin
        for _ in range(60):
            mid = 0.5 * (inside + beyond)
            if mode(mid) == "motional":
                inside = mid
            else:
                beyond = mid
        deltas = [0.0, inside, 3.0 * margin]
        assert [mode(d) for d in deltas] == ["motional", "motional", "lc_tank"]
        op = base_op(supply=0.8)
        for dc, pn in sensitivity_sweep(rft, comp_q8, op, deltas):
            shifted = replace(comp_q8, c_fix=comp_q8.c_fix + dc)
            f_op, _, _ = find_operating_point(rft, shifted)
            assert pn == evaluate(rft, shifted, replace(op, f_0=f_op)).pn

    def test_sweep_keeps_the_network_validation(self, rft, comp_q8):
        with pytest.raises(ValueError, match=re.escape(
                f"c_fix must be non-negative and finite, got {-comp_q8.c_fix!r}")):
            sensitivity_sweep(rft, comp_q8, base_op(), [0.0, -2.0 * comp_q8.c_fix])


class TestSensitivity:
    # The lossy inductor's true susceptance null, the window centre that
    # tune_bank targets, sits c_branch/q_l0^2 (~1.8 fF for the 250 pH /
    # Q=8 tank) below the lossless LC-formula alignment of the fixture's
    # code 4; the bathtub minimum carries the same small skew.
    def test_minimum_near_alignment(self, rft, comp_q8):
        grid = np.linspace(-6e-15, 6e-15, 25)
        rows = sensitivity_sweep(rft, comp_q8, base_op(), grid)
        pns = [pn for _, pn in rows]
        best = int(np.argmin(pns))
        skew = comp_q8.branch_capacitance(rft) / comp_q8.q_l0 ** 2
        assert abs(rows[best][0]) <= skew + 0.25e-15

    def test_window_below_minus_120(self, rft, comp_q8):
        grid = np.linspace(-3e-15, 3e-15, 13)
        rows = sensitivity_sweep(rft, comp_q8, base_op(), grid)
        assert all(pn < -120.0 for _, pn in rows)

    def test_first_order_symmetry(self, rft, comp_q8):
        for delta in (0.5e-15, 1e-15):
            rows = sensitivity_sweep(rft, comp_q8, base_op(), [-delta, delta])
            assert abs(rows[0][1] - rows[1][1]) < 1.0

    def test_tune_bank_lands_near_optimum(self, rft, comp_q8):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AlignmentWarning)
            code = tune_bank(rft, comp_q8)
        # brute force: predicted phase noise per code; the tuned code must
        # be within the loss-bias skew (< 2 units here) of the best one
        pns = []
        for c in range(comp_q8.bank_size + 1):
            rows = sensitivity_sweep(rft, replace(comp_q8, bank_code=c),
                                     base_op(), [0.0])
            pns.append(rows[0][1])
        assert abs(int(np.argmin(pns)) - code) <= 2

    def test_degrades_monotonically_outward(self, rft, comp_q8):
        # both walls of the bathtub, clear of the skewed floor
        rows = sensitivity_sweep(rft, comp_q8, base_op(),
                                 np.linspace(0.0, 6e-15, 7))
        pns = [pn for _, pn in rows]
        assert all(a <= b + 0.01 for a, b in zip(pns, pns[1:]))
        rows = sensitivity_sweep(rft, comp_q8, base_op(),
                                 np.linspace(-7e-15, -2e-15, 6))
        pns = [pn for _, pn in rows]
        assert all(a >= b - 0.01 for a, b in zip(pns, pns[1:]))

    def test_sweep_refuses_a_crossing_below_the_offset(self, rft):
        # the default network at q_l0 = 4 with 200 fF more governs at 3.23 GHz
        comp = bare_c0_network(rft, q_l0=4.0)
        f_op, _, mode = find_operating_point(rft, replace(comp, c_fix=200e-15))
        assert mode == "lc_tank" and f_op < 5e9
        with pytest.raises(NoResonanceError) as info:
            sensitivity_sweep(rft, comp, base_op(delta_f=5e9), [0.0, 200e-15])
        assert f"{f_op!r} Hz" in str(info.value)
        assert "5000000000.0 Hz offset" in str(info.value)
