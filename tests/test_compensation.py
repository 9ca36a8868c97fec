import math
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
    NoSolutionError,
    Resonator,
    analyze_tank,
    effective_resistance,
    find_lc_operating_point,
    find_motional_operating_point,
    find_operating_point,
    loaded_q,
    loaded_q_3db,
    motional_mode_capacitance_margin,
    phase,
    phase_slope_q,
    quality_factor,
    series_resonance,
    shunt_inductor_for,
    tank_impedance,
    tank_resonance,
    tune_bank,
    zero_phase_c0,
)
from memsosc.bvd import TWO_PI, motional_bandwidth
from memsosc.fixtures import BUILTIN_RESONATORS, get_resonator

from conftest import bare_c0_network, rescale_motional_q


def exactly_aligned_network(res, q_l0=8.0, l_0=250e-12):
    """c_fix chosen so the LC branch resonates exactly at f_s, no bank."""
    ws = TWO_PI * series_resonance(res)
    c_total = 1.0 / (ws * ws * l_0)
    return CompensationNetwork(l_0=l_0, q_l0=q_l0, f_ref=series_resonance(res),
                               c_fix=c_total - res.c_0)


class TestNetworkType:
    def test_r_l0(self):
        comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9)
        assert comp.r_l0 == pytest.approx(TWO_PI * 30e9 * 250e-12 / 8.0)

    def test_rejects_bad_code(self):
        with pytest.raises(ValueError):
            CompensationNetwork(l_0=1e-9, q_l0=10, f_ref=1e9,
                                bank_size=4, bank_code=5)

    @pytest.mark.parametrize("field", ["l_0", "q_l0", "f_ref", "c_fix", "bank_unit"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        values = dict(l_0=1e-9, q_l0=10.0, f_ref=1e9, c_fix=1e-15, bank_unit=1e-15)
        values[field] = value
        with pytest.raises(ValueError):
            CompensationNetwork(**values)

    @pytest.mark.parametrize("field", ["bank_size", "bank_code"])
    @pytest.mark.parametrize("value", [8.5, 4.0, True, "4"])
    def test_rejects_non_integral_bank(self, field, value):
        values = dict(l_0=1e-9, q_l0=10.0, f_ref=1e9, bank_size=8, bank_code=4)
        values[field] = value
        with pytest.raises(ValueError, match=field):
            CompensationNetwork(**values)

    def test_numpy_integers_accepted(self):
        comp = CompensationNetwork(l_0=1e-9, q_l0=10.0, f_ref=1e9,
                                   bank_size=np.int64(8), bank_code=np.int32(4))
        assert (comp.bank_size, comp.bank_code) == (8, 4)

    def test_branch_capacitance(self, rft, comp_q8):
        expected = rft.c_0 + comp_q8.c_fix + 4 * 1e-15
        assert comp_q8.branch_capacitance(rft) == pytest.approx(expected)
        assert comp_q8.branch_capacitance(rft, bank_code=0) == pytest.approx(
            rft.c_0 + comp_q8.c_fix)


class TestZeroPhaseC0:
    def test_rft_at_30g(self, rft):
        c0 = zero_phase_c0(rft, 30e9)
        assert 1.4e-15 <= c0 <= 1.8e-15

    def test_back_substitution(self, rft):
        c0 = zero_phase_c0(rft, 30e9)
        res = replace(rft, c_0=c0)
        assert abs(phase(res, 30e9)) < 1e-6

    @pytest.mark.parametrize("f", [math.nan, math.inf])
    def test_rejects_non_finite_frequency(self, rft, f):
        with pytest.raises(ValueError, match="positive and finite"):
            zero_phase_c0(rft, f)

    def test_below_series_resonance_fails(self, rft):
        with pytest.raises(NoSolutionError):
            zero_phase_c0(rft, series_resonance(rft))
        with pytest.raises(NoSolutionError):
            zero_phase_c0(rft, 29e9)


class TestShuntInductorFor:
    def test_bare_c0(self):
        assert shunt_inductor_for(16e-15, 30e9) == pytest.approx(1.759e-9, rel=1e-3)

    def test_with_parasitics(self):
        assert shunt_inductor_for(112.6e-15, 30e9) == pytest.approx(250e-12, rel=1e-3)

    def test_unit(self):
        c = 1.0 / (TWO_PI * 1.0) ** 2
        assert shunt_inductor_for(c, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shunt_inductor_for(0.0, 1e9)


class TestTankImpedance:
    def test_aligned_operating_point_reads_r_res(self, rft):
        comp = exactly_aligned_network(rft)
        f_op, z = find_motional_operating_point(rft, comp)
        # the Rm || q_l0^2*r_l0 reduction is the 1/q_l0^2-order
        # approximation of the exact crossing impedance
        assert abs(z) == pytest.approx(effective_resistance(rft, comp).r_res,
                                       rel=0.03)
        assert abs(f_op - series_resonance(rft)) < motional_bandwidth(rft)

    def test_lossless_trap(self, rft):
        fs = series_resonance(rft)
        comp = CompensationNetwork(l_0=shunt_inductor_for(rft.c_0, fs),
                                   q_l0=1e9, f_ref=fs)
        assert abs(tank_impedance(rft, comp, fs)) == pytest.approx(rft.r_m, rel=1e-6)

    def test_misaligned_splits_into_two_peaks(self, rft, comp_q8):
        mis = replace(comp_q8, l_0=comp_q8.l_0 / 1.21)  # f_tank +10%
        fs = series_resonance(rft)
        mags = np.abs(tank_impedance(rft, mis, np.linspace(0.8 * fs, 1.3 * fs, 4001)))
        interior = mags[1:-1]
        peaks = np.nonzero((interior > mags[:-2]) & (interior > mags[2:]))[0]
        assert len(peaks) == 2

    @pytest.mark.parametrize("f", [math.nan, math.inf])
    def test_rejects_non_finite_frequency(self, rft, comp_q8, f):
        with pytest.raises(ValueError, match="positive and finite"):
            tank_impedance(rft, comp_q8, f)
        with pytest.raises(ValueError, match="positive and finite"):
            tank_impedance(rft, comp_q8, [30e9, f])

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf, 0.0, -30e9])
    def test_float_path_keeps_boundary_checks(self, rft, comp_q8, f):
        # unchecked, a NaN f_0 would leave the phase-slope loop at once
        # with q = 0.0
        with pytest.raises(ValueError, match="positive and finite"):
            tank_impedance(rft, comp_q8, f)
        with pytest.raises(ValueError, match="positive and finite"):
            phase_slope_q(rft, comp_q8, f)
        with pytest.raises(ValueError, match="positive and finite"):
            phase_slope_q(rft, comp_q8, np.float64(f))

    @pytest.mark.parametrize("name", sorted(BUILTIN_RESONATORS))
    def test_float_path_equals_array_path_on_a_grid(self, name):
        # includes f_s itself, where the motional reactance is exactly zero
        res = get_resonator(name)
        fs = series_resonance(res)
        comp = bare_c0_network(res, q_l0=8.0)
        grid = np.concatenate((np.linspace(0.5 * fs, 1.5 * fs, 401),
                               fs + motional_bandwidth(res) * np.linspace(-4, 4, 401)))
        assert fs in grid
        z = tank_impedance(res, comp, grid)
        assert [tank_impedance(res, comp, float(f)) for f in grid] == z.tolist()


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(BUILTIN_RESONATORS)),
       q_l0=st.floats(min_value=2.0, max_value=50.0),
       shift=st.floats(min_value=-3.0, max_value=3.0),
       where=st.one_of(st.floats(min_value=-0.8, max_value=1.0).map(lambda r: ("rel", r)),
                       st.floats(min_value=-5.0, max_value=5.0).map(lambda k: ("bw", k))),
       numpy_fields=st.booleans())
def test_property_float_path_equals_array_path(name, q_l0, shift, where, numpy_fields):
    """One frequency as a Python float gives the bits of a one-entry array.

    numpy_fields holds q_l0 and l_0 as np.float64, as a sweep over
    np.linspace values sets them.
    """
    res = get_resonator(name)
    fs = series_resonance(res)
    c_fix = 2.0 * res.c_0
    l_0 = shunt_inductor_for(res.c_0 + c_fix, fs)
    if numpy_fields:
        q_l0, l_0 = np.float64(q_l0), np.float64(l_0)
    comp = CompensationNetwork(
        l_0=l_0, q_l0=q_l0, f_ref=fs,
        c_fix=max(c_fix + shift * motional_mode_capacitance_margin(res), 0.0))
    kind, v = where
    f = fs * (1.0 + v) if kind == "rel" else fs + v * motional_bandwidth(res)
    z = tank_impedance(res, comp, f)
    assert type(z) is complex
    assert z == tank_impedance(res, comp, np.array([f]))[0]


class TestEffectiveResistance:
    def test_worked_example(self, rft):
        # q_l0 = 10 with r_l0 = 4.8 ohm
        l_0 = 4.8 * 10.0 / (TWO_PI * 30e9)
        comp = CompensationNetwork(l_0=l_0, q_l0=10.0, f_ref=30e9)
        tank = effective_resistance(rft, comp)
        assert comp.r_l0 == pytest.approx(4.8, rel=1e-12)
        assert tank.r_res == pytest.approx(196.3, abs=0.1)
        assert tank.beta == pytest.approx(0.59, abs=0.01)

    def test_lossless_limit(self, rft):
        comp = CompensationNetwork(l_0=250e-12, q_l0=1e6, f_ref=30e9)
        tank = effective_resistance(rft, comp)
        assert tank.r_res == pytest.approx(rft.r_m, rel=1e-3)
        assert tank.beta == pytest.approx(1.0, abs=1e-3)

    def test_symmetric_divider(self, rft):
        # q_l0^2*r_l0 = r_m gives beta = 1/2
        q = 10.0
        l_0 = rft.r_m / (q * TWO_PI * 30e9)
        comp = CompensationNetwork(l_0=l_0, q_l0=q, f_ref=30e9)
        assert effective_resistance(rft, comp).beta == pytest.approx(0.5, rel=1e-12)

    def test_beta_bounds_and_monotone_in_q_l0(self, rft):
        last = 0.0
        for q in (2.0, 5.0, 10.0, 30.0, 100.0, 1000.0):
            comp = CompensationNetwork(l_0=250e-12, q_l0=q, f_ref=30e9)
            beta = effective_resistance(rft, comp).beta
            assert 0.0 < beta <= 1.0
            assert beta > last
            last = beta


class TestLoadedQ:
    def test_high_q_rft_aligned(self, rft):
        comp = bare_c0_network(rft, q_l0=10.0)
        q_l = loaded_q(rft, comp)
        assert q_l >= 0.8 * quality_factor(rft)
        assert q_l <= quality_factor(rft) * 1.05

    def test_low_q_rft_loaded(self, rft):
        res = rescale_motional_q(rft, 500.0)
        comp = bare_c0_network(res, q_l0=10.0)
        q_l = loaded_q(res, comp)
        assert q_l < 0.95 * quality_factor(res)

    def test_motional_removed_reads_tank_q(self, rft, comp_q10):
        dead = replace(rft, r_m=1e9)
        assert loaded_q(dead, comp_q10) == pytest.approx(comp_q10.q_l0, rel=0.05)

    def test_monotone_in_q_rft(self, rft):
        comp = bare_c0_network(rft, q_l0=10.0)
        values = [loaded_q(rescale_motional_q(rft, q), comp)
                  for q in (100, 300, 1e3, 2e3, 5e3, 1e4)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_mode_selection(self, rft, comp_q8):
        assert loaded_q(rft, comp_q8, mode="motional") > 1000
        assert loaded_q(rft, comp_q8, mode="lc_tank") < 1000
        with pytest.raises(ValueError):
            loaded_q(rft, comp_q8, mode="bogus")

    def test_motional_mode_gone_raises(self, rft, comp_q8):
        margin = motional_mode_capacitance_margin(rft)
        detuned = replace(comp_q8, c_fix=comp_q8.c_fix + 3.0 * margin)
        with pytest.raises(NoResonanceError):
            loaded_q(rft, detuned, mode="motional")

    def test_3db_agreement_lightly_loaded(self, rft, fbar):
        # the magnitude estimator converges to the phase-slope value as the
        # tank conductance loading vanishes
        for res, q_l0 in ((fbar, 15.0), (rft, 500.0)):
            comp = bare_c0_network(res, q_l0=q_l0)
            qp = loaded_q(res, comp)
            q3 = loaded_q_3db(res, comp)
            assert q3 == pytest.approx(qp, rel=0.05)

    def test_analyze_tank_reads_the_governing_point(self, rft, comp_q8):
        margin = motional_mode_capacitance_margin(rft)
        for comp in (comp_q8, replace(comp_q8, c_fix=comp_q8.c_fix + 3.0 * margin)):
            f_op, _, mode = find_operating_point(rft, comp)
            tank = analyze_tank(rft, comp)
            assert tank.dominant_mode == mode
            assert tank.q_loaded == phase_slope_q(rft, comp, f_op)
            assert tank.q_loaded == loaded_q(rft, comp)

    def test_3db_on_bare_tank(self, rft, comp_q10):
        dead = replace(rft, r_m=1e9)
        assert loaded_q_3db(dead, comp_q10) == pytest.approx(
            loaded_q(dead, comp_q10), rel=0.05)


class TestOperatingPoints:
    def test_motional_point_near_fs(self, rft, comp_q8):
        f_op, z = find_motional_operating_point(rft, comp_q8)
        fs = series_resonance(rft)
        assert abs(f_op - fs) < motional_bandwidth(rft)
        assert abs(np.angle(z)) < 1e-9

    def test_motional_point_vanishes(self, rft, comp_q8):
        margin = motional_mode_capacitance_margin(rft)
        detuned = replace(comp_q8, c_fix=comp_q8.c_fix + 3.0 * margin)
        assert find_motional_operating_point(rft, detuned) is None

    def test_margin_value(self, rft):
        # 1/(2*r_m*w_s) for the 332 ohm device is about 8 fF
        assert motional_mode_capacitance_margin(rft) == pytest.approx(
            8.0e-15, rel=0.01)

    def test_dominant_switches(self, rft, comp_q8):
        assert find_operating_point(rft, comp_q8)[2] == "motional"
        margin = motional_mode_capacitance_margin(rft)
        detuned = replace(comp_q8, c_fix=comp_q8.c_fix + 3.0 * margin)
        assert find_operating_point(rft, detuned)[2] == "lc_tank"

    def test_lc_point_tracks_tank(self, rft, comp_q8):
        big = replace(comp_q8, c_fix=comp_q8.c_fix + 40e-15)
        f_lc, _ = find_lc_operating_point(rft, big)
        assert f_lc == pytest.approx(tank_resonance(rft, big), rel=0.02)


class TestClassifyAlignment:
    def test_exact_alignment(self, rft):
        tank = analyze_tank(rft, exactly_aligned_network(rft))
        assert tank.aligned
        assert tank.dominant_mode == "motional"

    def test_large_mismatch_goes_lc(self, rft, comp_q8):
        margin = motional_mode_capacitance_margin(rft)
        detuned = replace(comp_q8, c_fix=comp_q8.c_fix + 3.0 * margin)
        tank = analyze_tank(rft, detuned)
        assert not tank.aligned
        assert tank.dominant_mode == "lc_tank"

    def test_f_tank_formula(self, rft, comp_q8):
        c = comp_q8.branch_capacitance(rft)
        expected = 1.0 / (TWO_PI * math.sqrt(comp_q8.l_0 * c))
        assert analyze_tank(rft, comp_q8).f_tank == pytest.approx(expected)

    def test_bank_step_sensitivity(self, rft, comp_q8):
        # 1 fF on ~113 fF moves f_tank by about f/2 * (1/113) ~ 133 MHz
        f0 = tank_resonance(rft, comp_q8, bank_code=4)
        f1 = tank_resonance(rft, comp_q8, bank_code=5)
        c = comp_q8.branch_capacitance(rft)
        expected = 0.5 * f0 * comp_q8.bank_unit / c
        assert f0 - f1 == pytest.approx(expected, rel=0.01)
        assert f0 - f1 == pytest.approx(133e6, rel=0.05)


class TestTuneBank:
    def test_constructed_code_12(self, rft):
        # invert the f_tank formula so code 12 aligns exactly
        ws = TWO_PI * series_resonance(rft)
        unit = 1e-15
        c_fix = 1.0 / (ws * ws * 250e-12) - rft.c_0 - 12 * unit
        comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9,
                                   c_fix=c_fix, bank_unit=unit, bank_size=16)
        assert tune_bank(rft, comp) == 12

    def test_zero_unit_ties_low(self, rft):
        comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9,
                                   c_fix=96.58e-15, bank_unit=0.0, bank_size=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AlignmentWarning)
            assert tune_bank(rft, comp) == 0

    def test_monotone_in_c_fix(self, rft, comp_q8):
        codes = []
        for extra in np.linspace(0.0, 8e-15, 9):
            comp = replace(comp_q8, c_fix=92e-15 + extra)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AlignmentWarning)
                codes.append(tune_bank(rft, comp))
        assert all(a >= b for a, b in zip(codes, codes[1:]))

    def test_global_minimum(self, rft, comp_q8):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AlignmentWarning)
            best = tune_bank(rft, comp_q8)
        fs = series_resonance(rft)
        offsets = [abs(tank_resonance(rft, comp_q8, c) - fs)
                   for c in range(comp_q8.bank_size + 1)]
        assert offsets[best] == min(offsets)

    def test_warns_when_coarse(self, rft):
        # tank parked far off with no useful range
        comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9,
                                   c_fix=140e-15, bank_unit=1e-15, bank_size=4)
        with pytest.warns(AlignmentWarning):
            tune_bank(rft, comp)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=2.0, max_value=200.0),
       st.floats(min_value=50e-12, max_value=2e-9))
def test_property_beta_in_unit_interval(q_l0, l_0):
    rft = Resonator(r_m=332.0, l_m=17.59e-6, c_m=1.60006e-18, c_0=16e-15)
    comp = CompensationNetwork(l_0=l_0, q_l0=q_l0, f_ref=30e9)
    tank = effective_resistance(rft, comp)
    assert 0.0 < tank.beta <= 1.0
    q2r = q_l0 * q_l0 * comp.r_l0
    assert tank.r_res <= min(rft.r_m, q2r) * (1.0 + 1e-9)
