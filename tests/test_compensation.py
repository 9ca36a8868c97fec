import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsosc import (
    AlignmentWarning,
    CompensationNetwork,
    NoResonanceError,
    NoSolutionError,
    OscillatorOperatingPoint,
    Resonator,
    effective_resistance,
    evaluate,
    find_operating_point,
    impedance,
    motional_mode_capacitance_margin,
    phase,
    phase_slope_q,
    quality_factor,
    series_resonance,
    shunt_inductor_for,
    tank_impedance,
    tank_resonance,
    tune_bank,
    window_fraction,
    zero_phase_c0,
)
from memsosc.bvd import TWO_PI, motional_bandwidth
from memsosc.cli import main
from memsosc.fixtures import BUILTIN_RESONATORS, get_resonator

from conftest import bare_c0_network, rescale_motional_q
from slope_reference import loaded_q_3db


def governing_q(res, comp):
    """Phase-slope Q at the governing operating point."""
    f_op, _, _ = find_operating_point(res, comp)
    return phase_slope_q(res, comp, f_op)


def exactly_aligned_network(res, q_l0=8.0, l_0=250e-12):
    """c_fix chosen so the LC branch resonates exactly at f_s, no bank."""
    ws = TWO_PI * series_resonance(res)
    c_total = 1.0 / (ws * ws * l_0)
    return CompensationNetwork(l_0=l_0, q_l0=q_l0, f_ref=series_resonance(res),
                               c_fix=c_total - res.c_0)


def centre_capacitance(res, comp):
    """Branch capacitance cancelling the lossy inductor's susceptance at
    w_s: l_0/|r_l0 + j*w_s*l_0|^2, the centre of the high-Q window."""
    ws = TWO_PI * series_resonance(res)
    return comp.l_0 / (comp.r_l0 ** 2 + (ws * comp.l_0) ** 2)


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

    def test_rejects_r_l0_beyond_the_float_range(self):
        with pytest.raises(ValueError, match=r"^l_0 = 1e\+299 H puts r_l0 = "):
            CompensationNetwork(l_0=1e299, q_l0=8.0, f_ref=30e9)

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

    def test_value_beyond_the_float_range_fails(self, rft):
        # the detuning overflows, where c_m*d/(a^2 + d^2) once gave nan
        with pytest.raises(NoSolutionError, match=r"^no solution in floating-point "
                           r"range at f = 1e\+200 Hz$"):
            zero_phase_c0(rft, 1e200)

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
        # the refusal names the argument, infinite ones included
        for args, name in [((0.0, 1e9), "c_total"),
                           ((-1e-15, 30e9), "c_total"),
                           ((math.inf, 30e9), "c_total"),
                           ((1e-15, math.inf), "f_0")]:
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                shunt_inductor_for(*args)


class TestTankImpedance:
    def test_aligned_operating_point_reads_r_res(self, rft):
        comp = exactly_aligned_network(rft)
        f_op, z, mode = find_operating_point(rft, comp)
        assert mode == "motional"
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
        # the closed-form slope's own finiteness check would miss these:
        # a negative f_0 gives a negative Q and f_0 = 0 divides by zero
        with pytest.raises(ValueError, match="positive and finite"):
            tank_impedance(rft, comp_q8, f)
        with pytest.raises(ValueError, match="positive and finite"):
            phase_slope_q(rft, comp_q8, f)
        with pytest.raises(ValueError, match="positive and finite"):
            phase_slope_q(rft, comp_q8, np.float64(f))

    @pytest.mark.parametrize("f", [1e-306, 1e-310])
    def test_lowest_frequencies_raise_value_error(self, rft, comp_q8, f):
        # w*c_m underflows: at 1e-310 Hz the motional reactance divided by
        # zero, at 1e-306 Hz it overflowed and both impedances came back NaN
        calls = (lambda: impedance(rft, f), lambda: tank_impedance(rft, comp_q8, f),
                 lambda: phase_slope_q(rft, comp_q8, f))
        for call in calls:
            with pytest.raises(ValueError, match=f"f(_0)? = {f!r} Hz"):
                call()

    @pytest.mark.parametrize("f", [1e-306, 1e-310])
    def test_arrays_name_their_first_unresolvable_frequency(self, rft, comp_q8, f):
        # the array path raises what one frequency raises, and warns nothing
        grid = np.array([3e10, f, 1e-320])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (impedance, lambda r, g: tank_impedance(r, comp_q8, g)):
                with pytest.raises(ValueError, match=f"^impedance is not finite at f = {f!r} Hz$"):
                    call(rft, grid)
                assert np.isfinite(call(rft, grid[:1])).all()

    def test_huge_inductor_is_a_value_error(self, rft):
        # squaring w*l_0 overflows: a ValueError, not OverflowError
        comp = CompensationNetwork(l_0=1e200, q_l0=8.0, f_ref=30e9)
        with pytest.raises(ValueError, match="overflow the zero-phase polynomial"):
            find_operating_point(rft, comp)

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
    np.linspace values sets them.  The network stores them as Python
    floats, so the operating point, its Q and the evaluation have the bits
    and types of the Python-float network's.
    """
    res = get_resonator(name)
    fs = series_resonance(res)
    c_fix = 2.0 * res.c_0
    l_0 = shunt_inductor_for(res.c_0 + c_fix, fs)
    c_fix = max(c_fix + shift * motional_mode_capacitance_margin(res), 0.0)
    twin = CompensationNetwork(l_0=l_0, q_l0=q_l0, f_ref=fs, c_fix=c_fix)
    if numpy_fields:
        q_l0, l_0 = np.float64(q_l0), np.float64(l_0)
    comp = CompensationNetwork(l_0=l_0, q_l0=q_l0, f_ref=fs, c_fix=c_fix)
    kind, v = where
    f = fs * (1.0 + v) if kind == "rel" else fs + v * motional_bandwidth(res)
    z = tank_impedance(res, comp, f)
    assert type(z) is complex
    assert z == tank_impedance(res, comp, np.array([f]))[0]

    outcomes = []
    for network in (comp, twin):
        try:
            f_op, z_op, mode = find_operating_point(res, network)
        except NoResonanceError as exc:
            outcomes.append(str(exc))
            continue
        op = OscillatorOperatingPoint(v_osc=0.3, f_0=f_op, delta_f=1e-3 * f_op, supply=1.0)
        outcomes.append(typed((astuple(network), f_op, z_op, mode,
                               phase_slope_q(res, network, f_op),
                               astuple(evaluate(res, network, op)))))
    assert outcomes[0] == outcomes[1]


def typed(values):
    """(type, repr) of every entry of a nested tuple: equal lists mean the
    same bits and the same Python types."""
    if isinstance(values, tuple):
        return [entry for v in values for entry in typed(v)]
    return [(type(values), repr(values))]


@pytest.mark.parametrize("make", [
    lambda: Resonator(r_m="1", l_m=17.59e-6, c_m=1.60006e-18, c_0=16e-15),
    lambda: Resonator(r_m=332.0, l_m=None, c_m=1.60006e-18, c_0=16e-15),
    lambda: CompensationNetwork(l_0=None, q_l0=8.0, f_ref=30e9),
    lambda: CompensationNetwork(l_0=250e-12, q_l0="8", f_ref=30e9),
    lambda: CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9, c_fix="1f"),
    lambda: CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9, bank_size=np.float64(8)),
    lambda: OscillatorOperatingPoint(v_osc="0.3", f_0=30e9, delta_f=1e6),
])
def test_only_real_numbers_become_floats(make):
    # the fields are converted to Python numbers, but a string is not a
    # number and a float is not a bank count
    with pytest.raises((TypeError, ValueError)):
        make()


def test_empty_frequency_array_gives_an_empty_complex_array(rft, comp_q8):
    for z in (tank_impedance(rft, comp_q8, np.array([])), impedance(rft, np.array([]))):
        assert z.dtype == complex and z.shape == (0,)


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
        q_l = governing_q(rft, comp)
        assert q_l >= 0.8 * quality_factor(rft)
        assert q_l <= quality_factor(rft) * 1.05

    def test_low_q_rft_loaded(self, rft):
        res = rescale_motional_q(rft, 500.0)
        comp = bare_c0_network(res, q_l0=10.0)
        q_l = governing_q(res, comp)
        assert q_l < 0.95 * quality_factor(res)

    def test_motional_removed_reads_tank_q(self, rft, comp_q10):
        dead = replace(rft, r_m=1e9)
        assert governing_q(dead, comp_q10) == pytest.approx(comp_q10.q_l0, rel=0.05)

    def test_monotone_in_q_rft(self, rft):
        comp = bare_c0_network(rft, q_l0=10.0)
        values = [governing_q(rescale_motional_q(rft, q), comp)
                  for q in (100, 300, 1e3, 2e3, 5e3, 1e4)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_mode_selection(self, rft, comp_q8):
        margin = motional_mode_capacitance_margin(rft)
        detuned = replace(comp_q8, c_fix=comp_q8.c_fix + 3.0 * margin)
        for comp, mode, high in ((comp_q8, "motional", True), (detuned, "lc_tank", False)):
            f_op, _, got = find_operating_point(rft, comp)
            assert got == mode
            assert (phase_slope_q(rft, comp, f_op) > 1000) == high

    def test_3db_agreement_lightly_loaded(self, rft, fbar):
        # the magnitude estimator converges to the phase-slope value as the
        # tank conductance loading vanishes
        for res, q_l0 in ((fbar, 15.0), (rft, 500.0)):
            comp = bare_c0_network(res, q_l0=q_l0)
            qp = governing_q(res, comp)
            q3 = loaded_q_3db(res, comp)
            assert q3 == pytest.approx(qp, rel=0.05)

    def test_compensate_report_reads_the_governing_point(self, rft, comp_q8, tmp_path,
                                                          capsys):
        margin = motional_mode_capacitance_margin(rft)
        for comp in (comp_q8, replace(comp_q8, c_fix=comp_q8.c_fix + 3.0 * margin)):
            f_op, _, mode = find_operating_point(rft, comp)
            path = tmp_path / "net.txt"
            path.write_text(f"l0 = {comp.l_0!r}\nq_l0 = {comp.q_l0!r}\nf_ref = {comp.f_ref!r}\n"
                            f"c_fix = {comp.c_fix!r}\nbank_unit = {comp.bank_unit!r}\n"
                            f"bank_size = {comp.bank_size}\nbank_code = {comp.bank_code}\n")
            assert main(["compensate", "rft30g", "--network", str(path)]) == 0
            report = capsys.readouterr().out
            assert f"dominant mode  : {mode}\n" in report
            assert f"Q_L (phase slope): {phase_slope_q(rft, comp, f_op)!r}\n" in report

    def test_3db_on_bare_tank(self, rft, comp_q10):
        dead = replace(rft, r_m=1e9)
        assert loaded_q_3db(dead, comp_q10) == pytest.approx(
            governing_q(dead, comp_q10), rel=0.05)


class TestOperatingPoints:
    def test_motional_point_near_fs(self, rft, comp_q8):
        f_op, z, mode = find_operating_point(rft, comp_q8)
        fs = series_resonance(rft)
        assert mode == "motional"
        assert abs(f_op - fs) < motional_bandwidth(rft)
        assert abs(np.angle(z)) < 1e-9

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
        f_lc, _, mode = find_operating_point(rft, big)
        assert mode == "lc_tank"
        assert f_lc == pytest.approx(tank_resonance(rft, big), rel=0.02)


    def test_root_beyond_the_float_range_is_refused(self, rft):
        # the tank resonates ~1e62 times above f_s, past the float range of
        # x = (f/f_s)^2 - 1, where the root scaling once raised OverflowError
        comp = CompensationNetwork(l_0=9e-126, q_l0=5.654489772323347e-176,
                                   f_ref=series_resonance(rft))
        with pytest.raises(ValueError, match=r"^a zero-phase root leaves the float range "
                           r"for l_0 = 9e-126 H and C = 1\.6e-14 F$"):
            find_operating_point(rft, comp)

    def test_root_within_an_ulp_of_zero_frequency_keeps_its_bracket_above_zero(self, rft):
        # x of the lowest root lies an ulp above -1, where the lower bracket
        # edge once rounded to 0 Hz and the admittance divided by zero
        comp = CompensationNetwork(l_0=shunt_inductor_for(rft.c_0, series_resonance(rft)),
                                   q_l0=2.871174266426883e218, f_ref=series_resonance(rft),
                                   c_fix=3.5164311460057775e119)
        with pytest.raises(NoResonanceError, match="no zero-phase crossing at any frequency"):
            find_operating_point(rft, comp)


class TestClassifyAlignment:
    def test_exact_alignment(self, rft):
        # the lossless resonance at f_s carries c/(1 + q_l0^2) more than the
        # lossy window centre: 0.22 of the half-window here, still inside
        comp = exactly_aligned_network(rft)
        c = comp.branch_capacitance(rft)
        window = window_fraction(rft, comp)
        expected = c / (1.0 + 8.0 ** 2) / motional_mode_capacitance_margin(rft)
        assert window == pytest.approx(expected, rel=1e-9)
        assert 0.2 < window < 0.25
        assert find_operating_point(rft, comp)[2] == "motional"

    def test_large_mismatch_goes_lc(self, rft, comp_q8):
        margin = motional_mode_capacitance_margin(rft)
        detuned = replace(comp_q8, c_fix=comp_q8.c_fix + 3.0 * margin)
        window = window_fraction(rft, detuned)
        assert window == pytest.approx(window_fraction(rft, comp_q8) + 3.0)
        assert window > 1.0
        assert find_operating_point(rft, detuned)[2] == "lc_tank"

    def test_f_tank_formula(self, rft, comp_q8):
        c = comp_q8.branch_capacitance(rft)
        expected = 1.0 / (TWO_PI * math.sqrt(comp_q8.l_0 * c))
        assert tank_resonance(rft, comp_q8) == pytest.approx(expected)

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
        # code 12 puts the branch at the lossy window centre
        unit = 1e-15
        comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9,
                                   bank_unit=unit, bank_size=16)
        comp = replace(comp, c_fix=centre_capacitance(rft, comp) - rft.c_0 - 12 * unit)
        assert tune_bank(rft, comp) == 12
        assert abs(window_fraction(rft, comp, 12)) < 1e-9

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
        fractions = [abs(window_fraction(rft, comp_q8, c))
                     for c in range(comp_q8.bank_size + 1)]
        assert fractions[best] == min(fractions)
        # the reference network: code 2, not the lossless resonance's code 4
        assert best == 2

    def test_warns_when_coarse(self, rft):
        # tank parked far off with no useful range
        comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9,
                                   c_fix=140e-15, bank_unit=1e-15, bank_size=4)
        with pytest.warns(AlignmentWarning):
            tune_bank(rft, comp)


class TestWindowEdges:
    @pytest.mark.parametrize("q_l0", [2.0, 8.0, 20.0])
    def test_motional_mode_is_lost_at_unit_window_fraction(self, rft, q_l0):
        # bisect c_fix for the capacitance where find_operating_point stops
        # choosing the motional crossing, on each side of the centre.  The
        # edges sit 3e-4 to 7e-4 inside +-1, as the branch susceptance
        # changes across the motional linewidth; measured from the lossless
        # resonance instead, the upper edge of a 250 pH tank sat at 0.60,
        # 0.97 and 0.995 of the margin.
        l_0 = shunt_inductor_for(3.0 * rft.c_0, series_resonance(rft))
        comp = CompensationNetwork(l_0=l_0, q_l0=q_l0, f_ref=series_resonance(rft))
        centre = centre_capacitance(rft, comp) - rft.c_0
        margin = motional_mode_capacitance_margin(rft)

        def mode(c_fix):
            return find_operating_point(rft, replace(comp, c_fix=c_fix))[2]

        for side in (-1.0, 1.0):
            inside, outside = centre, centre + 2.0 * side * margin
            assert mode(inside) == "motional" and mode(outside) == "lc_tank"
            for _ in range(40):
                mid = 0.5 * (inside + outside)
                if mode(mid) == "motional":
                    inside = mid
                else:
                    outside = mid
            edge = window_fraction(rft, replace(comp, c_fix=inside))
            assert edge == pytest.approx(side, abs=1e-3)


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
