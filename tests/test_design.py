import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from memsosc import (
    CompensationNetwork,
    DesignError,
    DesignReport,
    DesignSpec,
    NoResonanceError,
    OscillatorOperatingPoint,
    Resonator,
    evaluate,
    find_operating_point,
    fom_physical,
    run_design,
    series_resonance,
    size_active,
    window_fraction,
)
from memsosc import compensation, design
from memsosc.cli import main
from memsosc.noise import SUPPLY_BRANCH_FACTOR

from conftest import rescale_motional_q

REFUSAL = "high-Q motional operating point not found after tuning"
WINDOW_REFUSAL = ("no bank code keeps the tank within the high-Q operating window: "
                  "code 0 leaves it at window fraction +10.62")
SPEC_TEXT = ("resonator = rft30g\ntarget_f0 = 30g\nv_osc = 300m\nparasitic_c = 86.58f\n"
             "q_l0 = 8\nbank_unit = 1f\nbank_size = 8\n")


def rft_spec(res, **overrides):
    kw = dict(resonator=res, target_f0=30e9, v_osc_target=0.3,
              parasitic_c=86.58e-15, q_l0_available=8.0,
              bank_unit=1e-15, bank_size=8, c_fix=10e-15)
    kw.update(overrides)
    return DesignSpec(**kw)


def beyond_float(rft, field):
    """The dataclass owning field, built with the int 10**400 there."""
    big = 10 ** 400
    if field == "r_m":
        return Resonator(r_m=big, l_m=rft.l_m, c_m=rft.c_m, c_0=rft.c_0)
    if field == "supply":
        return OscillatorOperatingPoint(v_osc=0.3, f_0=30e9, delta_f=1e6, supply=big)
    if field.startswith("spec."):
        return rft_spec(rft, **{field[5:]: big})
    return CompensationNetwork(**{"l_0": 250e-12, "q_l0": 8.0, "f_ref": 30e9,
                                  "bank_size": 8, field: big})


BEYOND_FLOAT = "must be finite, got a number beyond the float range"
BEYOND_COUNT = "must be non-negative and within the float range"


@pytest.mark.parametrize("field, message", [
    ("r_m", BEYOND_FLOAT), ("q_l0", BEYOND_FLOAT),
    ("bank_size", BEYOND_COUNT),
    ("bank_code", BEYOND_COUNT), ("spec.parasitic_c", BEYOND_FLOAT),
    ("spec.bank_size", BEYOND_COUNT), ("supply", BEYOND_FLOAT)])
def test_number_beyond_float_range_names_the_field(rft, field, message):
    # refused at construction, naming the field
    name = field.removeprefix("spec.")
    with pytest.raises(ValueError, match=f"^{re.escape(name + ' ' + message)}$"):
        beyond_float(rft, field)


def record(rft, kind, **fields):
    """A valid record of kind, with fields replaced."""
    if kind == "resonator":
        return replace(rft, **fields)
    if kind == "network":
        return CompensationNetwork(**{"l_0": 250e-12, "q_l0": 8.0, "f_ref": 30e9,
                                      "c_fix": 92.58e-15, "bank_unit": 1e-15,
                                      "bank_size": 8, "bank_code": 4, **fields})
    if kind == "spec":
        return rft_spec(rft, **fields)
    return OscillatorOperatingPoint(**{"v_osc": 0.3, "f_0": 30e9, "delta_f": 1e6,
                                       "supply": 0.8, **fields})


# each record's fields under bvd.check_fields: positive, non-negative, counts
FIELD_RULES = {
    "resonator": (("r_m", "l_m", "c_m", "c_0"), (), ()),
    "network": (("l_0", "q_l0", "f_ref"), ("c_fix", "bank_unit"), ("bank_size", "bank_code")),
    "spec": (("target_f0", "v_osc_target", "q_l0_available", "mu_cox", "gamma",
              "temperature", "supply", "pn_offset", "l0_grid_step"),
             ("parasitic_c", "bank_unit", "c_fix"), ("bank_size",)),
    "op": (("v_osc", "f_0", "delta_f", "temperature", "supply"), ("gamma",), ()),
}


def rule_fields(rule):
    return [(kind, name) for kind, rules in FIELD_RULES.items() for name in rules[rule]]


@pytest.mark.parametrize("kind, name", rule_fields(0))
def test_positive_field_refuses_zero_negative_and_non_finite(rft, kind, name):
    for value in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{name} must be positive and finite, got {value!r}") + "$"):
            record(rft, kind, **{name: value})


@pytest.mark.parametrize("kind, name", rule_fields(1))
def test_nonnegative_field_takes_zero_and_refuses_negative(rft, kind, name):
    stored = getattr(record(rft, kind, **{name: 0}), name)
    assert (type(stored), stored) == (float, 0.0)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{name} must be non-negative and finite, got -1e-18") + "$"):
        record(rft, kind, **{name: -1e-18})


@pytest.mark.parametrize("kind, name", rule_fields(2))
def test_count_field_takes_integers_within_the_float_range(rft, kind, name):
    stored = getattr(record(rft, kind, **{name: np.int64(8)}), name)
    assert (type(stored), stored) == (int, 8)
    for value in (True, 8.0):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{name} must be an integer, got {value!r}") + "$"):
            record(rft, kind, **{name: value})
    for value in (-1, 10 ** 400):
        with pytest.raises(ValueError, match=f"^{name} {BEYOND_COUNT}$"):
            record(rft, kind, **{name: value})


class TestSpecValidation:
    @pytest.mark.parametrize("v_osc", [1e-300, 1e300])
    def test_signal_power_out_of_range_names_v_osc(self, rft, v_osc):
        # v_osc^2 under- or overflows; once a ZeroDivisionError or a "math
        # domain error" from the noise chain
        with pytest.raises(ValueError, match=re.escape(f"v_osc = {v_osc!r} V puts the "
                                                       f"signal power")):
            run_design(rft_spec(rft, v_osc_target=v_osc))

    def test_rejects_unreachable_target(self, rft):
        with pytest.raises(ValueError):
            rft_spec(rft, target_f0=10e9)

    def test_rejects_nonpositive(self, rft):
        with pytest.raises(ValueError):
            rft_spec(rft, v_osc_target=0.0)
        with pytest.raises(ValueError):
            rft_spec(rft, parasitic_c=-1e-15)

    @pytest.mark.parametrize("field", ["target_f0", "v_osc_target", "parasitic_c",
                                       "q_l0_available", "bank_unit", "bank_size",
                                       "c_fix", "mu_cox", "gamma", "temperature",
                                       "supply", "pn_offset", "l0_grid_step"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, rft, field, value):
        with pytest.raises(ValueError, match=field):
            rft_spec(rft, **{field: value})


    @pytest.mark.parametrize("value", [8.5, 8.0, True])
    def test_rejects_non_integral_bank_size(self, rft, value):
        with pytest.raises(ValueError, match="bank_size must be an integer"):
            rft_spec(rft, bank_size=value)

    def test_numpy_bank_size_accepted(self, rft):
        assert run_design(rft_spec(rft, bank_size=np.int64(8))) == run_design(rft_spec(rft))


class TestSizeActive:
    def test_worked_example(self):
        g_m, i_bias, _ = size_active(196.3, 0.3, 200e-6)
        assert g_m == pytest.approx(10.19e-3, rel=1e-3)
        assert i_bias == pytest.approx(1.528e-3, rel=1e-3)

    def test_w_over_l(self):
        g_m, i_bias, w_over_l = size_active(196.3, 0.3, 200e-6)
        assert w_over_l == pytest.approx(g_m ** 2 / (2 * i_bias * 200e-6))
        assert w_over_l == pytest.approx(169.9, rel=1e-3)

    def test_scaling_sanity(self):
        g_m, i_bias, _ = size_active(2.0, 2.0, 200e-6)
        assert g_m == pytest.approx(1.0)
        assert i_bias == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        # the refusal names the argument, infinite ones included
        for args, name in [((0.0, 0.3, 200e-6), "r_res"),
                           ((math.inf, 0.3, 2e-4), "r_res"),
                           ((196.3, math.inf, 2e-4), "v_osc"),
                           ((196.3, 0.3, -2e-4), "mu_cox"),
                           ((196.3, 0.3, math.nan), "mu_cox")]:
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                size_active(*args)


    @pytest.mark.parametrize("mu_cox", [1e-320, 5e-324])
    def test_refuses_w_over_l_beyond_the_float_range(self, mu_cox):
        # 1e-320 overflows W/L; at 5e-324 2*i_bias*mu_cox underflows to zero
        with pytest.raises(ValueError, match=f"^mu_cox = {mu_cox!r} puts W/L out of "
                           f"floating-point range for r_res = 196.3 ohm"):
            size_active(196.3, 0.3, mu_cox)


class TestRunDesign:
    def test_reference_design(self, rft):
        report = run_design(rft_spec(rft))
        assert report.l_0 == pytest.approx(250e-12, abs=25e-12)
        assert report.predicted_pn <= -125.0
        assert report.predicted_fom >= 210.0
        assert report.p_dc_estimate <= 3e-3

    def test_bare_c0_inductor(self, rft):
        report = run_design(rft_spec(rft, parasitic_c=0.0, bank_size=0,
                                     bank_unit=0.0, c_fix=0.0,
                                     l0_grid_step=1.759e-9 / 7))
        assert report.l_0 == pytest.approx(1.759e-9, rel=0.01)

    def test_low_q_resonator_warns(self, rft):
        res = rescale_motional_q(rft, 500.0)
        report = run_design(rft_spec(res))
        assert any("loaded Q" in w for w in report.warnings)

    def test_deterministic(self, rft):
        a = run_design(rft_spec(rft))
        b = run_design(rft_spec(rft))
        assert a == b

    def test_startup_condition(self, rft):
        report = run_design(rft_spec(rft))
        assert report.g_m * report.r_res >= 2.0 - 1e-12

    def test_power_accounting(self, rft):
        report = run_design(rft_spec(rft))
        assert report.p_dc_estimate == pytest.approx(
            SUPPLY_BRANCH_FACTOR * 0.8 * report.i_bias)
        p_out = 0.3 ** 2 / (2.0 * report.r_res)
        assert report.eta == pytest.approx(p_out / report.p_dc_estimate)

    def test_fom_recomputes_from_report_fields(self, rft):
        report = run_design(rft_spec(rft))
        again = fom_physical(report.q_loaded, report.beta, report.eta,
                             report.noise_factor, 300.0)
        assert report.predicted_fom == pytest.approx(again, abs=0.01)

    def test_fields_equal_evaluate_at_f_osc(self, rft):
        spec = rft_spec(rft, gamma=1.3, supply=1.1, pn_offset=3e5)
        rep = run_design(spec)
        comp = CompensationNetwork(l_0=rep.l_0, q_l0=rep.q_l0, f_ref=spec.target_f0,
                                   c_fix=rep.c_fix, bank_unit=spec.bank_unit,
                                   bank_size=rep.bank_size, bank_code=rep.bank_code)
        assert find_operating_point(rft, comp)[::2] == (rep.f_osc, "motional")
        ev = evaluate(rft, comp, OscillatorOperatingPoint(
            v_osc=spec.v_osc_target, f_0=rep.f_osc, delta_f=spec.pn_offset,
            gamma=spec.gamma, g_mbias=rep.g_m, supply=spec.supply))
        assert (rep.r_res, rep.beta, rep.q_loaded, rep.noise_factor,
                rep.predicted_pn, rep.p_dc_estimate, rep.eta, rep.predicted_fom) == (
            ev.tank.r_res, ev.tank.beta, ev.q_loaded, ev.budget.f_min,
            ev.pn, ev.p_dc, ev.eta, ev.fom)

    def test_lower_q_l0_never_helps(self, rft):
        foms = [run_design(rft_spec(rft, q_l0_available=q)).predicted_fom
                for q in (4.0, 6.0, 8.0, 10.0, 12.0)]
        assert all(a <= b + 1e-9 for a, b in zip(foms, foms[1:]))

    def test_chosen_l0_is_grid_minimal(self, rft):
        spec = rft_spec(rft)
        report = run_design(spec)
        # every smaller grid inductor's lossy window centre, the branch
        # capacitance that cancels it at w_s, lies beyond the bank's reach
        ws = 2.0 * math.pi * series_resonance(rft)
        c_base = rft.c_0 + spec.parasitic_c + spec.c_fix
        c_max = c_base + spec.bank_size * spec.bank_unit + 0.5 * spec.bank_unit
        k = 1
        while k * spec.l0_grid_step < report.l_0 - 1e-15:
            comp = CompensationNetwork(l_0=k * spec.l0_grid_step, q_l0=8.0, f_ref=30e9)
            assert -(1.0 / (comp.r_l0 + 1j * ws * comp.l_0)).imag / ws > c_max
            k += 1
        assert k == 10

    def test_fails_when_bank_cannot_align(self, rft):
        # grid too coarse: code 0 of the 1 nH inductor sits far above the
        # window centre, and nothing smaller is on the grid
        with pytest.raises(DesignError) as info:
            run_design(rft_spec(rft, l0_grid_step=1e-9, bank_size=2))
        assert str(info.value) == WINDOW_REFUSAL

    def test_lossy_centre_answers_the_spec_the_lossless_window_refused(
            self, rft, tmp_path, capsys):
        # picking L0 on the lossless resonance gave 247.5 pH, but at
        # q_l0 = 3 that inductor's lossy window centre lies below its bank:
        # even code 0 left the tank outside the window, a refusal.  On the
        # lossy centre the smaller 223.3 pH is chosen, and its bank reaches
        spec = rft_spec(rft, target_f0=29.9e9, parasitic_c=87e-15, q_l0_available=3.0,
                        bank_unit=8.4e-18, bank_size=104, l0_grid_step=1.1e-12)
        report = run_design(spec)
        assert report.l_0 == pytest.approx(223.3e-12, rel=1e-12)
        assert report.bank_code == 61
        comp = CompensationNetwork(l_0=report.l_0, q_l0=3.0, f_ref=29.9e9,
                                   c_fix=report.c_fix, bank_unit=8.4e-18,
                                   bank_size=104, bank_code=61)
        assert find_operating_point(rft, comp)[2] == "motional"
        p = tmp_path / "spec.txt"
        p.write_text("resonator = rft30g\ntarget_f0 = 29.9g\nv_osc = 300m\n"
                     "parasitic_c = 87f\nq_l0 = 3\nbank_unit = 8.4e-18\n"
                     "bank_size = 104\nl0_grid = 1.1p\n")
        assert main(["design", "--in", str(p)]) == 0
        assert "bank code      : 61 / 104\n" in capsys.readouterr().out

    def test_grid_too_fine_to_index_exits_2(self, tmp_path, capsys):
        p = tmp_path / "spec.txt"
        p.write_text(SPEC_TEXT + "l0_grid = 5e-324\n")
        assert main(["design", "--in", str(p)]) == 2
        assert capsys.readouterr().err == (
            "design failed: l0_grid_step 5e-324 H is too fine to index the inductor grid\n")

    def test_neighbour_below_wins_when_nearer_the_centre(self, rft):
        # acceptance 6: 250 pH is the first grid point whose bank reaches the
        # centre, but even code 0 leaves it above; 225 pH at its top code
        # sits further below
        spec = rft_spec(rft)
        chosen = design._choose_inductor(spec)
        assert (chosen.l_0, chosen.bank_code) == (250e-12, 0)
        below = replace(chosen, l_0=225e-12, bank_code=8)
        assert window_fraction(rft, chosen) == pytest.approx(0.2168, abs=1e-4)
        assert window_fraction(rft, below) == pytest.approx(-0.3235, abs=1e-4)

    def test_bankless_spec_gets_no_half_unit_of_reach(self, rft):
        # design_space seed 1, design op 821: no bank, but a unit larger
        # than the window.  Half a unit of reach would stop at 12 grid steps,
        # at window fraction -1.008, a refusal; without it the first point
        # within reach is 14 steps (+0.670), and 13 steps (-0.104) is nearer
        spec = DesignSpec(resonator=rft, target_f0=30076291959.23461, v_osc_target=0.3,
                          parasitic_c=5.977500181685862e-14,
                          q_l0_available=2.402526331367982,
                          bank_unit=1.7403322545252635e-14, bank_size=0,
                          l0_grid_step=2.1290107727543437e-11)
        report = run_design(spec)
        assert report.l_0 == 13 * spec.l0_grid_step and report.bank_code == 0
        assert window_fraction(rft, design._choose_inductor(spec)) == pytest.approx(
            -0.1044, abs=1e-4)

    def test_no_report_carries_a_startup_margin_warning(self, rft):
        # size_active sets g_m = 2/r_res, so g_m*r_res is 2 on every design
        for spec in (rft_spec(rft), rft_spec(rescale_motional_q(rft, 500.0)),
                     rft_spec(rft, q_l0_available=3.0, l0_grid_step=1e-12)):
            report = run_design(spec)
            assert report.g_m * report.r_res == pytest.approx(2.0)
            assert not any("startup" in w for w in report.warnings)

    def test_no_crossing_at_all_is_the_same_refusal(self, rft, monkeypatch):
        def no_crossing(res, comp):
            raise NoResonanceError("no zero-phase crossing at any frequency")

        monkeypatch.setattr(design, "find_operating_point", no_crossing)
        with pytest.raises(DesignError) as info:
            run_design(rft_spec(rft))
        assert str(info.value) == REFUSAL

    def test_offset_above_the_carrier_is_a_value_error(self, rft):
        # the design flow builds its record at the motional carrier, whose
        # own check names the offset and the carrier
        with pytest.raises(ValueError) as info:
            run_design(rft_spec(rft, pn_offset=1e12))
        assert type(info.value) is ValueError
        assert str(info.value) == ("offset 1000000000000.0 Hz must be below the "
                                   "carrier 30000014473.19505 Hz")

    def test_low_motional_q_designs_sit_at_a_series_type_crossing(self, rft):
        # rft30g rescaled to Q_m 3-316 with seeded specs.  Every returned
        # design runs at a crossing where d(Im Y)/dw < 0; a window of +-2
        # motional bandwidths around f_s once let 35 of these 400 designs
        # through at a parallel-type crossing, and the type rule refuses them.
        rng = random.Random(0)
        fs = series_resonance(rft)
        ws = 2.0 * math.pi * fs
        returned = 0
        for _ in range(400):
            res = rescale_motional_q(rft, 3.0 * (316.0 / 3.0) ** rng.random())
            parasitic = res.c_0 * 0.5 * 16.0 ** rng.random()
            c_base = res.c_0 + parasitic + 10e-15
            grid_frac = 10.0 ** (-1.0 - 2.0 * rng.random())
            bank_size = rng.choice([0, 4, 8, 16, 64])
            spec = DesignSpec(
                resonator=res, target_f0=fs * rng.uniform(0.99, 1.01), v_osc_target=0.3,
                parasitic_c=parasitic, q_l0_available=2.0 * 10.0 ** rng.random(),
                bank_unit=c_base * grid_frac * 0.3 * (4.0 / 0.3) ** rng.random()
                / max(bank_size, 1),
                bank_size=bank_size, l0_grid_step=grid_frac / (ws * ws * c_base))
            try:
                rep = run_design(spec)
            except DesignError as exc:
                assert str(exc) == REFUSAL
                continue
            returned += 1
            comp = CompensationNetwork(l_0=rep.l_0, q_l0=rep.q_l0, f_ref=spec.target_f0,
                                       c_fix=rep.c_fix, bank_unit=spec.bank_unit,
                                       bank_size=rep.bank_size, bank_code=rep.bank_code)
            slope = compensation._admittance_and_slope(res, comp, rep.f_osc)[1].imag
            assert slope < 0, (spec, rep.f_osc)
        assert returned == 365

    def test_report_is_frozen(self, rft):
        report = run_design(rft_spec(rft))
        with pytest.raises(AttributeError):
            report.l_0 = 1.0


# Specs found once by bisecting parasitic_c (window fraction) and
# q_l0_available (Q_L/Q_m), then pinned: each puts a report at one side of a
# warning threshold, the threshold itself included.  A 64-ohm rft30g on a
# 100 pH grid without a bank reaches a window fraction of exactly 0.5.
WINDOW_PINS = [  # (parasitic_c, window fraction, warns)
    (8.709690467383444e-14, 0.49999999999999956, False),
    (8.709690467383445e-14, 0.5, False),
    (8.710519403533943e-14, 0.5002, True),
]
LOADED_Q_PINS = [  # (q_l0_available, Q_L/Q_m, warns), at parasitic_c = 86.5887 fF
    (28.272738664517828, 0.7999999999999999, True),
    (28.27273866451783, 0.8, False),
    (28.379338719219174, 0.8005999999999999, False),
]


class TestWarningThresholds:
    @pytest.mark.parametrize("parasitic_c, fraction, warns", WINDOW_PINS)
    def test_window_warning_starts_above_one_half(self, rft, parasitic_c, fraction, warns):
        res = replace(rft, r_m=64.0)
        spec = rft_spec(res, parasitic_c=parasitic_c, bank_unit=0.0, bank_size=0,
                        l0_grid_step=1e-10)
        rep = run_design(spec)
        comp = CompensationNetwork(l_0=rep.l_0, q_l0=rep.q_l0, f_ref=spec.target_f0,
                                   c_fix=rep.c_fix, bank_code=rep.bank_code)
        assert window_fraction(res, comp) == fraction
        assert any(w.startswith("bank code 0 sits at window fraction +0.50; ")
                   for w in rep.warnings) == warns

    @pytest.mark.parametrize("q_l0, ratio, warns", LOADED_Q_PINS)
    def test_loaded_q_warning_starts_below_four_fifths(self, rft, q_l0, ratio, warns):
        rep = run_design(rft_spec(rft, parasitic_c=8.658865799999999e-14, q_l0_available=q_l0))
        assert rep.q_loaded / rep.q_resonator == ratio
        assert any(w.startswith("loaded Q is 0.80 of the resonator Q")
                   for w in rep.warnings) == warns
