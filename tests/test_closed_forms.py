"""Closed-form bank code and L0 grid point against exhaustive scans, and
bounded work on banks and grids far too large to scan."""

import random
import time
import tracemalloc
import warnings
from dataclasses import replace

import pytest

from memsosc import (
    CompensationNetwork,
    DesignError,
    DesignSpec,
    compensation,
    motional_mode_capacitance_margin,
    run_design,
    series_resonance,
    tune_bank,
    window_fraction,
)
from memsosc.bvd import TWO_PI
from memsosc.design import _choose_inductor
from memsosc.fixtures import BUILTIN_RESONATORS, get_resonator

from bank_reference import exact_nearest_code, scan_window_bank, walk_choose_inductor

FIXTURES = sorted(BUILTIN_RESONATORS)


def bank_networks(seed, count):
    """Seeded (resonator, network) pairs whose window centre lies from below
    the bank to beyond its top, sometimes exactly on a code.  With f_ref =
    f_s the centre is 1/(w_s^2*l_0*(1 + 1/q_l0^2)).  Units span
    1e-19 to 1e-2 of the branch capacitance, half of them 1e-17 to 1e-15:
    there neighbouring codes round to the same branch capacitance."""
    rng = random.Random(seed)
    for _ in range(count):
        res = get_resonator(rng.choice(FIXTURES))
        fs = series_resonance(res)
        ws = TWO_PI * fs
        size = rng.choice([0, 1, 2, 3, rng.randint(4, 64), rng.randint(65, 3000)])
        c_fix = res.c_0 * 10.0 ** rng.uniform(-1.0, 1.0)
        c_base = res.c_0 + c_fix
        rel = rng.choice([rng.uniform(-19.0, -2.0), rng.uniform(-17.0, -15.0)])
        unit = 0.0 if rng.random() < 0.05 else c_base * 10.0 ** rel
        if rng.random() < 0.2:
            c_target = c_base + rng.randint(0, size) * unit
        else:
            c_target = c_base + unit * size * rng.uniform(-0.3, 1.3)
        l_0 = 1.0 / (ws * ws * c_target * (1.0 + 1.0 / 64.0))  # q_l0 = 8
        yield res, CompensationNetwork(l_0=l_0, q_l0=8.0,
                                       f_ref=fs, c_fix=c_fix, bank_unit=unit,
                                       bank_size=size)


def outcome(fn, *args):
    """(return value, warning messages) of fn(*args)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(*args)
    return value, [str(w.message) for w in caught]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tune_bank_matches_scan(seed):
    inside = plateaus = warned = 0
    for res, comp in bank_networks(seed, 200):
        code, messages = outcome(tune_bank, res, comp)
        assert (code, messages) == outcome(scan_window_bank, res, comp)
        assert code == exact_nearest_code(res, comp)
        warned += bool(messages)
        if 0 < code < comp.bank_size:
            inside += 1
            plateaus += (comp.branch_capacitance(res, code)
                         == comp.branch_capacitance(res, code + 1))
    # the seeds reach codes inside the bank, codes whose branch capacitance
    # rounds to that of the next one (the window fraction still tells them
    # apart), and banks that cannot reach the window
    assert inside > 0 and plateaus > 0 and warned > 0


@pytest.mark.parametrize("size", [0, 1])
def test_tune_bank_tiny_banks(rft, size):
    for unit in (0.0, 1e-18, 1e-15, 1e-12):
        for c_fix in (50e-15, 96.58e-15, 150e-15):
            comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9, c_fix=c_fix,
                                       bank_unit=unit, bank_size=size)
            assert outcome(tune_bank, rft, comp) == outcome(scan_window_bank, rft, comp)


def inductor_specs(seed, count):
    """Seeded specs over every fixture: grids from 1e-4 of the needed L0 to
    coarser than the largest inductor, some with a grid point's window
    centre exactly at the bank's reach, banks 0-4096."""
    rng = random.Random(seed)
    for _ in range(count):
        res = get_resonator(rng.choice(FIXTURES))
        fs = series_resonance(res)
        ws = TWO_PI * fs
        parasitic = res.c_0 * 10.0 ** rng.uniform(-1.0, 1.0)
        c_base = res.c_0 + parasitic + 10e-15
        size = rng.choice([0, 1, rng.randint(2, 64), rng.randint(65, 4096)])
        unit = 0.0 if rng.random() < 0.1 else (
            c_base * 10.0 ** rng.uniform(-6.0, -1.0) / max(size, 1))
        if rng.random() < 0.2:
            reach = c_base + (size + 0.5) * unit if size else c_base
            step = 1.0 / (ws * ws * (1.0 + 1.0 / 64.0) * reach) / rng.randint(1, 5000)
        else:
            step = 10.0 ** rng.uniform(-4.0, 0.3) / (ws * ws * c_base)
        yield DesignSpec(resonator=res, target_f0=fs, v_osc_target=0.3,
                         parasitic_c=parasitic, q_l0_available=8.0, bank_unit=unit,
                         bank_size=size, l0_grid_step=step)


@pytest.mark.parametrize("seed", [0, 1])
def test_choose_inductor_matches_walk(seed):
    # run_design refuses a choice outside the window, |fraction| > 1
    found = refused = 0
    for spec in inductor_specs(seed, 150):
        comp = _choose_inductor(spec)
        assert comp == walk_choose_inductor(spec)
        outside = abs(window_fraction(spec.resonator, comp)) > 1.0
        found += not outside
        refused += outside
    assert found > 0 and refused > 0


# --- bounded work ------------------------------------------------------------

TIME_BOUND_S = 0.25
MEMORY_BOUND = 2 ** 20


def bounded(fn, *args):
    """fn(*args), asserting it stays within the time and allocation bounds."""
    tracemalloc.start()
    t = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = fn(*args)
        elapsed = time.perf_counter() - t
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < TIME_BOUND_S
    assert peak < MEMORY_BOUND
    return value


def billion_code_bank(res):
    """A 10^9-code bank of 1e-25 F units whose code 123,456,789 puts the
    250 pH, q_l0 = 8 tank at the lossy window centre, l_0/|r_l0 + j*w_s*l_0|^2."""
    ws = TWO_PI * series_resonance(res)
    comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9)
    c_centre = comp.l_0 / (comp.r_l0 ** 2 + (ws * comp.l_0) ** 2)
    unit = 1e-25
    return replace(comp, c_fix=c_centre - res.c_0 - 123_456_789 * unit,
                   bank_unit=unit, bank_size=10 ** 9)


def test_billion_code_bank_is_bounded(rft):
    comp = billion_code_bank(rft)
    code = bounded(tune_bank, rft, comp)
    fraction = [abs(window_fraction(rft, comp, c)) for c in (code - 1, code, code + 1)]
    assert abs(code - 123_456_789) <= 1
    assert fraction[0] > fraction[1] <= fraction[2]
    assert code == exact_nearest_code(rft, comp)


def test_closed_form_code_needs_few_evaluations(rft, monkeypatch):
    # one call of the fraction rule gives the fraction at code 0 (one
    # inductor admittance), the nearest code and the fraction there, which
    # the warning reads; a scan from either end would need about 27
    # bisections.  Fraction evaluations are counted at every layer that
    # computes one.
    calls = []

    def counted(name):
        wrapped = getattr(compensation, name)
        return lambda *args: calls.append(name) or wrapped(*args)

    for name in ("bank_alignment", "window_fraction", "tank_resonance"):
        monkeypatch.setattr(compensation, name, counted(name))
    tune_bank(rft, billion_code_bank(rft))
    assert calls == ["bank_alignment"]


def test_billion_code_bank_of_equal_codes_is_bounded(rft):
    # every code rounds to the same branch capacitance, and the window
    # centre lies beyond the top code, which is the nearest one exactly
    comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9, c_fix=50e-15,
                               bank_unit=1e-40, bank_size=10 ** 9)
    assert bounded(tune_bank, rft, comp) == exact_nearest_code(rft, comp) == 10 ** 9


def test_femtohenry_grid_is_bounded(rft):
    spec = DesignSpec(resonator=rft, target_f0=30e9, v_osc_target=0.3,
                      parasitic_c=86.58e-15, q_l0_available=8.0, bank_unit=1e-15,
                      bank_size=8, c_fix=10e-15, l0_grid_step=1e-15)
    report = bounded(run_design, spec)
    walked = walk_choose_inductor(spec)
    assert (report.l_0, report.bank_code) == (walked.l_0, walked.bank_code)


def test_grid_too_fine_to_walk_is_bounded(rft):
    # about 2e90 grid points below the answer: the closed-form index is a
    # Python int, and the window centre lands on the bank's reach, half a
    # unit beyond the top code
    spec = DesignSpec(resonator=rft, target_f0=30e9, v_osc_target=0.3,
                      parasitic_c=86.58e-15, q_l0_available=8.0, bank_unit=1e-15,
                      bank_size=8, c_fix=10e-15, l0_grid_step=1e-100)
    report = bounded(run_design, spec)
    comp = _choose_inductor(spec)
    assert (report.l_0, report.bank_code) == (comp.l_0, comp.bank_code) == (comp.l_0, 8)
    margin = motional_mode_capacitance_margin(rft)
    assert window_fraction(rft, comp) == pytest.approx(-0.5 * spec.bank_unit / margin,
                                                       rel=1e-6)


def test_grid_too_fine_to_index_is_refused(rft):
    # 1/(kappa*reach*step) overflows: a refusal naming the field, not an
    # OverflowError from the index
    spec = DesignSpec(resonator=rft, target_f0=30e9, v_osc_target=0.3,
                      parasitic_c=86.58e-15, q_l0_available=8.0, bank_unit=1e-15,
                      bank_size=8, c_fix=10e-15, l0_grid_step=5e-324)
    with pytest.raises(DesignError, match="^l0_grid_step 5e-324 H is too fine"):
        run_design(spec)
