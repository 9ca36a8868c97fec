"""Closed-form bank code and L0 grid point against the scans they replaced,
and bounded work on banks and grids far too large to scan."""

import random
import time
import tracemalloc
import warnings

import pytest

from memsosc import (
    CompensationNetwork,
    DesignError,
    DesignSpec,
    compensation,
    run_design,
    series_resonance,
    tank_resonance,
    tune_bank,
)
from memsosc.bvd import TWO_PI
from memsosc.design import _choose_inductor
from memsosc.fixtures import BUILTIN_RESONATORS, get_resonator

from bank_reference import scan_tune_bank, walk_choose_inductor

FIXTURES = sorted(BUILTIN_RESONATORS)


def bank_networks(seed, count):
    """Seeded (resonator, network) pairs whose required capacitance lies
    from below the bank to beyond its top, sometimes exactly on a code.
    Units span 1e-19 to 1e-2 of the branch capacitance, half of them 1e-17
    to 1e-15: there neighbouring codes round to the same f_tank, or to
    offsets from f_s that tie."""
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
        yield res, CompensationNetwork(l_0=1.0 / (ws * ws * c_target), q_l0=8.0,
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
    plateaus = ties = 0
    for res, comp in bank_networks(seed, 200):
        code, messages = outcome(tune_bank, res, comp)
        assert (code, messages) == outcome(scan_tune_bank, res, comp)
        if 0 < code < comp.bank_size:
            fs = series_resonance(res)
            f = [tank_resonance(res, comp, c) for c in (code - 1, code, code + 1)]
            plateaus += f[1] == f[2]
            ties += abs(f[1] - fs) == abs(f[2] - fs) and f[1] != f[2]
    # the seeds reach both ways a lower code wins: a shared f_tank, and
    # equal offsets on the two sides of f_s
    assert plateaus > 0 and ties > 0


@pytest.mark.parametrize("size", [0, 1])
def test_tune_bank_tiny_banks(rft, size):
    for unit in (0.0, 1e-18, 1e-15, 1e-12):
        for c_fix in (50e-15, 96.58e-15, 150e-15):
            comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9, c_fix=c_fix,
                                       bank_unit=unit, bank_size=size)
            assert outcome(tune_bank, rft, comp) == outcome(scan_tune_bank, rft, comp)


def inductor_specs(seed, count):
    """Seeded specs over every fixture: grids from 1e-4 of the needed L0 to
    coarser than the largest inductor, some with the window's top exactly
    on a grid point, banks 0-4096."""
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
            slack = max(0.5 * unit, 1e-3 * c_base)
            c_top = c_base + size * unit + slack
            step = 1.0 / (ws * ws * c_top) / rng.randint(1, 5000)
        else:
            step = 10.0 ** rng.uniform(-4.0, 0.3) / (ws * ws * c_base)
        yield DesignSpec(resonator=res, target_f0=fs, v_osc_target=0.3,
                         parasitic_c=parasitic, q_l0_available=8.0, bank_unit=unit,
                         bank_size=size, l0_grid_step=step)


def inductor_or_refusal(fn, spec):
    try:
        return fn(spec)
    except DesignError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", [0, 1])
def test_choose_inductor_matches_walk(seed):
    found = refused = 0
    for spec in inductor_specs(seed, 150):
        got = inductor_or_refusal(_choose_inductor, spec)
        assert got == inductor_or_refusal(walk_choose_inductor, spec)
        found += isinstance(got, float)
        refused += isinstance(got, str)
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


def test_billion_code_bank_is_bounded(rft):
    ws = TWO_PI * series_resonance(rft)
    unit = 1e-25
    c_fix = 1.0 / (ws * ws * 250e-12) - rft.c_0 - 123_456_789 * unit
    comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9, c_fix=c_fix,
                               bank_unit=unit, bank_size=10 ** 9)
    code = bounded(tune_bank, rft, comp)
    fs = series_resonance(rft)
    offset = [abs(tank_resonance(rft, comp, c) - fs) for c in (code - 1, code, code + 1)]
    assert abs(code - 123_456_789) <= 1
    assert offset[0] > offset[1] <= offset[2]


def test_closed_form_code_needs_few_evaluations(rft, monkeypatch):
    # the deficit over the unit lands on the best code, so the search only
    # confirms it: a scan from either end would need about 27 bisections
    calls = []

    def counted(*args):
        calls.append(args[2])
        return tank_resonance(*args)

    monkeypatch.setattr(compensation, "tank_resonance", counted)
    ws = TWO_PI * series_resonance(rft)
    unit = 1e-25
    c_fix = 1.0 / (ws * ws * 250e-12) - rft.c_0 - 123_456_789 * unit
    comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9, c_fix=c_fix,
                               bank_unit=unit, bank_size=10 ** 9)
    tune_bank(rft, comp)
    assert len(calls) <= 8
    assert all(abs(code - 123_456_789) <= 2 for code in calls)


def test_billion_code_bank_of_equal_codes_is_bounded(rft):
    # every code rounds to the same f_tank: all tie, and the lowest wins
    comp = CompensationNetwork(l_0=250e-12, q_l0=8.0, f_ref=30e9, c_fix=50e-15,
                               bank_unit=1e-40, bank_size=10 ** 9)
    assert bounded(tune_bank, rft, comp) == 0


def test_femtohenry_grid_is_bounded(rft):
    spec = DesignSpec(resonator=rft, target_f0=30e9, v_osc_target=0.3,
                      parasitic_c=86.58e-15, q_l0_available=8.0, bank_unit=1e-15,
                      bank_size=8, c_fix=10e-15, l0_grid_step=1e-15)
    report = bounded(run_design, spec)
    assert report.l_0 == walk_choose_inductor(spec)
