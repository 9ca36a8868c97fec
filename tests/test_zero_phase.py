"""Closed-form zero-phase crossings against the grid search they replaced."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsosc import (
    CompensationNetwork,
    NoResonanceError,
    find_lc_operating_point,
    find_motional_operating_point,
    find_operating_point,
    loaded_q,
    motional_mode_capacitance_margin,
    series_resonance,
    shunt_inductor_for,
    tank_impedance,
    tank_resonance,
)
from memsosc.compensation import _brent, _zero_phase_roots
from memsosc.fixtures import BUILTIN_RESONATORS, get_resonator

from conftest import bare_c0_network
from grid_oracle import (
    grid_lc_crossings,
    grid_motional_crossings,
    lc_window,
    motional_window,
)


def every_crossing(res, comp):
    """Every zero-phase crossing the root solve finds, polished, ascending."""
    f_est, polish = _zero_phase_roots(res, comp)
    return [f for f in map(polish, range(len(f_est))) if f is not None]


def swept_networks(res, q_l0):
    """Networks aligned at f_s with c_fix = 2*c_0, then shifted by -3..+3
    motional-mode margins (c_fix clipped at zero)."""
    fs = series_resonance(res)
    c_fix = 2.0 * res.c_0
    l_0 = shunt_inductor_for(res.c_0 + c_fix, fs)
    margin = motional_mode_capacitance_margin(res)
    for dc in sorted({max(k * margin, -c_fix) for k in range(-3, 4)}):
        yield CompensationNetwork(l_0=l_0, q_l0=q_l0, f_ref=fs, c_fix=c_fix + dc)


@pytest.mark.parametrize("q_l0", [2.0, 8.0, 20.0])
@pytest.mark.parametrize("name", sorted(BUILTIN_RESONATORS))
def test_cubic_finds_every_grid_crossing(name, q_l0):
    res = get_resonator(name)
    seen = 0
    for comp in swept_networks(res, q_l0):
        roots = np.array(every_crossing(res, comp))
        for f in grid_motional_crossings(res, comp) + grid_lc_crossings(res, comp):
            seen += 1
            assert roots.size, f"no roots, grid found {f}"
            assert np.min(np.abs(roots - f)) <= 1e-10 * f
    assert seen > 0


def test_lc_root_beside_the_motional_notch():
    # Three crossings: one low LC crossing, the motional notch and a higher-
    # impedance crossing 1.2 kHz above it.  The last two share one 10 kHz
    # cell of the LC grid, which therefore saw only the 7.1 MHz point.
    res = get_resonator("quartz45m")
    comp = CompensationNetwork(l_0=0.7e-6, q_l0=2.0, f_ref=series_resonance(res),
                               c_fix=62e-12)
    roots = every_crossing(res, comp)
    assert roots == pytest.approx([7.1491e6, 44.59333e6, 44.59450e6], rel=1e-5)
    mags = [abs(tank_impedance(res, comp, f)) for f in roots]
    assert mags == pytest.approx([108.1, 12.39, 213.6], rel=1e-3)
    assert grid_lc_crossings(res, comp) == pytest.approx([roots[0]], rel=1e-10)

    f_lc, z_lc = find_lc_operating_point(res, comp)
    assert f_lc == roots[2]
    assert abs(z_lc) == pytest.approx(mags[2], rel=1e-12)
    assert find_operating_point(res, comp)[2] == "motional"


def test_brent_polishes_to_float_resolution():
    root = _brent(lambda x: x * x - 2.0, 1.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= 1e-15 * math.sqrt(2.0)
    assert _brent(lambda x: x - 3.0, 3.0, 5.0) == 3.0
    with pytest.raises(ValueError):
        _brent(lambda x: x * x + 1.0, 0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_RESONATORS)),
       st.floats(min_value=2.0, max_value=50.0),
       st.floats(min_value=0.5, max_value=8.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_property_roots_have_zero_phase(name, q_l0, parasitic, shift):
    res = get_resonator(name)
    fs = series_resonance(res)
    c_fix = parasitic * res.c_0
    comp = CompensationNetwork(
        l_0=shunt_inductor_for(res.c_0 + c_fix, fs), q_l0=q_l0, f_ref=fs,
        c_fix=max(c_fix + shift * motional_mode_capacitance_margin(res), 0.0))
    roots = every_crossing(res, comp)
    assert roots == sorted(roots)
    for f in roots:
        assert abs(np.angle(tank_impedance(res, comp, f))) < 1e-9


def windowed_operating_point(res, comp):
    """The rule before every crossing counted: motional crossings inside
    motional_window, else the largest-|Z| crossing inside lc_window, else
    None (a refusal).  A crossing counted when its estimate and its
    polished value both lay inside the window."""
    f_est, polish = _zero_phase_roots(res, comp)

    def inside(lo, hi):
        return [f for i, est in enumerate(f_est) if lo <= est <= hi
                and (f := polish(i)) is not None and lo <= f <= hi]

    fs = series_resonance(res)
    motional = inside(*motional_window(res))
    if motional:
        f = min(motional, key=lambda x: abs(x - fs))
        return f, tank_impedance(res, comp, f), "motional"
    lc = inside(*lc_window(res, comp))
    if not lc:
        return None
    f, z = max(((f, tank_impedance(res, comp, f)) for f in lc),
               key=lambda point: abs(point[1]))
    return f, z, "lc_tank"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_RESONATORS)),
       st.floats(min_value=2.0, max_value=50.0),
       st.floats(min_value=0.5, max_value=8.0),
       st.floats(min_value=-30.0, max_value=30.0))
def test_property_same_answer_wherever_the_windows_answered(name, q_l0, parasitic,
                                                             shift):
    res = get_resonator(name)
    fs = series_resonance(res)
    c_fix = parasitic * res.c_0
    comp = CompensationNetwork(
        l_0=shunt_inductor_for(res.c_0 + c_fix, fs), q_l0=q_l0, f_ref=fs,
        c_fix=max(c_fix + shift * motional_mode_capacitance_margin(res), 0.0))
    old = windowed_operating_point(res, comp)
    try:
        new = find_operating_point(res, comp)
    except NoResonanceError:
        assert old is None
        assert every_crossing(res, comp) == []
        return
    if old is not None:
        assert repr(new) == repr(old)
    assert new[0] in every_crossing(res, comp)


@pytest.mark.parametrize("c_fix, ratio, refused_before", [
    (120e-15, 0.235, False), (160e-15, 0.169, False), (200e-15, 0.108, True)])
def test_lc_crossing_beyond_the_old_window(c_fix, ratio, refused_before):
    # The default network at q_l0 = 4 with c_fix added.  As c_fix grows the
    # one crossing falls from 0.68 to 0.40 f_tank; from 180 fF on it lies
    # below 0.5 f_tank, the LC window's lower edge at this q_l0, and the
    # windowed rule refused the tank.
    res = get_resonator("rft30g")
    comp = replace(bare_c0_network(res, q_l0=4.0), c_fix=c_fix)
    f, z, mode = find_operating_point(res, comp)
    old = windowed_operating_point(res, comp)
    assert (old is None) == refused_before
    assert refused_before or repr(old) == repr((f, z, mode))
    assert mode == "lc_tank"
    assert f / series_resonance(res) == pytest.approx(ratio, abs=5e-4)
    assert (f, z) == find_lc_operating_point(res, comp)
    assert find_motional_operating_point(res, comp) is None
    assert abs(np.angle(z)) < 1e-9
    assert loaded_q(res, comp) == loaded_q(res, comp, mode="lc_tank") > 0


def test_no_crossing_at_any_frequency():
    res = get_resonator("quartz45m")
    fs = series_resonance(res)
    comp = CompensationNetwork(
        l_0=shunt_inductor_for(1.5 * res.c_0, fs), q_l0=2.0, f_ref=fs,
        c_fix=0.5 * res.c_0 + 3.0 * motional_mode_capacitance_margin(res))
    assert every_crossing(res, comp) == []
    message = (f"no zero-phase crossing at any frequency "
               f"(f_tank = {tank_resonance(res, comp)!r} Hz)")
    for find in (find_operating_point, find_lc_operating_point):
        with pytest.raises(NoResonanceError) as info:
            find(res, comp)
        assert str(info.value) == message
    assert find_motional_operating_point(res, comp) is None


@pytest.mark.parametrize("shift, mode", [(0.0, "motional"), (3.0, "lc_tank")])
def test_one_root_solve_per_operating_point(monkeypatch, shift, mode):
    res = get_resonator("rft30g")
    comp = replace(bare_c0_network(res, q_l0=8.0),
                   c_fix=shift * motional_mode_capacitance_margin(res))
    calls = []
    solve = np.roots
    monkeypatch.setattr(np, "roots", lambda coeffs: calls.append(1) or solve(coeffs))
    assert find_operating_point(res, comp)[2] == mode
    assert len(calls) == 1
