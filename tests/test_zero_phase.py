"""Closed-form zero-phase crossings against the grid search they replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsosc import (
    CompensationNetwork,
    find_lc_operating_point,
    find_operating_point,
    motional_mode_capacitance_margin,
    series_resonance,
    shunt_inductor_for,
    tank_impedance,
)
from memsosc.compensation import _brent, _zero_phase_frequencies
from memsosc.fixtures import BUILTIN_RESONATORS, get_resonator

from grid_oracle import grid_lc_crossings, grid_motional_crossings


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
        roots = np.array(_zero_phase_frequencies(res, comp))
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
    roots = _zero_phase_frequencies(res, comp)
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
    roots = _zero_phase_frequencies(res, comp)
    assert roots == sorted(roots)
    for f in roots:
        assert abs(np.angle(tank_impedance(res, comp, f))) < 1e-9
