"""Closed-form phase-slope Q against numerical derivatives of the phase."""

import cmath
import math
import random

import pytest

from memsosc import (
    CompensationNetwork,
    NoResonanceError,
    find_operating_point,
    motional_mode_capacitance_margin,
    phase_slope_q,
    series_resonance,
    shunt_inductor_for,
    tank_impedance,
)
from memsosc.fixtures import BUILTIN_RESONATORS, get_network, get_resonator

from slope_reference import step_halving_q


def richardson_q(res, comp, f):
    """(4*q(h/2) - q(h))/3 from central differences of the phase, h = 1e-7*f."""
    def q(h):
        dphi = (cmath.phase(tank_impedance(res, comp, f + h))
                - cmath.phase(tank_impedance(res, comp, f - h)))
        return 0.5 * f * abs(dphi) / (2.0 * h)

    h = 1e-7 * f
    return (4.0 * q(0.5 * h) - q(h)) / 3.0


def seeded_network(res, seed):
    """q_l0 log-uniform in 2..20, c_fix 0.5..8 c_0 aligned at f_s, then
    shifted by up to +-3 motional-mode margins (clipped at zero)."""
    rng = random.Random(seed)
    fs = series_resonance(res)
    q_l0 = math.exp(rng.uniform(math.log(2.0), math.log(20.0)))
    c_fix = rng.uniform(0.5, 8.0) * res.c_0
    shift = rng.uniform(-3.0, 3.0) * motional_mode_capacitance_margin(res)
    return CompensationNetwork(l_0=shunt_inductor_for(res.c_0 + c_fix, fs),
                               q_l0=q_l0, f_ref=fs, c_fix=max(c_fix + shift, 0.0))


@pytest.mark.parametrize("name", sorted(BUILTIN_RESONATORS))
def test_exact_q_matches_richardson_differences(name):
    # The phase at f +- h is good to about 1e-16 rad, which over a step of
    # 2e-7*f is about 1e-9 in Q: the floor for the far-off LC crossings
    # whose slope Q falls below 1e-3.
    res = get_resonator(name)
    checked = 0
    for seed in range(200):
        comp = seeded_network(res, seed)
        try:
            f, _, mode = find_operating_point(res, comp)
        except NoResonanceError:
            continue
        checked += 1
        q = phase_slope_q(res, comp, f)
        assert q == pytest.approx(richardson_q(res, comp, f), rel=1e-6, abs=1e-9), \
            (seed, mode, comp)
    assert checked > 150


def test_false_agreement_of_step_halving():
    # The step-halving loop stops where two steps agree by chance, 5.7% high.
    res = get_resonator("rft30g")
    comp = CompensationNetwork(l_0=1.0497480828773192e-09, q_l0=2.5893379582994633,
                               f_ref=29999849618.31458, c_fix=1.4667080584707904e-14)
    f, _, mode = find_operating_point(res, comp)
    assert mode == "motional"
    assert f == pytest.approx(30000837827.667007, rel=1e-12)
    q = phase_slope_q(res, comp, f)
    assert q == pytest.approx(2185.1661373289, rel=1e-9)
    assert q == pytest.approx(richardson_q(res, comp, f), rel=1e-6)
    assert step_halving_q(res, comp, f) == pytest.approx(2309.94, abs=0.01)


@pytest.mark.parametrize("f_0", [1e-150, 1e-300])
def test_non_finite_slope_raises(f_0):
    # Y' carries 1/(w^2*c_m), which overflows at these finite, positive f_0
    with pytest.raises(ValueError, match="f_0"):
        phase_slope_q(get_resonator("rft30g"), get_network("l0_250p_q8"), f_0)
