"""The linear-grid operating-point search, kept as a reference for the cubic.

Before the closed-form root finder, operating points were found by
sampling the impedance phase on a linear grid over a search window and
refining every sign change.  This module keeps that search (with a
vectorized bisection in place of a library root finder) so tests can
check that the cubic finds every crossing the grid finds.  A grid misses
crossings that share one cell, so the comparison runs one way only.
"""

import numpy as np

from memsosc import motional_bandwidth, series_resonance, tank_impedance, tank_resonance


def grid_crossings(res, comp, lo, hi, points):
    """Phase zero crossings over a linear grid on [lo, hi], bisected to float resolution."""
    grid = np.linspace(lo, hi, points)
    sign = np.sign(np.angle(tank_impedance(res, comp, grid)))
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    a, b, sa = grid[idx], grid[idx + 1], sign[idx]
    for _ in range(64):
        if idx.size == 0:
            break
        m = 0.5 * (a + b)
        left = np.sign(np.angle(tank_impedance(res, comp, m))) == sa
        a, b = np.where(left, m, a), np.where(left, b, m)
    return [float(f) for f in 0.5 * (a + b)]


def motional_window(res):
    """+-2 motional bandwidths around f_s, capped to an octave."""
    fs = series_resonance(res)
    bw = motional_bandwidth(res)
    return max(fs - 2.0 * bw, 0.5 * fs), min(fs + 2.0 * bw, 1.5 * fs)


def lc_window(res, comp):
    """+-4 LC half-bandwidths around the LC resonance, floored at 0.2 f_tank."""
    ft = tank_resonance(res, comp)
    half = ft / max(2.0 * comp.q_l0, 4.0)
    return max(ft - 4.0 * half, ft * 0.2), ft + 4.0 * half


def grid_motional_crossings(res, comp):
    return grid_crossings(res, comp, *motional_window(res), 2001)


def grid_lc_crossings(res, comp):
    return grid_crossings(res, comp, *lc_window(res, comp), 4001)
