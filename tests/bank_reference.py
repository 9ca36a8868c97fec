"""The exhaustive bank scan and the linear L0 grid walk, kept as references.

Before the closed forms, `tune_bank` evaluated every code and took the
first minimum of |f_tank - f_s|, and `_choose_inductor` stepped up the L0
grid one point at a time until the required capacitance fell inside the
bank window.  Both are kept here, unchanged apart from their names, so
tests can check that the closed forms pick the same code, the same
inductor and the same refusal on any input small enough to scan.
"""

import math
import warnings

import numpy as np

from memsosc import AlignmentWarning, DesignError, series_resonance, tank_resonance
from memsosc.bvd import motional_bandwidth


def scan_tune_bank(res, comp):
    """Bank code minimizing |f_tank - f_s| over every code; ties go low."""
    if comp.bank_size < 1:
        warnings.warn("bank has no tunable units", AlignmentWarning)
        return 0
    fs = series_resonance(res)
    codes = np.arange(comp.bank_size + 1)
    offsets = np.array([abs(tank_resonance(res, comp, int(c)) - fs) for c in codes])
    best = int(np.argmin(offsets))  # argmin takes the first (lowest) code on ties
    if offsets[best] > motional_bandwidth(res):
        warnings.warn(
            f"best bank code {best} still leaves the tank "
            f"{offsets[best]:.4g} Hz off the series resonance",
            AlignmentWarning)
    return best


def walk_choose_inductor(spec):
    """First grid inductor, ascending, whose bank window can align the tank."""
    res = spec.resonator
    ws = 2.0 * math.pi * series_resonance(res)
    c_base = res.c_0 + spec.parasitic_c + spec.c_fix
    c_span = spec.bank_size * spec.bank_unit
    slack = max(0.5 * spec.bank_unit, 1e-3 * c_base)
    l_max = 1.0 / (ws * ws * c_base) * 1.25
    step = spec.l0_grid_step
    k = 1
    while k * step <= l_max:
        l_0 = k * step
        c_needed = 1.0 / (ws * ws * l_0)
        if c_base - slack <= c_needed <= c_base + c_span + slack:
            return l_0
        k += 1
    raise DesignError(
        f"no inductor on the {step:.3g} H grid can align the tank: base "
        f"capacitance {c_base:.4g} F, bank span {c_span:.4g} F")
