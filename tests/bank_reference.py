"""The exhaustive bank scan and the linear L0 grid walk, kept as references.

Before the closed forms, `_choose_inductor` stepped up the L0 grid one
point at a time until the required capacitance fell inside the bank
window; that walk is kept here, unchanged apart from its name.  The bank
scan evaluates the window fraction at every code and keeps the smallest
|fraction|, and the nearest code is also found in exact rational
arithmetic; the closed-form `tune_bank` must match both.  Tests check
that the closed forms pick the same code, the same inductor and the same
refusal on any input small enough to scan.
"""

import math
import warnings
from fractions import Fraction

from memsosc import (
    AlignmentWarning,
    DesignError,
    motional_mode_capacitance_margin,
    series_resonance,
    window_fraction,
)


def scan_window_bank(res, comp):
    """Bank code minimizing |window_fraction| over every code; ties go low."""
    if comp.bank_size < 1:
        warnings.warn("bank has no tunable units", AlignmentWarning)
        return 0
    fractions = [window_fraction(res, comp, code) for code in range(comp.bank_size + 1)]
    best = min(range(len(fractions)), key=lambda code: abs(fractions[code]))  # first minimum
    if abs(fractions[best]) > 1.0:
        warnings.warn(f"best bank code {best} still leaves the tank at window "
                      f"fraction {fractions[best]:+.4g}", AlignmentWarning)
    return best


def exact_nearest_code(res, comp):
    """Code nearest the zero of the window fraction, which rises by
    bank_unit/margin per code from its float value at code 0, in exact
    arithmetic, clamped to the bank; half-way, or a zero unit, goes low."""
    if comp.bank_size < 1 or comp.bank_unit == 0:
        return 0
    u = (-Fraction(window_fraction(res, comp, 0))
         * Fraction(motional_mode_capacitance_margin(res)) / Fraction(comp.bank_unit))
    code = math.floor(u) + (u - math.floor(u) > Fraction(1, 2))
    return min(max(code, 0), comp.bank_size)


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
