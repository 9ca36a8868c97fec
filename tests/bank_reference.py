"""The exhaustive bank scan and the linear L0 grid walk, kept as references.

The bank scan evaluates the window fraction at every code and keeps the
smallest |fraction|, and the nearest code is also found in exact rational
arithmetic; the closed-form `tune_bank` must match both.  The walk steps
up the L0 grid one point at a time, as `_choose_inductor` did before its
grid index came in closed form, and tunes each bank by the scan.  Tests
check that the closed forms pick the same code and the same tuned
inductor on any input small enough to scan.
"""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

from memsosc import (
    AlignmentWarning,
    CompensationNetwork,
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
    """The L0 rule one grid point at a time: step up from the smallest grid
    inductor until the top code reaches the lossy window centre
    1/(L0*(w_s^2 + (w_ref/q_l0)^2)), tune that inductor's bank by the scan,
    and when code 0 still leaves the tank above the centre, take the grid
    point below at its scanned code if that lies strictly nearer."""
    res = spec.resonator
    ws = 2.0 * math.pi * series_resonance(res)
    loss = 2.0 * math.pi * spec.target_f0 / spec.q_l0_available
    kappa = ws * ws + loss * loss
    reach = res.c_0 + spec.parasitic_c + spec.c_fix
    if spec.bank_size:
        reach += (spec.bank_size + 0.5) * spec.bank_unit

    def tuned(k):
        comp = CompensationNetwork(
            l_0=k * spec.l0_grid_step, q_l0=spec.q_l0_available, f_ref=spec.target_f0,
            c_fix=spec.parasitic_c + spec.c_fix, bank_unit=spec.bank_unit,
            bank_size=spec.bank_size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AlignmentWarning)
            return replace(comp, bank_code=scan_window_bank(res, comp))

    k = 1
    while 1.0 / (kappa * (k * spec.l0_grid_step)) > reach:
        k += 1
    comp = tuned(k)
    if k > 1 and comp.bank_code == 0 and window_fraction(res, comp) > 0:
        below = tuned(k - 1)
        if abs(window_fraction(res, below)) < abs(window_fraction(res, comp)):
            return below
    return comp
