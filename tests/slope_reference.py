"""Numerical loaded-Q estimates, kept as references for the closed form.

Before the exact phase-slope Q, `phase_slope_q` took a central difference
of the impedance phase and halved its step until two estimates agreed to
0.1%.  `step_halving_q` keeps that loop as it was, so tests can pin the
points where it stopped on a false agreement.  `loaded_q_3db` measures Q
from the half-power bandwidth instead of the phase, a second oracle that
agrees with the phase slope on lightly loaded tanks.
"""

import math

import numpy as np

from memsosc import NoResonanceError, find_operating_point, phase_slope_q
from memsosc.bvd import check_frequency
from memsosc.compensation import _tank_admittance

from brent_reference import _brent
from conftest import tank_of


def _impedance(res, comp, f):
    """1/Y of the tank at a Python float f, unchecked."""
    return 1.0 / _tank_admittance(tank_of(res, comp), f)


def step_halving_q(res, comp, f_0):
    """Phase-slope Q by central differences with step halving."""
    f_0 = check_frequency(f_0)
    h = f_0 * 1e-4
    q_prev = None
    q = 0.0
    while h > f_0 * 1e-13:
        dphi = (_phase(_impedance(res, comp, f_0 + h))
                - _phase(_impedance(res, comp, f_0 - h)))
        dphi = (dphi + math.pi) % (2.0 * math.pi) - math.pi
        q = 0.5 * f_0 * abs(dphi) / (2.0 * h)
        if q_prev is not None and q > 0 and abs(q - q_prev) < 1e-3 * q:
            return q
        q_prev = q
        h *= 0.5
    return q


def _phase(z: complex) -> float:
    # numpy's arctan2, as np.angle takes it: SIMD builds of numpy differ
    # from math.atan2 in the last bit for some angles above ~1e-3 rad
    return float(np.arctan2(z.imag, z.real))


def loaded_q_3db(res, comp):
    """Q from the half-power (-3 dB) bandwidth at the governing point.

    The governing operating point is a |Z| extremum: a peak for the bare
    LC structure, a notch for a motionally loaded tank.  The bandwidth is
    the spacing of the sqrt(2) magnitude points around that extremum
    (down from a peak, up from a notch).  Agrees with the phase-slope
    method on lightly loaded tanks; under heavy loading (beta well below
    1) the notch walls are set by the unloaded motional branch and this
    estimate reads high.
    """
    f_op, z_op, _ = find_operating_point(res, comp)
    m0 = abs(z_op)
    # peak-or-notch probe at a bandwidth-scale offset; the zero-phase point
    # sits slightly off the magnitude extremum, so look at both sides
    probe = f_op / (4.0 * max(phase_slope_q(res, comp, f_op), 1.0))
    m_side = 0.5 * (abs(_impedance(res, comp, f_op + probe))
                    + abs(_impedance(res, comp, f_op - probe)))
    is_notch = m_side > m0
    target = m0 * math.sqrt(2.0) if is_notch else m0 / math.sqrt(2.0)

    def excess(f):
        return (abs(_impedance(res, comp, f)) - target) * (1 if is_notch else -1)

    def crossing(direction: int) -> float:
        step = f_op * 1e-9
        f = f_op
        while step < f_op:
            f_next = f + direction * step
            if f_next <= 0:
                break
            if excess(f_next) >= 0:
                return _brent(excess, min(f, f_next), max(f, f_next))
            f = f_next
            step *= 2.0
        raise NoResonanceError("half-power point not found")

    return f_op / (crossing(+1) - crossing(-1))
