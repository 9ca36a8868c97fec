"""Shunt-inductor compensation of the resonator static capacitance.

The network places l_0 (with series loss r_l0 derived from its quality
factor) across the resonator, together with a fixed capacitor and a
digitally tunable capacitor bank, so that the l_0/C branch resonates out
c_0 at the motional series resonance.

Operating points are the zero-phase crossings of the composite impedance,
i.e. the frequencies where a negative-conductance cell can sustain
oscillation.  The tuned high-Q crossing sits at the motional series
resonance (an impedance notch of depth r_res with a steep phase slope);
the broad LC-branch structure carries its own low-Q crossing.  The
motional crossing exists only while the capacitive misalignment stays
below 1/(2*r_m*w_s) - beyond that the tank susceptance exceeds what the
motional branch can cancel and only the low-Q point remains.

The crossings are found in closed form.  The tank admittance is always
conductive, so the phase is zero exactly where Im Y = 0.  With
x = (w/w_s)^2 - 1, A = 1/Q_m^2 = (w_s*r_m*c_m)^2 and B = (w_s*l_0)^2,

    Im Y / w = C - c_m*x / (x^2 + A*(1 + x)) - l_0 / (r_l0^2 + B*(1 + x)),

and both denominators are positive for w > 0, so clearing them leaves a
cubic in x whose real roots with 1 + x > 0 are the candidate crossings.
Centring on x = 0 (the series resonance) keeps the close motional pair
well conditioned.  The roots come from ``np.roots``.  Each one is then
bracketed, first tightly around its estimate and otherwise between its
neighbours, skipped when Im Y keeps its sign across the bracket (a
tangential root), and polished on Im Y itself with Brent's method
(Brent 1973) until the bracket is 1e-15 of the frequency wide.

One frequency at a time is a Python float.  The admittance is plain
arithmetic, so a float gives a complex and an array gives an array, with
the same bits: `_reciprocal` divides an array the way Python divides a
complex.  The public entry points check the frequency once; from there
the bracket edges, sign tests, Brent polish and phase slope run in Python
floats.  ``np.roots`` stays, the one eigenvalue solve of a search.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bvd import (
    TWO_PI,
    Resonator,
    check_frequency,
    motional_bandwidth,
    motional_detuning,
    series_resonance,
)


class NoSolutionError(ValueError):
    """Requested synthesis has no physical solution."""


class NoResonanceError(RuntimeError):
    """No resonant operating point exists in the examined window."""


class AlignmentWarning(UserWarning):
    """Best achievable tuning still leaves the tank off the motional peak."""


@dataclass(frozen=True)
class CompensationNetwork:
    """Shunt inductor, fixed capacitor and unit-capacitor bank around a resonator.

    q_l0 is specified at f_ref and converted once to a frequency-independent
    series resistance r_l0; inductor loss dispersion is out of scope.
    """

    l_0: float
    q_l0: float
    f_ref: float
    c_fix: float = 0.0
    bank_unit: float = 0.0
    bank_size: int = 0
    bank_code: int = 0

    def __post_init__(self):
        for name in ("l_0", "q_l0", "f_ref"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not (0 <= self.c_fix < math.inf and 0 <= self.bank_unit < math.inf):
            raise ValueError("capacitances must be non-negative and finite")
        for name in ("bank_size", "bank_code"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.bank_size < 0:
            raise ValueError("bank_size must be non-negative")
        if not 0 <= self.bank_code <= self.bank_size:
            raise ValueError("bank_code must lie in [0, bank_size]")

    @property
    def r_l0(self) -> float:
        """Series loss resistance of the inductor, 2*pi*f_ref*l_0/q_l0."""
        return TWO_PI * self.f_ref * self.l_0 / self.q_l0

    def branch_capacitance(self, res: Resonator, bank_code: int | None = None) -> float:
        """Total capacitance across l_0: c_0 + c_fix + selected bank units."""
        code = self.bank_code if bank_code is None else bank_code
        return res.c_0 + self.c_fix + code * self.bank_unit


@dataclass(frozen=True)
class TankAnalysis:
    """Derived figures of the compensated tank at its operating resonance."""

    f_tank: float
    f_s: float
    r_res: float
    beta: float
    aligned: bool
    q_loaded: float | None = None
    dominant_mode: str | None = None


def zero_phase_c0(res: Resonator, f: float) -> float:
    """Static capacitance that would give a 0-degree impedance phase at f.

    Only frequencies above the series resonance admit a positive solution.
    """
    f = float(check_frequency(f))
    w = TWO_PI * f
    d = float(motional_detuning(res, f))  # omega^2*l_m*c_m - 1
    if d <= 0:
        raise NoSolutionError(
            f"no physical solution: {f} Hz is not above the series resonance "
            f"({series_resonance(res):.6g} Hz)")
    a = w * res.r_m * res.c_m
    return res.c_m * d / (a * a + d * d)


def shunt_inductor_for(c_total: float, f_0: float) -> float:
    """Inductance resonating c_total at f_0."""
    if not c_total > 0 or not f_0 > 0:
        raise ValueError("c_total and f_0 must be positive")
    w = TWO_PI * f_0
    return 1.0 / (w * w * c_total)


def _reciprocal(z):
    """1/z for a complex or a complex array, rounded as Python rounds it.

    Both divide by Smith's method, but numpy multiplies by the reciprocal
    of the denominator where Python divides by it, and the two differ in
    the last bit about a quarter of the time.  An array takes Python's
    steps here, so it gives the bits of one frequency at a time.  A numpy
    scalar (a field set from an array) is divided as a Python complex too.
    """
    if not isinstance(z, np.ndarray):
        return 1.0 / complex(z)
    r, x = z.real, z.imag
    wide = abs(r) >= abs(x)  # Smith divides through by the larger part
    big, small = np.where(wide, r, x), np.where(wide, x, r)
    ratio = small / big
    denom = big + small * ratio
    out = np.empty_like(z)  # numerators of 1 + 0j in Python's two branches
    out.real = np.where(wide, 1.0, ratio + 0.0) / denom
    out.imag = np.where(wide, 0.0 - ratio, -1.0) / denom
    return out


def _tank_admittance(res: Resonator, comp: CompensationNetwork, f):
    """Admittance of motional branch || C branch || lossy inductor.

    f is a checked Python float or float array.
    """
    w = TWO_PI * f
    x_m = motional_detuning(res, f) / (w * res.c_m)
    return (_reciprocal(res.r_m + 1j * x_m)
            + 1j * w * comp.branch_capacitance(res)
            + _reciprocal(comp.r_l0 + 1j * w * comp.l_0))


def _impedance(res: Resonator, comp: CompensationNetwork, f):
    return _reciprocal(_tank_admittance(res, comp, f))


def tank_impedance(res: Resonator, comp: CompensationNetwork, f):
    """Complex impedance of motional branch || C branch || lossy inductor."""
    f = check_frequency(f)
    return _impedance(res, comp, f.item() if f.ndim == 0 else f)


def tank_resonance(res: Resonator, comp: CompensationNetwork,
                   bank_code: int | None = None) -> float:
    """LC-branch resonance 1/(2*pi*sqrt(l_0*c_branch))."""
    c = comp.branch_capacitance(res, bank_code)
    if c <= 0:
        raise ValueError("branch capacitance must be positive")
    return 1.0 / (TWO_PI * math.sqrt(comp.l_0 * c))


def _effective_parallel_resistance(res: Resonator, comp: CompensationNetwork) -> float:
    q2r = comp.q_l0 * comp.q_l0 * comp.r_l0
    return res.r_m * q2r / (res.r_m + q2r)


def motional_mode_capacitance_margin(res: Resonator) -> float:
    """Capacitive misalignment beyond which the high-Q motional mode is lost.

    The motional branch can cancel at most 1/(2*r_m) of net tank
    susceptance; the equivalent capacitance offset is 1/(2*r_m*w_s).
    """
    return 1.0 / (2.0 * res.r_m * TWO_PI * series_resonance(res))


# --- operating points ----------------------------------------------------

# Relative width at which a bracketed root counts as polished.
_XTOL_REL = 1e-15


def _brent(fn, a: float, b: float) -> float:
    """Root of fn in [a, b], where fn(a) and fn(b) differ in sign.

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant steps,
    with a bisection step whenever those would not shrink the bracket fast
    enough.  Returns once the bracket is _XTOL_REL * |root| wide.
    """
    fa, fb = fn(a), fn(b)
    if fa * fb > 0:
        raise ValueError("root is not bracketed")
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * _XTOL_REL * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = fn(b)


def _zero_phase_frequencies(res: Resonator, comp: CompensationNetwork,
                            lo: float = 0.0, hi: float = math.inf) -> list[float]:
    """Zero-phase crossings of the tank impedance within [lo, hi], ascending.

    Roots of the susceptance cubic (see the module docstring), each
    polished on Im Y within the bracket its neighbours leave it.
    """
    fs = series_resonance(res)
    ws = TWO_PI * fs
    c, l_0 = comp.branch_capacitance(res), comp.l_0
    a = (ws * res.r_m * res.c_m) ** 2
    b = (ws * l_0) ** 2
    e = comp.r_l0 ** 2 + b
    # Im Y / w times both denominators, expanded in x
    coeffs = [c * b,
              c * (e + a * b) - res.c_m * b - l_0,
              c * a * (e + b) - res.c_m * e - l_0 * a,
              a * (c * e - l_0)]
    if not all(math.isfinite(k) for k in coeffs):
        raise ValueError("tank values overflow the zero-phase polynomial")
    roots = np.roots(coeffs)
    x = sorted(float(r.real) for r in roots if r.imag == 0 and r.real > -1.0)
    f_est = [fs * math.sqrt(1.0 + v) for v in x]
    sel = [i for i, f in enumerate(f_est) if lo <= f <= hi]
    if not sel:
        return []
    # Wide brackets run between neighbouring roots.  No other real root lies
    # beyond the outermost ones, so any margin over the eigenvalue error
    # closes them (the lower one keeps w > 0).  np.roots is good to ~1e-13
    # relative here, so a 1e-9 bracket around each estimate is tried first:
    # Brent then needs about 5 evaluations instead of up to 20.
    margin = 1e-3 * float(np.abs(roots).max())
    edges = ([max(x[0] - margin, 0.5 * (x[0] - 1.0))]
             + [0.5 * (b + a) for a, b in zip(x, x[1:])] + [x[-1] + margin])
    f_wide = [fs * math.sqrt(1.0 + v) for v in edges]

    def susceptance(f):
        return _tank_admittance(res, comp, f).imag

    out = []
    for i in sel:
        a = max(f_wide[i], f_est[i] * (1.0 - 1e-9))
        b = min(f_wide[i + 1], f_est[i] * (1.0 + 1e-9))
        if not _opposite(susceptance(a), susceptance(b)):
            a, b = f_wide[i], f_wide[i + 1]
            if not _opposite(susceptance(a), susceptance(b)):
                continue  # tangential root: the phase touches zero without crossing
        f = _brent(susceptance, a, b)
        if lo <= f <= hi:
            out.append(f)
    return out


def _opposite(a: float, b: float) -> bool:
    """a and b are non-zero and of opposite sign (False on NaN)."""
    return a < 0 < b or b < 0 < a


def find_motional_operating_point(res: Resonator, comp: CompensationNetwork):
    """Zero-phase crossing nearest f_s, or None once that mode has vanished.

    The crossing lies within one motional bandwidth of f_s whenever it
    exists; the search window spans +-2 bandwidths.
    """
    fs = series_resonance(res)
    bw = motional_bandwidth(res)
    # cap: for very low motional Q the bandwidth exceeds the octave around f_s
    lo = max(fs - 2.0 * bw, 0.5 * fs)
    hi = min(fs + 2.0 * bw, 1.5 * fs)
    crossings = _zero_phase_frequencies(res, comp, lo, hi)
    if not crossings:
        return None
    f = min(crossings, key=lambda x: abs(x - fs))
    return f, _impedance(res, comp, f)


def find_lc_operating_point(res: Resonator, comp: CompensationNetwork):
    """Zero-phase crossing of the broad LC-branch structure.

    Among the crossings in a window around the LC resonance this is the one
    with the largest impedance (the motional crossing, when inside the
    window, is a notch of much lower impedance).
    """
    ft = tank_resonance(res, comp)
    half = ft / max(2.0 * comp.q_l0, 4.0)
    lo = max(ft - 4.0 * half, ft * 0.2)
    hi = ft + 4.0 * half
    crossings = _zero_phase_frequencies(res, comp, lo, hi)
    if not crossings:
        raise NoResonanceError("no resonance found in the LC sweep window")
    return max(((f, _impedance(res, comp, f)) for f in crossings),
               key=lambda point: abs(point[1]))


def find_operating_point(res: Resonator, comp: CompensationNetwork):
    """Governing operating point: (frequency, impedance, mode).

    The tuned high-Q motional crossing governs whenever it exists (it is
    what the bank tuning targets); otherwise only the low-Q LC-branch
    point remains.
    """
    motional = find_motional_operating_point(res, comp)
    if motional is not None:
        return (*motional, "motional")
    f, z = find_lc_operating_point(res, comp)
    return f, z, "lc_tank"


# --- loaded quality factor ----------------------------------------------

def phase_slope_q(res: Resonator, comp: CompensationNetwork, f_0: float) -> float:
    """Q of the tank impedance at f_0 from its phase slope: (f/2)*|dphi/df|.

    Central difference with step halving until a halving changes the
    estimate by < 0.1%.  ValueError unless f_0 is positive and finite.
    """
    f_0 = check_frequency(f_0).item()
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


def loaded_q(res: Resonator, comp: CompensationNetwork,
             mode: str = "dominant") -> float:
    """Loaded Q of the composite tank by the phase-slope method.

    Evaluated at a zero-phase operating point: "dominant" (the governing
    one), "motional" (nearest f_s; raises once that mode has vanished) or
    "lc_tank".
    """
    if mode == "dominant":
        f_op, _, _ = find_operating_point(res, comp)
    elif mode == "motional":
        point = find_motional_operating_point(res, comp)
        if point is None:
            raise NoResonanceError("no motional-mode resonance found")
        f_op = point[0]
    elif mode == "lc_tank":
        f_op = find_lc_operating_point(res, comp)[0]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return phase_slope_q(res, comp, f_op)


def loaded_q_3db(res: Resonator, comp: CompensationNetwork) -> float:
    """Secondary Q estimate from the half-power (-3 dB) bandwidth.

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
    q_est = phase_slope_q(res, comp, f_op)
    probe = f_op / (4.0 * max(q_est, 1.0))
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

    f_lo = crossing(-1)
    f_hi = crossing(+1)
    return f_op / (f_hi - f_lo)


# --- tank-level summaries ------------------------------------------------

def effective_resistance(res: Resonator, comp: CompensationNetwork) -> TankAnalysis:
    """Resistance-division summary: r_res = r_m || (q_l0^2 * r_l0) and beta."""
    r_res = _effective_parallel_resistance(res, comp)
    fs = series_resonance(res)
    ft = tank_resonance(res, comp)
    aligned = abs(ft - fs) <= 0.5 * motional_bandwidth(res)
    return TankAnalysis(f_tank=ft, f_s=fs, r_res=r_res, beta=r_res / res.r_m,
                        aligned=aligned)


def analyze_tank(res: Resonator, comp: CompensationNetwork) -> TankAnalysis:
    """Full tank summary: alignment, governing mode and phase-slope loaded Q."""
    f_op, _, mode = find_operating_point(res, comp)
    return replace(effective_resistance(res, comp), dominant_mode=mode,
                   q_loaded=phase_slope_q(res, comp, f_op))


def first_true(pred, lo: int, hi, guess: int) -> int:
    """Smallest integer k in [lo, hi] with pred(k), or hi + 1 when none has.

    pred must be monotone on [lo, hi]: false up to some k, true from there
    on.  The search gallops out from guess and then bisects, so a guess
    that is d away costs about 2*log2(d + 1) + 2 calls of pred.  hi may be
    math.inf when pred holds from some finite k on.
    """
    guess = min(max(guess, lo), hi)
    step = 1
    if pred(guess):
        a, b = guess - 1, guess  # pred(b) holds; walk a down until it fails
        while a >= lo and pred(a):
            b, step = a, 2 * step
            a = b - step
        a = max(a, lo - 1)
    else:
        a, b = guess, guess + 1  # pred(a) fails; walk b up until it holds
        while b <= hi and not pred(b):
            a, step = b, 2 * step
            b = a + step
        b = min(b, hi + 1)
    while b - a > 1:  # pred fails at a (or a < lo) and holds at b (or b > hi)
        m = (a + b) // 2
        if pred(m):
            b = m
        else:
            a = m
    return b


def tune_bank(res: Resonator, comp: CompensationNetwork) -> int:
    """Bank code minimizing |f_tank - f_s|; ties break toward the lower code.

    f_tank falls with the code, in floating point too, so the offset falls
    until f_tank reaches f_s and rises from there.  The search starts at
    the closed-form code, the capacitance deficit 1/(w_s^2*l_0) - c_branch
    over the bank unit, finds the first code at or below f_s and the
    lowest code that ties the one before it: a handful of `tank_resonance`
    calls, and O(log bank_size) at worst.  Warns when even the best code
    leaves the tank more than a motional bandwidth off the series
    resonance.
    """
    if comp.bank_size < 1:
        warnings.warn("bank has no tunable units", AlignmentWarning)
        return 0
    fs = series_resonance(res)
    n = comp.bank_size

    def offset(code):
        return abs(tank_resonance(res, comp, code) - fs)

    ws = TWO_PI * fs
    deficit = 1.0 / (ws * ws * comp.l_0) - comp.branch_capacitance(res, 0)
    units = deficit / comp.bank_unit if comp.bank_unit > 0 else 0.0
    guess = math.ceil(min(max(units, 0.0), n))
    best = first_true(lambda code: tank_resonance(res, comp, code) <= fs, 0, n, guess)
    if best > 0:
        low = offset(best - 1)
        if best > n or low <= offset(best):
            best = first_true(lambda code: offset(code) <= low, 0, best - 1, best - 1)
    off = offset(best)
    if off > motional_bandwidth(res):
        warnings.warn(
            f"best bank code {best} still leaves the tank "
            f"{off:.4g} Hz off the series resonance",
            AlignmentWarning)
    return best
