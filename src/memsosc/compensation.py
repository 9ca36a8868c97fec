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
motional crossing exists only while the rest of the tank's susceptance
at w_s stays within the +-1/(2*r_m) the motional branch spans there;
`window_fraction`, in units of that half-width, is the one measure of
alignment.  `find_operating_point` is the one route to an
operating point: one root solve finds every crossing at any frequency,
and one rule picks among them by type.  The motional point is the
series-type crossing, where d(Im Y)/dw < 0 (at most one exists); without
one, the LC point, the crossing with the largest |Z|, governs.
NoResonanceError means no crossing exists at all.
`phase_slope_q` gives the loaded Q at the chosen frequency and
`effective_resistance` r_res and beta, and `noise.evaluate` carries all
three on to the noise budget, phase noise and FoM.

The crossings are found in closed form.  The tank admittance is always
conductive, so the phase is zero exactly where Im Y = 0.  With
x = (w/w_s)^2 - 1, A = 1/Q_m^2 = (w_s*r_m*c_m)^2 and B = (w_s*l_0)^2,

    Im Y / w = C - c_m*x / (x^2 + A*(1 + x)) - l_0 / (r_l0^2 + B*(1 + x)),

and both denominators are positive for w > 0, so clearing them leaves a
cubic in x whose real roots with 1 + x > 0 are the candidate crossings.
Centring on x = 0 (the series resonance) keeps the close motional pair
well conditioned.  Its leading coefficient C*B is positive, and the roots
come from the closed form (see `_real_cubic_roots`), refined by Newton
steps on the cubic.  Each one is then bracketed, first tightly around its
estimate and otherwise between its neighbours, skipped when Im Y keeps
its sign across the bracket (a tangential root), and polished on Im Y
itself: Newton steps from the estimate, with the slope from the same
exact Y' that gives the loaded Q, and a bisection step whenever a Newton
step would leave the bracket or stall (see `_rtsafe`), until a step is
below 1e-15 of the frequency.

One frequency at a time is a Python float, and `Resonator` and
`CompensationNetwork` store Python numbers, so the admittance is Python
complex arithmetic; an array of frequencies is a loop over it (see
`bvd.finite_impedance`).  Beneath the network sits a tank in floats, the
tuple (res, c_branch, l_0, r_l0): the admittance, the root solve, the
polish and the loaded Q all take it, and they are module-level
functions, so an operating point builds no closure.  `operating_point`
is the public kernel on those floats: the governing crossing, its mode
and its loaded Q, for a caller such as a misalignment sweep whose points
differ only in c_branch and so need no network each.
`find_operating_point` and `phase_slope_q` are thin wrappers over the
same functions, for a network.  The public entry points check the
frequency once; from there the bracket edges, sign tests and Newton
polish run in Python floats, and the loaded Q is a closed form in them.
One cubic solve serves each operating point, only the roots a rule asks
about get polished, and none of it needs numpy.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import partial

from .bvd import (
    TWO_PI,
    Resonator,
    check_fields,
    check_frequency,
    check_positive,
    finite_impedance,
    motional_detuning,
    series_resonance,
)


class NoSolutionError(ValueError):
    """Requested synthesis has no physical solution."""


class NoResonanceError(RuntimeError):
    """The tank has no zero-phase crossing the request can run at."""


class AlignmentWarning(UserWarning):
    """The best bank code leaves the tank outside the high-Q window."""


@dataclass(frozen=True)
class CompensationNetwork:
    """Shunt inductor, fixed capacitor and unit-capacitor bank around a resonator.

    q_l0 is specified at f_ref and converted once, at construction, to a
    frequency-independent series resistance r_l0, which the network stores
    as `Resonator` stores f_s; inductor loss dispersion is out of scope.
    """

    l_0: float
    q_l0: float
    f_ref: float
    c_fix: float = 0.0
    bank_unit: float = 0.0
    bank_size: int = 0
    bank_code: int = 0

    def __post_init__(self):
        check_fields(self, positive=("l_0", "q_l0", "f_ref"),
                     nonnegative=("c_fix", "bank_unit"), counts=("bank_size", "bank_code"))
        if not self.bank_code <= self.bank_size:
            raise ValueError("bank_code must lie in [0, bank_size]")
        # r_l0, computed once here: every admittance evaluation reads it
        r_l0 = loss_resistance(self.l_0, self.q_l0, self.f_ref)
        if not r_l0 < math.inf:
            raise ValueError(f"l_0 = {self.l_0!r} H puts r_l0 = 2*pi*f_ref*l_0/q_l0 out of "
                             f"floating-point range for f_ref = {self.f_ref!r} Hz")
        object.__setattr__(self, "_r_l0", r_l0)

    @property
    def r_l0(self) -> float:
        """Series loss resistance of the inductor, 2*pi*f_ref*l_0/q_l0."""
        return self._r_l0

    def branch_capacitance(self, res: Resonator, bank_code: int | None = None) -> float:
        """Total capacitance across l_0: c_0 + c_fix + selected bank units."""
        code = self.bank_code if bank_code is None else bank_code
        return res.c_0 + self.c_fix + code * self.bank_unit


def loss_resistance(l_0: float, q_l0: float, f_ref: float) -> float:
    """Series loss resistance 2*pi*f_ref*l_0/q_l0 of an inductor l_0 whose
    quality factor is q_l0 at f_ref, in Python floats and unchecked."""
    return TWO_PI * f_ref * l_0 / q_l0


@dataclass(frozen=True)
class TankAnalysis:
    """The tank's resistance division: r_res and beta = r_res/r_m."""

    r_res: float
    beta: float


def zero_phase_c0(res: Resonator, f: float) -> float:
    """Static capacitance that would give a 0-degree impedance phase at f.

    Only frequencies above the series resonance admit a positive solution;
    NoSolutionError otherwise, or where the value leaves the float range.
    """
    f = float(check_frequency(f))
    w = TWO_PI * f
    d = motional_detuning(res, f)  # omega^2*l_m*c_m - 1
    if d <= 0:
        raise NoSolutionError(
            f"no physical solution: {f} Hz is not above the series resonance "
            f"({series_resonance(res):.6g} Hz)")
    a = w * res.r_m * res.c_m
    c_0 = res.c_m * d / (a * a + d * d)
    if not 0 < c_0 < math.inf:
        raise NoSolutionError(f"no solution in floating-point range at f = {f!r} Hz")
    return c_0


def shunt_inductor_for(c_total: float, f_0: float) -> float:
    """Inductance resonating c_total at f_0; ValueError naming c_total or
    f_0 unless it is positive and finite."""
    c_total = check_positive("c_total", c_total)
    f_0 = check_positive("f_0", f_0)
    w = TWO_PI * f_0
    wwc = w * w * c_total
    if not 0 < wwc < math.inf or 1.0 / wwc == math.inf:
        raise ValueError(f"no finite inductance resonates c_total = {c_total!r} F "
                         f"at f_0 = {f_0!r} Hz")
    return 1.0 / wwc


def _tank(res: Resonator, comp: CompensationNetwork):
    """The tank of res and comp in floats, (res, c_branch, l_0, r_l0), with
    the branch capacitance summed as `branch_capacitance` sums it."""
    return res, res.c_0 + comp.c_fix + comp.bank_code * comp.bank_unit, comp.l_0, comp._r_l0


def _tank_admittance(tank, f):
    """Admittance of motional branch || C branch || lossy inductor.

    tank is (res, c_branch, l_0, r_l0) and f a checked Python float; the
    arithmetic is that of `motional_admittance`.
    """
    res, c, l_0, r_l0 = tank
    fs = res._f_s
    w = TWO_PI * f
    return (1.0 / (res.r_m + 1j * ((f - fs) * (f + fs) / (fs * fs) / (w * res.c_m)))
            + 1j * w * c + 1.0 / (r_l0 + 1j * w * l_0))


def _admittance_and_slope(tank, f: float):
    """Tank admittance Y at a checked Python float f, with the bits of
    `_tank_admittance`, and its derivative

        dY/dw = j*[C - (l_m + 1/(w^2*c_m))/Z_m^2 - l_0/Z_L^2],

    with Z_m = r_m + j*X_m and Z_L = r_l0 + j*w*l_0.  X_m comes from the
    detuning, as in the admittance, and l_m + 1/(w^2*c_m) is taken as
    2*l_m - X_m/w.  ZeroDivisionError where w*c_m, Z_m^2 or Z_L^2 underflows.
    """
    res, c, l_0, r_l0 = tank
    fs = res._f_s
    w = TWO_PI * f
    x_m = (f - fs) * (f + fs) / (fs * fs) / (w * res.c_m)
    z_m = res.r_m + 1j * x_m
    z_l = r_l0 + 1j * w * l_0
    return (1.0 / z_m + 1j * w * c + 1.0 / z_l,
            1j * (c - (2.0 * res.l_m - x_m / w) / (z_m * z_m) - l_0 / (z_l * z_l)))


def tank_impedance(res: Resonator, comp: CompensationNetwork, f):
    """Complex impedance of motional branch || C branch || lossy inductor.

    ValueError unless f is positive and finite and, for one frequency, the
    impedance is finite there."""
    return finite_impedance(partial(_tank_admittance, _tank(res, comp)), check_frequency(f))


def tank_resonance(res: Resonator, comp: CompensationNetwork,
                   bank_code: int | None = None) -> float:
    """LC-branch resonance 1/(2*pi*sqrt(l_0*c_branch))."""
    c = comp.branch_capacitance(res, bank_code)
    if c <= 0:
        raise ValueError("branch capacitance must be positive")
    return _lc_resonance(comp.l_0, c)


def _lc_resonance(l_0: float, c: float) -> float:
    """1/(2*pi*sqrt(l_0*c)) for a positive c."""
    return 1.0 / (TWO_PI * math.sqrt(l_0 * c))


def motional_mode_capacitance_margin(res: Resonator) -> float:
    """Capacitive misalignment beyond which the high-Q motional mode is lost.

    The motional branch can cancel at most 1/(2*r_m) of net tank
    susceptance; the equivalent capacitance offset is 1/(2*r_m*w_s).
    """
    return 1.0 / (2.0 * res.r_m * TWO_PI * series_resonance(res))


def bank_alignment(res: Resonator, l_0: float, r_l0: float, c_base: float,
                   bank_unit: float, bank_size: int,
                   code: int | None = None) -> tuple[int, float]:
    """(code, window fraction) of a tank given as Python floats: inductor
    l_0 with series loss r_l0, branch capacitance c_base (c_0 + c_fix) plus
    code bank units.  The fraction is 2*r_m*B, with B = w_s*c_branch +
    Im(1/(r_l0 + j*w_s*l_0)) the tank's non-motional susceptance at w_s: 0
    at the window centre, and the motional crossing exists while it lies in
    [-1, 1].  The bank term comes last, so neighbouring codes stay apart
    however small the unit.

    code=None takes the code nearest the window centre.  The fraction rises
    by bank_unit/margin per code, so that is the code nearest u =
    -fraction(0)*margin/bank_unit, clamped to the bank; a u half-way
    between two codes, a zero unit or an empty bank takes the lower code.
    This is the arithmetic of `window_fraction` and `tune_bank`, and of the
    inductor search that weighs grid points without building networks.
    """
    ws = TWO_PI * res._f_s
    b = ws * c_base + (1.0 / (r_l0 + 1j * ws * l_0)).imag
    if code is None:
        if bank_size < 1:
            code = 0
        else:
            u = (-(2.0 * res.r_m * b) * motional_mode_capacitance_margin(res) / bank_unit
                 if bank_unit > 0 else 0.0)
            code = bank_size if u >= bank_size else math.ceil(max(u, 0.0) - 0.5)
    return code, 2.0 * res.r_m * (b + ws * code * bank_unit)


def window_fraction(res: Resonator, comp: CompensationNetwork,
                    bank_code: int | None = None) -> float:
    """The window fraction of `bank_alignment` at bank_code, by default the
    network's own code: 0 at the window centre, and the motional crossing
    exists while it lies in [-1, 1]."""
    code = comp.bank_code if bank_code is None else bank_code
    return bank_alignment(res, comp.l_0, comp._r_l0, res.c_0 + comp.c_fix, comp.bank_unit,
                          comp.bank_size, code)[1]


# --- operating points ----------------------------------------------------

# Relative step below which a polished root counts as converged.
_XTOL_REL = 1e-15

# The most iterations one polish may take (see `_rtsafe`).
_RTSAFE_CAP = 4200


def _rtsafe(fn, a: float, b: float, fa: float, x: float) -> float:
    """Root of g in [a, b], where g(a) = fa and g(b) differ in sign, from x.

    fn(x) gives g(x) and g'(x).  Newton steps start at x inside the
    bracket, which every evaluation shrinks; a step that would leave it, or
    would not halve the step before last, bisects instead (rtsafe,
    Numerical Recipes 3rd ed., section 9.4).  Returns on an exact zero or
    once a step is below _XTOL_REL * |root|.

    The loop stops at _RTSAFE_CAP = 2 * 2,100 iterations.  An accepted
    Newton step is under half the step before last, so Newton steps at
    least halve every two iterations (and each bisection halves the
    bracket), and about 2,100 halvings span the positive doubles, 2^1024
    down to 2^-1074.  A polish past the cap has stopped converging: it
    raises ValueError naming the bracket, and never returns an
    unconverged value.
    """
    step = last = b - a
    for _ in range(_RTSAFE_CAP):
        g, slope = fn(x)
        if g == 0:
            return x
        a, b = (x, b) if (g < 0) == (fa < 0) else (a, x)
        newton = x - g / slope if slope else math.nan
        if not (a <= newton <= b and abs(x - newton) < 0.5 * abs(last)):
            newton = 0.5 * (a + b)
        last, step = step, x - newton
        if abs(step) <= _XTOL_REL * abs(x) or newton == x:
            return newton
        x = newton
    raise ValueError(f"root polish did not converge in {_RTSAFE_CAP} iterations; "
                     f"bracket [{a!r}, {b!r}]")


def _cubic_newton(d3: float, d2: float, d1: float, d0: float, y: float) -> float:
    """y after Newton steps on d3*y^3 + d2*y^2 + d1*y + d0, taken for as
    long as they shrink the residual (at most 8)."""
    r = ((d3 * y + d2) * y + d1) * y + d0
    for _ in range(8):
        slope = (3.0 * d3 * y + 2.0 * d2) * y + d1
        if not slope:
            break
        z = y - r / slope
        rz = ((d3 * z + d2) * z + d1) * z + d0
        if not abs(rz) < abs(r):
            break
        y, r = z, rz
    return y


# the trigonometric solution's angles j*2*pi/3, j = 1 and 2
_THIRD_TURN = TWO_PI / 3.0
_TWO_THIRDS_TURN = 2 * TWO_PI / 3.0


def _real_cubic_roots(c3: float, c2: float, c1: float, c0: float):
    """Real roots, ascending, of c3*x^3 + c2*x^2 + c1*x + c0 with c3 > 0,
    and the largest modulus among all three roots.

    Two exact power-of-two scalings come first: x = 2^k*y with 2^k near
    the size of the roots, and the coefficients by 2^-m with 2^m near
    c3*2^(3k).  The cubic in y then has a leading coefficient in [0.5, 1)
    and the others below 1, so nothing overflows or cancels to NaN however
    large or small the input.  The closed form follows on the depressed
    cubic t^3 + p*t + q: the trigonometric solution when it has three real
    roots, otherwise Cardano's one real root, whose deflation leaves a
    quadratic for the other two (by Vieta's relations when that root
    dominates, which keeps two small roots beside a large one).  Each real root then takes Newton steps
    on the scaled coefficients (see `_cubic_newton`).
    """
    lead = math.frexp(c3)[1]
    # k = ceil(log2 |c_n/c3| / n), the largest over the non-zero c_n; 0 if none
    k = max(math.frexp(c2)[1] - lead if c2 else -math.inf,
            -((lead - math.frexp(c1)[1]) // 2) if c1 else -math.inf,
            -((lead - math.frexp(c0)[1]) // 3) if c0 else -math.inf)
    if k == -math.inf:
        k = 0
    d3 = math.ldexp(c3, -lead)
    d2 = math.ldexp(c2, -k - lead)
    d1 = math.ldexp(c1, -2 * k - lead)
    d0 = math.ldexp(c0, -3 * k - lead)

    a, b, c = d2 / d3, d1 / d3, d0 / d3
    shift = a / 3.0
    p = b - a * shift
    q = (2.0 * shift * shift - b) * shift + c
    h = 0.25 * q * q + p * p * p / 27.0
    if h < 0:  # three real roots, p < 0
        r = math.sqrt(-p / 3.0)
        angle = math.acos(max(-1.0, min(1.0, -0.5 * q / (r * r * r)))) / 3.0
        r2 = 2.0 * r
        ys = [_cubic_newton(d3, d2, d1, d0, r2 * math.cos(angle) - shift),
              _cubic_newton(d3, d2, d1, d0, r2 * math.cos(angle - _THIRD_TURN) - shift),
              _cubic_newton(d3, d2, d1, d0, r2 * math.cos(angle - _TWO_THIRDS_TURN) - shift)]
    else:
        u = -0.5 * q - math.copysign(math.sqrt(h), q)
        u = math.copysign(abs(u) ** (1.0 / 3.0), u)  # cube root
        y = _cubic_newton(d3, d2, d1, d0, (u - p / (3.0 * u) if u else 0.0) - shift)
        # y^2 + s*y + t = 0 holds the other two roots; when y dominates,
        # a + y would cancel them away, so Vieta's product and sum give
        # them: c = -y*t and b = t - y*s
        if abs(y) > abs(a):
            t = -c / y
            s = -(b - t) / y
        else:
            s = a + y
            t = b + y * s
        disc = s * s - 4.0 * t
        if disc < 0:
            return [math.ldexp(y, k)], math.ldexp(max(abs(y), math.sqrt(t)), k)
        w = -0.5 * (s + math.copysign(math.sqrt(disc), s))
        ys = ([y, _cubic_newton(d3, d2, d1, d0, w), _cubic_newton(d3, d2, d1, d0, t / w)]
              if w else [y, 0.0, 0.0])
    ys.sort()
    return [math.ldexp(y, k) for y in ys], math.ldexp(max(-ys[0], ys[-1]), k)


def _zero_phase_roots(tank):
    """The zero-phase crossing estimates of tank = (res, c_branch, l_0,
    r_l0), as (f_est, x, margin): the susceptance cubic's real roots x
    (three, or one) that lie above zero frequency, 1 + x > 0, ascending
    (see the module docstring), their frequencies f_est, and the margin of
    the outer wide brackets.  `_crossing` polishes the ones a rule asks
    about.
    """
    res, c, l_0, r_l0 = tank
    fs = res._f_s
    ws = TWO_PI * fs
    # squares as x * x: an overflow gives inf, which the check below
    # refuses, where float ** 2 raises OverflowError
    wrc, wl = ws * res.r_m * res.c_m, ws * l_0
    a = wrc * wrc
    b = wl * wl
    e = r_l0 * r_l0 + b
    # Im Y / w times both denominators, expanded in x
    c3 = c * b
    c2 = c * (e + a * b) - res.c_m * b - l_0
    c1 = c * a * (e + b) - res.c_m * e - l_0 * a
    c0 = a * (c * e - l_0)
    if not (0 < c3 < math.inf and math.isfinite(c2) and math.isfinite(c1)
            and math.isfinite(c0)):
        raise ValueError("tank values overflow the zero-phase polynomial")
    try:
        roots, size = _real_cubic_roots(c3, c2, c1, c0)
    except OverflowError:  # math.ldexp past the largest float
        raise ValueError(f"a zero-phase root leaves the float range for l_0 = {l_0!r} H "
                         f"and C = {c!r} F") from None
    x = [v for v in roots if v > -1.0]
    # Wide brackets run between neighbouring roots.  No other real root lies
    # beyond the outermost ones, so any margin over the estimates' error
    # closes them (the lower one keeps w > 0).
    return [fs * math.sqrt(1.0 + v) for v in x], x, 1e-3 * size


def _crossing(tank, roots, i: int):
    """Crossing i of `_zero_phase_roots`' roots, polished on Im Y, or None
    for a tangential root.

    The Newton-refined estimates are good to a few units in the last place
    of x, so a 1e-9 bracket around the estimate is tried first, and the
    polish from the estimate inside it mostly stops after one evaluation of
    Y and Y'; otherwise the wide bracket its neighbours leave it.  Either
    is skipped when Im Y keeps its sign across it, and `_rtsafe` polishes
    within the bracket passed in.
    """
    f_est, x, margin = roots
    fs = tank[0]._f_s
    f = f_est[i]
    lo, hi = _wide_edge(fs, x, margin, i), _wide_edge(fs, x, margin, i + 1)
    a = max(lo, f * (1.0 - 1e-9))
    b = min(hi, f * (1.0 + 1e-9))
    fa = _tank_admittance(tank, a).imag
    if not _opposite(fa, _tank_admittance(tank, b).imag):
        a, b = lo, hi
        fa = _tank_admittance(tank, a).imag
        if not _opposite(fa, _tank_admittance(tank, b).imag):
            return None  # tangential root: the phase touches zero without crossing
    return _rtsafe(partial(_susceptance_and_slope, tank), a, b, fa, f)


def _susceptance_and_slope(tank, f: float):
    """Im Y and d(Im Y)/df of the tank at f, for `_rtsafe`."""
    try:
        y, dy = _admittance_and_slope(tank, f)
    except ZeroDivisionError:  # e.g. a subnormal r_m squares to zero
        raise ValueError(f"phase slope is not finite at f = {f!r} Hz") from None
    return y.imag, TWO_PI * dy.imag


def _wide_edge(fs: float, x, margin: float, j: int) -> float:
    """Frequency of wide bracket edge j among the roots x of the
    susceptance cubic: below root 0 for j = 0, above the last root for
    j = len(x), between roots j - 1 and j otherwise."""
    if j == 0:
        # half of 1 + x[0] keeps w > 0 where 1 + 0.5*(x[0] - 1) rounds to 0
        return fs * math.sqrt(max(1.0 + max(x[0] - margin, 0.5 * (x[0] - 1.0)),
                                  0.5 * (1.0 + x[0])))
    if j == len(x):
        v = x[-1] + margin
    else:
        v = 0.5 * (x[j] + x[j - 1])
    return fs * math.sqrt(1.0 + v)


def _opposite(a: float, b: float) -> bool:
    """a and b are non-zero and of opposite sign (False on NaN)."""
    return a < 0 < b or b < 0 < a


def _governing_crossing(tank):
    """(frequency, mode, impedance) of the governing crossing of tank =
    (res, c_branch, l_0, r_l0), by the rule of `find_operating_point`.  The
    impedance is None unless the LC rule compared several crossings by it.

    The estimates drop only roots at or below zero frequency, the lowest
    first, so the middle of three is the second highest estimate; one real
    root leaves at most one estimate.  When the middle crossing is
    tangential, only the others are polished again.
    """
    roots = _zero_phase_roots(tank)
    n = len(roots[0])
    middle = n - 2
    if middle >= 0 and (f := _crossing(tank, roots, middle)) is not None:
        return f, "motional", None
    found = [f for i in range(n)
             if i != middle and (f := _crossing(tank, roots, i)) is not None]
    if not found:
        _, c, l_0, _ = tank
        raise NoResonanceError(f"no zero-phase crossing at any frequency "
                               f"(f_tank = {_lc_resonance(l_0, c)!r} Hz)")
    if len(found) == 1:
        return found[0], "lc_tank", None
    f, z = max(((f, 1.0 / _tank_admittance(tank, f)) for f in found),
               key=lambda point: abs(point[1]))
    return f, "lc_tank", z


def find_operating_point(res: Resonator, comp: CompensationNetwork):
    """Governing operating point: (frequency, impedance, mode).

    One root solve gives every crossing, and one rule picks among them by
    type (Kurokawa, Bell Syst. Tech. J. 48(6), 1969).  The motional
    crossing is the series-type one, where d(Im Y)/dw < 0: the tuned
    high-Q notch the bank tuning targets, which governs whenever it exists.
    At a root of the susceptance cubic, d(Im Y)/dw has the sign of the
    cubic's slope, and the cubic's leading coefficient is positive, so the
    series-type crossing is the middle one of three real roots, when that
    root lies above zero frequency and changes the sign of Im Y; there is
    never more than one.  Otherwise the LC crossing governs: the one with
    the largest |Z| at any frequency, the broad LC-branch structure's.
    NoResonanceError only when the tank has no crossing at all.
    """
    tank = _tank(res, comp)
    f, mode, z = _governing_crossing(tank)
    return f, 1.0 / _tank_admittance(tank, f) if z is None else z, mode


def operating_point(res: Resonator, c_branch: float, l_0: float,
                    r_l0: float) -> tuple[float, str, float]:
    """(frequency, mode, loaded Q) of the governing crossing of a tank given
    as Python floats: branch capacitance c_branch across inductor l_0 with
    series loss r_l0, as `bank_alignment` takes it.

    The crossing, mode and refusals are those of `find_operating_point` for
    a network with that branch capacitance, and the loaded Q has the bits
    of `phase_slope_q` there, or is NaN where the phase slope is not
    finite, for the caller to refuse.
    """
    tank = (res, c_branch, l_0, r_l0)
    f, mode, _ = _governing_crossing(tank)
    return f, mode, _slope_q(tank, f)


# --- loaded quality factor ----------------------------------------------

def _slope_q(tank, f: float) -> float:
    """(w/2)*|Im(Y'/Y)| at a checked Python float f; NaN where it divides
    by zero."""
    try:
        y, dy = _admittance_and_slope(tank, f)
        return 0.5 * TWO_PI * f * abs((dy / y).imag)
    except ZeroDivisionError:  # w*c_m underflows at the lowest frequencies
        return math.nan


def phase_slope_q(res: Resonator, comp: CompensationNetwork, f_0: float) -> float:
    """Q of the tank impedance at f_0 from its phase slope: (w/2)*|dphi/dw|.

    Exact: the phase of Z = 1/Y has slope -Im(Y'/Y), so Q = (w/2)*|Im(Y'/Y)|,
    with Y and Y' = dY/dw from `_admittance_and_slope`.  ValueError unless
    f_0 is positive and finite and the slope is finite there.
    """
    f_0 = check_frequency(f_0)
    q = _slope_q(_tank(res, comp), f_0)
    if not math.isfinite(q):
        raise ValueError(f"phase slope is not finite at f_0 = {f_0!r} Hz")
    return q


# --- tank-level summaries ------------------------------------------------

def effective_resistance(res: Resonator, comp: CompensationNetwork) -> TankAnalysis:
    """Resistance-division summary: r_res = r_m || (q_l0^2 * r_l0) and beta;
    ValueError unless r_res is a normal float (v_osc/r_res fits if v_osc^2/r_res does)."""
    q2r = comp.q_l0 * comp.q_l0 * comp._r_l0
    r_res = res.r_m * q2r / (res.r_m + q2r)
    if not sys.float_info.min <= r_res < math.inf:
        raise ValueError(f"r_res = r_m || q_l0^2*r_l0 is out of floating-point range "
                         f"for q_l0 = {comp.q_l0!r} and l_0 = {comp.l_0!r} H")
    return TankAnalysis(r_res=r_res, beta=r_res / res.r_m)


def tune_bank(res: Resonator, comp: CompensationNetwork) -> int:
    """Bank code nearest the centre of the high-Q operating window, as
    `bank_alignment` picks it: c_centre = -Im(1/(r_l0 + j*w_s*l_0))/w_s
    cancels the lossy inductor at w_s.  Warns (AlignmentWarning) when even
    that code leaves the tank outside the window, or when the bank has no
    tunable units.
    """
    if comp.bank_size < 1:
        warnings.warn("bank has no tunable units", AlignmentWarning)
        return 0
    code, fraction = bank_alignment(res, comp.l_0, comp._r_l0, res.c_0 + comp.c_fix,
                                    comp.bank_unit, comp.bank_size)
    if abs(fraction) > 1.0:
        warnings.warn(f"best bank code {code} still leaves the tank at window fraction "
                      f"{fraction:+.4g}", AlignmentWarning)
    return code
