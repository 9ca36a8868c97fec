"""Butterworth-Van Dyke one-port resonator model.

A resonator is the series motional branch (r_m, l_m, c_m) shunted by the
static transducer capacitance c_0.  All values are SI base units; the
document loader handles engineering suffixes.

Every impedance is evaluated one frequency at a time in Python floats;
an array of frequencies is a loop over that path, so this module imports
numpy only where an array is built or returned.  `grid` spaces every
sweep grid in the package, the CLI's `sweep` values and a netlist's `.ac`
frequencies too, as a list of Python floats.

`check_fields` is the one rule that converts and checks the numbers of
every record in the package, and `check_positive` and `check_nonnegative`
its positive and non-negative rules.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
# the most points one sweep may take: a netlist's .ac grid, bvd.sweep and
# the CLI's --points all stop here, so time and memory stay bounded
MAX_AC_POINTS = 10**6
# the fewest points sweep() takes: its grid runs from f_start to f_stop
MIN_SWEEP_POINTS = 2


def as_float(name: str, value):
    """A real number as a Python float, anything else as it is; ValueError
    naming the field for a number beyond the float range (the int 10**400)."""
    if type(value) is float or not isinstance(value, numbers.Real):
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got a number beyond the float range") from None


def check_positive(name: str, value) -> float:
    """value as a Python float; ValueError naming it unless 0 < value < inf."""
    if type(value) is not float:
        value = as_float(name, value)
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """value, a Python float; ValueError naming it unless 0 <= value < inf."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
    return value


def check_fields(record, positive=(), nonnegative=(), counts=()) -> None:
    """Store each named field of the frozen `record` as a Python number
    and check it: `positive` fields lie in (0, inf), `nonnegative` ones in
    [0, inf), and `counts` are integers, not bool, from 0 up to the largest
    float.  ValueError naming the first field that breaks its rule; a
    Python float already in range passes after one type test and one
    comparison."""
    for name in positive:
        if type(value := getattr(record, name)) is float and 0 < value < math.inf:
            continue
        if (number := check_positive(name, value)) is not value:
            object.__setattr__(record, name, number)
    for name in nonnegative:
        if type(value := getattr(record, name)) is float and 0 <= value < math.inf:
            continue
        if type(value) is not float:
            object.__setattr__(record, name, value := as_float(name, value))
        check_nonnegative(name, value)
    for name in counts:
        if type(value := getattr(record, name)) is not int:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(record, name, value := int(value))
        if not 0 <= value <= sys.float_info.max:  # a count scales a unit in floats
            raise ValueError(f"{name} must be non-negative and within the float range")


@dataclass(frozen=True)
class Resonator:
    """BVD parameter set: the electrical identity of a mechanical resonator."""

    r_m: float
    l_m: float
    c_m: float
    c_0: float
    label: str = ""

    def __post_init__(self):
        check_fields(self, positive=("r_m", "l_m", "c_m", "c_0"))
        if not self.c_m / self.c_0 < 1:
            raise ValueError("coupling coefficient c_m/c_0 must be below unity")
        if not 0 < self.l_m * self.c_m < math.inf:
            raise ValueError("l_m*c_m must stay within the float range")
        # f_s, computed once here: every admittance evaluation reads it
        object.__setattr__(self, "_f_s", 1.0 / (TWO_PI * math.sqrt(self.l_m * self.c_m)))


@dataclass(frozen=True)
class ComplexResponse:
    """A frequency grid with complex impedance samples.

    NaN samples mark gap points (e.g. exactly singular lossless resonances).
    """

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        import numpy as np

        freqs = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if freqs.size == 0:
            raise ValueError("empty frequency grid")
        if freqs.shape != vals.shape:
            raise ValueError("frequency grid and samples differ in length")
        if not np.all(np.diff(freqs) > 0):
            raise ValueError("frequency grid must be strictly increasing")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)

    def magnitude(self) -> np.ndarray:
        return abs(self.values)

    def phase_deg(self) -> np.ndarray:
        import numpy as np

        return np.degrees(np.angle(self.values))

    def __len__(self) -> int:
        return self.frequencies.size


def check_frequency(f) -> float | np.ndarray:
    """One frequency as a Python float, several as a float array; raises
    ValueError unless every entry is positive and finite."""
    if isinstance(f, (float, int)):
        # one frequency runs through Python float arithmetic from here on
        f = float(f)
        ok = 0 < f < math.inf
    else:
        import numpy as np

        f = np.asarray(f, dtype=float)
        if f.ndim == 0:
            return check_frequency(f.item())
        # a NaN entry makes min() NaN, which fails the comparison
        ok = f.size == 0 or 0 < f.min() <= f.max() < math.inf
    if not ok:
        raise ValueError("frequency must be positive and finite")
    return f


def grid(start: float, stop: float, points: int, log: bool = False) -> list[float]:
    """`points` Python floats from start to stop, evenly spaced, or evenly
    spaced in log10 with log (which needs positive endpoints).

    A linear grid has the bits of numpy's linspace: start + i*step with
    step = (stop - start)/(points - 1), or start + i/(points - 1)*(stop -
    start) where the step underflows to 0, and stop last.  A log grid
    raises 10 to the linear grid of the log10 endpoints and keeps start
    and stop exact; its other points differ from numpy's geomspace only by
    the rounding of log10 and of the powers, within 1e-14 relative between
    1 and 1e12.  One point is [start].  ValueError when a point, or
    stop - start, lies beyond the float range, or a log endpoint is not positive.
    """
    try:
        start, stop = float(start), float(stop)
        if log and not (start > 0 and stop > 0):
            raise ValueError(f"a log grid of {points} points from {start!r} to {stop!r} "
                             "needs positive and finite endpoints")
        if log:
            inner = _spaced(math.log10(start), math.log10(stop), points)[1:-1]
            values = [start, *[10.0 ** y for y in inner], stop][:points]
        else:
            values = _spaced(start, stop, points)
    except OverflowError:
        values = [math.inf]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"a grid of {points} points from {start!r} to {stop!r} "
                         "overflows the float range")
    return values


def _spaced(start: float, stop: float, points: int) -> list[float]:
    """The unchecked linear grid of `grid`, in numpy's linspace arithmetic."""
    if points < 2:
        return [start][:points]
    div = points - 1
    delta = stop - start
    step = delta / div
    if step:
        values = [i * step + start for i in range(div)]
    else:
        # the step underflowed: scale each fraction of the span instead
        values = [i / div * delta + start for i in range(div)]
    values.append(stop)
    return values


def finite_impedance(admittance, f):
    """1/admittance(f) for a checked frequency f, one or an array; an
    array is evaluated one Python float at a time.

    At a frequency so low that w*c_m underflows (below about 1e-290 Hz for
    real resonators) the motional reactance divides by zero or overflows;
    that raises ValueError naming the frequency, an array's first such
    one, instead of returning NaN.
    """
    if not isinstance(f, float):
        import numpy as np

        return np.array([finite_impedance(admittance, x) for x in f.ravel().tolist()],
                        dtype=complex).reshape(f.shape)
    try:
        z = 1.0 / admittance(f)
    except ZeroDivisionError:
        z = None
    if z is None or z != z:
        raise ValueError(f"impedance is not finite at f = {f!r} Hz")
    return z


def series_resonance(res: Resonator) -> float:
    """Motional series resonance 1/(2*pi*sqrt(l_m*c_m))."""
    return res._f_s


def parallel_resonance(res: Resonator) -> float:
    """Antiresonance of the full one-port, f_s*(1 + c_m/(2*c_0))."""
    return series_resonance(res) * (1.0 + res.c_m / (2.0 * res.c_0))


def quality_factor(res: Resonator) -> float:
    """Series-branch quality factor omega_s*l_m/r_m."""
    return TWO_PI * series_resonance(res) * res.l_m / res.r_m


def coupling_coefficient(res: Resonator) -> float:
    """Electromechanical coupling kt^2 = c_m/c_0."""
    return res.c_m / res.c_0


def motional_detuning(res: Resonator, f) -> float | np.ndarray:
    """omega^2*l_m*c_m - 1, evaluated as (f-f_s)(f+f_s)/f_s^2.

    The factored form keeps full precision through the resonance where the
    naive product cancels catastrophically (a Q of 1e4 leaves ~3 MHz of
    bandwidth on a 30 GHz carrier).  Plain arithmetic: a float gives a
    float, an array an array.
    """
    fs = res._f_s
    return (f - fs) * (f + fs) / (fs * fs)


def motional_admittance(res: Resonator, f):
    """Admittance of the series r_m-l_m-c_m branch alone at a checked
    Python float f."""
    x_m = motional_detuning(res, f) / (TWO_PI * f * res.c_m)
    return 1.0 / (res.r_m + 1j * x_m)


def _admittance(res: Resonator, f):
    """Admittance of the BVD one-port (motional || static) at a checked
    Python float f."""
    return motional_admittance(res, f) + 1j * (TWO_PI * f) * res.c_0


def impedance(res: Resonator, f) -> complex | np.ndarray:
    """Driving-point impedance of the BVD one-port (motional || static)."""
    return finite_impedance(functools.partial(_admittance, res), check_frequency(f))


def phase(res: Resonator, f) -> float | np.ndarray:
    """Impedance phase in degrees, wrapped to (-180, 180].

    Computed as the principal argument of the complex impedance; the
    two-arctangent closed form has quadrant ambiguities.
    """
    z = impedance(res, f)
    if isinstance(z, complex):
        return math.degrees(cmath.phase(z))
    import numpy as np

    return np.degrees(np.angle(z))


def static_reactance(res: Resonator, f) -> float | np.ndarray:
    """Magnitude of the static branch reactance 1/(2*pi*f*c_0)."""
    return 1.0 / (TWO_PI * check_frequency(f) * res.c_0)


def motional_bandwidth(res: Resonator) -> float:
    """-3 dB width of the motional resonance, f_s/Q."""
    return series_resonance(res) / quality_factor(res)


def sweep(res: Resonator, f_start: float, f_stop: float, points: int,
          log: bool = False) -> ComplexResponse:
    """Impedance sweep over a linear or geometric `grid` of
    MIN_SWEEP_POINTS to MAX_AC_POINTS points, evaluated one Python float
    at a time; numpy holds only the returned response."""
    if not 0 < f_start < f_stop:
        raise ValueError("need 0 < f_start < f_stop")
    if not MIN_SWEEP_POINTS <= points <= MAX_AC_POINTS:
        raise ValueError(f"need {MIN_SWEEP_POINTS} to {MAX_AC_POINTS} points, "
                         f"got {points}")
    freqs = grid(f_start, f_stop, points, log)
    admittance = functools.partial(_admittance, res)
    return ComplexResponse(freqs, [finite_impedance(admittance, f) for f in freqs])
